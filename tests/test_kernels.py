import numpy as np

from orthomask import kernels
from orthomask.orthograph import BiadjacencyMatrix

from _helpers import random_mask


def random_csr(rng, n_t=9, n_s=11, density=0.4):
    mask = random_mask(rng, n_t, n_s, density)
    data = rng.normal(0.0, 1.0, mask.n_edges)
    return mask, data


def test_matvec_against_dense():
    rng = np.random.default_rng(3)
    # sparse rows, rows of at least 8 edges (pairwise-summation length),
    # and a batch with zero samples
    cases = [(0.4, 4)] * 30 + [(0.95, 4)] * 10 + [(0.4, 0), (0.95, 0)]
    long_rows = 0
    for density, n_samples in cases:
        mask, data = random_csr(rng, density=density)
        long_rows += int((mask.row_degrees() >= 8).sum())
        xs = rng.normal(0.0, 1.0, (n_samples, mask.n_sources))
        dense = np.zeros((mask.n_targets, mask.n_sources))
        dense[mask.edge_rows, mask.edge_cols] = data
        got = kernels.csr_matvec_batch(mask.indptr, mask.edge_cols, data, xs)
        assert got.shape == (n_samples, mask.n_targets) and got.dtype == np.float64
        assert np.all(np.abs(got - xs @ dense.T) <= 1e-12)
    assert long_rows > 0


def test_backward_against_dense():
    # the transposed product (the fold) and the edge gradient
    rng = np.random.default_rng(4)
    for _ in range(30):
        mask, data = random_csr(rng)
        xs = rng.normal(0.0, 1.0, (5, mask.n_sources))
        upstream = rng.normal(0.0, 1.0, (5, mask.n_targets))
        dense = np.zeros((mask.n_targets, mask.n_sources))
        dense[mask.edge_rows, mask.edge_cols] = data
        got = kernels.dense_times_csr(mask.indptr, mask.edge_cols, data, upstream, mask.n_sources)
        assert got.shape == (5, mask.n_sources) and got.dtype == np.float64
        assert np.max(np.abs(got - upstream @ dense), initial=0.0) <= 1e-12
        grad_data = kernels.edge_dot(mask.indptr, mask.edge_cols, upstream, xs)
        expected = (upstream.T @ xs)[mask.edge_rows, mask.edge_cols]
        assert grad_data.shape == (mask.n_edges,)
        assert np.max(np.abs(grad_data - expected), initial=0.0) <= 1e-12


def test_empty_support():
    mask = BiadjacencyMatrix(["t0", "t1", "t2"], [f"s{j}" for j in range(5)], [])
    data = np.zeros(0)
    xs = np.ones((2, 5))
    out = kernels.csr_matvec_batch(mask.indptr, mask.edge_cols, data, xs)
    assert out.shape == (2, 3)
    assert not out.any()
    upstream = np.ones((2, 3))
    folded = kernels.dense_times_csr(mask.indptr, mask.edge_cols, data, upstream, 5)
    assert folded.shape == (2, 5) and folded.dtype == np.float64
    assert not folded.any()
    grad_data = kernels.edge_dot(mask.indptr, mask.edge_cols, upstream, xs)
    assert grad_data.shape == (0,) and grad_data.dtype == np.float64
