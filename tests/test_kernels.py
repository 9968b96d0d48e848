import tracemalloc

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
        got = kernels.dense_times_csr(mask.edge_rows, mask.edge_cols, data, upstream, mask.n_sources)
        assert got.shape == (5, mask.n_sources) and got.dtype == np.float64
        assert np.max(np.abs(got - upstream @ dense), initial=0.0) <= 1e-12
        grad_data = kernels.edge_dot(mask.edge_rows, mask.edge_cols, upstream, xs)
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
    folded = kernels.dense_times_csr(mask.edge_rows, mask.edge_cols, data, upstream, 5)
    assert folded.shape == (2, 5) and folded.dtype == np.float64
    assert not folded.any()
    grad_data = kernels.edge_dot(mask.edge_rows, mask.edge_cols, upstream, xs)
    assert grad_data.shape == (0,) and grad_data.dtype == np.float64


def scatter_oracle(a, gather, scatter, data, n_out):
    """``out[m][scatter[e]] += a[m][gather[e]] * data[e]`` as a Python double
    loop: rows, then edges in edge order, into float zeros."""
    out = [[0.0] * n_out for _ in range(len(a))]
    for m, row in enumerate(a.tolist()):
        for g, s, d in zip(gather.tolist(), scatter.tolist(), data.tolist()):
            out[m][s] += row[g] * d
    return np.array(out, dtype=np.float64).reshape(len(a), n_out)


def test_scatters_sum_in_edge_order():
    # bitwise, so the summation order that keeps output bytes stable is pinned;
    # magnitudes spread over 16 decades make any other order round differently
    rng = np.random.default_rng(13)
    seen = {"no edges": 0, "orthologless target": 0, "0 rows": 0, "1 row": 0, "long row": 0}
    for case in range(240):
        n_t, n_s = rng.integers(1, 12), rng.integers(1, 12)
        density = (0.0, 0.2, 0.5, 0.95)[case % 4]
        mask = random_mask(rng, n_t, n_s, density)
        data = rng.normal(0.0, 1.0, mask.n_edges) * 10.0 ** rng.uniform(-8, 8, mask.n_edges)
        k = (0, 1, 2, 5)[case // 4 % 4]
        xs = rng.normal(0.0, 1.0, (k, n_s)) * 10.0 ** rng.uniform(-8, 8, (k, n_s))
        upstream = rng.normal(0.0, 1.0, (k, n_t))
        rows, cols = mask.edge_rows, mask.edge_cols

        got = kernels.csr_matvec_batch(mask.indptr, cols, data, xs)
        assert np.array_equal(got, scatter_oracle(xs, cols, rows, data, n_t))
        got = kernels.dense_times_csr(rows, cols, data, upstream, n_s)
        assert np.array_equal(got, scatter_oracle(upstream, rows, cols, data, n_s))

        seen["no edges"] += mask.n_edges == 0
        seen["orthologless target"] += bool((mask.row_degrees() == 0).any())
        seen["0 rows"] += k == 0
        seen["1 row"] += k == 1
        seen["long row"] += bool((mask.row_degrees() >= 8).any())
    assert min(seen.values()) > 0, seen


def test_scatter_scratch_does_not_grow_with_the_batch():
    # about 2000 edges and 500 rows: a (rows x edges) intermediate would be 8 MB
    rng = np.random.default_rng(5)
    mask = random_mask(rng, 1000, 1000, 0.002)
    assert 1800 <= mask.n_edges <= 2200
    data = rng.normal(0.0, 1.0, mask.n_edges)
    xs = rng.normal(0.0, 1.0, (500, mask.n_sources))
    tracemalloc.start()
    try:
        out = kernels.csr_matvec_batch(mask.indptr, mask.edge_cols, data, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 2**20
