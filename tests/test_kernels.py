import numpy as np

from orthomask import kernels

from _helpers import random_mask


def random_csr(rng, n_t=9, n_s=11, density=0.4):
    mask = random_mask(rng, n_t, n_s, density)
    data = rng.normal(0.0, 1.0, mask.n_edges)
    return mask, data


def test_matvec_against_dense():
    rng = np.random.default_rng(3)
    for _ in range(30):
        mask, data = random_csr(rng)
        xs = rng.normal(0.0, 1.0, (4, mask.n_sources))
        dense = np.zeros((mask.n_targets, mask.n_sources))
        dense[mask.edge_rows, mask.edge_cols] = data
        got = kernels.csr_matvec_batch(mask.indptr, mask.edge_cols, data, xs)
        assert np.max(np.abs(got - xs @ dense.T)) <= 1e-12


def test_backward_against_dense():
    rng = np.random.default_rng(4)
    for _ in range(30):
        mask, data = random_csr(rng)
        xs = rng.normal(0.0, 1.0, (5, mask.n_sources))
        upstream = rng.normal(0.0, 1.0, (5, mask.n_targets))
        grad_data, grad_xs = kernels.csr_backward_batch(
            mask.indptr, mask.edge_cols, data, xs, upstream
        )
        dense = np.zeros((mask.n_targets, mask.n_sources))
        dense[mask.edge_rows, mask.edge_cols] = data
        full_grad = upstream.T @ xs
        assert np.max(np.abs(grad_xs - upstream @ dense)) <= 1e-12
        expected = full_grad[mask.edge_rows, mask.edge_cols]
        assert np.max(np.abs(grad_data - expected)) <= 1e-12


def test_empty_support():
    indptr = np.zeros(4, dtype=np.int64)
    indices = np.zeros(0, dtype=np.int64)
    data = np.zeros(0)
    xs = np.ones((2, 5))
    out = kernels.csr_matvec_batch(indptr, indices, data, xs)
    assert out.shape == (2, 3)
    assert not out.any()
    grad_data, grad_xs = kernels.csr_backward_batch(indptr, indices, data, xs, np.ones((2, 3)))
    assert grad_data.shape == (0,)
    assert grad_xs.shape == (2, 5) and grad_xs.dtype == np.float64
    assert not grad_xs.any()
