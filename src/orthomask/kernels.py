"""Sparse (CSR) kernels for the hard-mode masked conversion layer.

The mask-constrained layer stores weights on the orthology support only, one
per edge in row-major order, so its products are edge gathers and scatters
rather than dense matmuls. Each operation has one pure-numpy implementation
in float64 with a fixed reduction order, so every call is deterministic.

:func:`dense_times_csr` and :func:`edge_dot` are the two edge primitives:
the backward pass is built from them, and so is the fold of the layer into
the frozen network's first layer that conversion training runs on.
Evaluation and prediction use :func:`csr_matvec_batch`.
"""

from __future__ import annotations

import numpy as np


def _edge_rows(indptr):
    return np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))


def dense_times_csr(indptr, indices, data, a, n_cols):
    """Dense ``a`` (k, n_rows) times the CSR matrix (n_rows, n_cols).

    ``out[m, j]`` sums ``a[m, row(e)] * data[e]`` over the edges e in column
    j, in edge order.
    """
    k = a.shape[0]
    values = a[:, _edge_rows(indptr)] * data
    slots = indices + n_cols * np.arange(k)[:, None]
    out = np.bincount(slots.ravel(), weights=values.ravel(), minlength=k * n_cols)
    # with no edges bincount has nothing to sum and returns integer zeros
    return out.astype(np.float64, copy=False).reshape(k, n_cols)


def edge_dot(indptr, indices, a, b):
    """Per-edge column dot product: ``sum_m a[m, row(e)] * b[m, indices[e]]``.

    ``a`` is (k, n_rows) and ``b`` is (k, n_cols); returns one value per edge.
    """
    return np.einsum("me,me->e", a[:, _edge_rows(indptr)], b[:, indices])


def csr_matvec_batch(indptr, indices, data, xs):
    """Row-compressed sparse times a batch of vectors.

    ``xs`` has shape (n_samples, n_cols); returns (n_samples, n_rows) with
    ``out[s, i] = sum_e data[e] * xs[s, indices[e]]`` over row i's entries.
    """
    n_rows = indptr.shape[0] - 1
    out = np.zeros((xs.shape[0], n_rows))
    if data.shape[0] == 0:
        return out
    contrib = xs[:, indices] * data
    for i in range(n_rows):
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            out[:, i] = contrib[:, lo:hi].sum(axis=1)
    return out


def csr_backward_batch(indptr, indices, data, xs, upstream):
    """Gradients of ``csr_matvec_batch`` for a batch.

    Returns ``(grad_data, grad_xs)`` where ``grad_data[e]`` accumulates
    ``upstream[s, row(e)] * xs[s, indices[e]]`` over samples and ``grad_xs``
    is the transpose product ``upstream @ CSR``.
    """
    grad_data = edge_dot(indptr, indices, upstream, xs)
    grad_xs = dense_times_csr(indptr, indices, data, upstream, xs.shape[1])
    return grad_data, grad_xs
