"""Sparse (CSR) kernels for the hard-mode masked conversion layer.

The mask-constrained layer stores weights on the orthology support only, one
per edge in row-major order, so its products are edge operations rather than
dense matmuls. There are two, each written once in numpy float64 with a
fixed reduction order, so every call is deterministic:

- one scatter, ``out[m, scatter[e]] += a[m, gather[e]] * data[e]`` summed
  in edge order by ``np.bincount``. Scattering onto the columns gives
  :func:`dense_times_csr` (the fold of the layer into the frozen network's
  first layer); scattering onto the rows gives
  :func:`csr_matvec_batch` (the layer's forward pass in evaluation,
  prediction and synthetic labels).
- one gather-dot, :func:`edge_dot`, the gradient with respect to the edge
  weights.
"""

from __future__ import annotations

import numpy as np


def _edge_rows(indptr):
    return np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))


def _scatter(a, gather, scatter, data, n_out):
    """``out[m, scatter[e]] += a[m, gather[e]] * data[e]``; shape (k, n_out)."""
    k = a.shape[0]
    values = a[:, gather] * data
    slots = scatter + n_out * np.arange(k)[:, None]
    out = np.bincount(slots.ravel(), weights=values.ravel(), minlength=k * n_out)
    # with no edges bincount has nothing to sum and returns integer zeros
    return out.astype(np.float64, copy=False).reshape(k, n_out)


def dense_times_csr(indptr, indices, data, a, n_cols):
    """Dense ``a`` (k, n_rows) times the CSR matrix (n_rows, n_cols).

    ``out[m, j]`` sums ``a[m, row(e)] * data[e]`` over the edges e in column
    j, in edge order.
    """
    return _scatter(a, _edge_rows(indptr), indices, data, n_cols)


def edge_dot(indptr, indices, a, b):
    """Per-edge column dot product: ``sum_m a[m, row(e)] * b[m, indices[e]]``.

    ``a`` is (k, n_rows) and ``b`` is (k, n_cols); returns one value per edge.
    """
    return np.einsum("me,me->e", a[:, _edge_rows(indptr)], b[:, indices])


def csr_matvec_batch(indptr, indices, data, xs):
    """Row-compressed sparse times a batch of vectors.

    ``xs`` has shape (n_samples, n_cols); returns (n_samples, n_rows) with
    ``out[s, i] = sum_e data[e] * xs[s, indices[e]]`` over row i's entries,
    in edge order.
    """
    return _scatter(xs, indices, _edge_rows(indptr), data, indptr.shape[0] - 1)
