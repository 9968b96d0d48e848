"""Sparse (CSR) kernels for the hard-mode masked conversion layer.

The mask-constrained layer stores weights on the orthology support only, one
per edge in row-major order, so its products are edge operations rather than
dense matmuls. There are two, each written once in numpy float64 with a
fixed reduction order, so every call is deterministic:

- one scatter product, :func:`dense_times_csr`, run by ``np.bincount`` one
  row of the dense factor at a time: each output sums its edges in edge
  order, and scratch memory is O(edges) whatever the batch size. It folds
  the layer into the frozen network's first layer. The layer's forward pass
  in evaluation, prediction and synthetic labels, :func:`csr_matvec_batch`,
  is the same product with the transpose, whose edge e sits at
  ``(col[e], row[e])``.
- one gather-dot, :func:`edge_dot`, the gradient with respect to the edge
  weights.
"""

from __future__ import annotations

import numpy as np


def dense_times_csr(rows, cols, data, a, n_cols):
    """Dense ``a`` (k, n_rows) times the sparse matrix (n_rows, n_cols) whose
    edge e sits at ``(rows[e], cols[e])``.

    ``out[m, j]`` sums ``a[m, rows[e]] * data[e]`` over the edges e in column
    j, in edge order.
    """
    out = np.zeros((a.shape[0], n_cols))
    for m, row in enumerate(a):
        out[m] = np.bincount(cols, weights=row[rows] * data, minlength=n_cols)
    return out


def edge_dot(rows, cols, a, b):
    """Per-edge column dot product: ``sum_m a[m, rows[e]] * b[m, cols[e]]``.

    ``a`` is (k, n_rows) and ``b`` is (k, n_cols); returns one value per edge.
    """
    return np.einsum("me,me->e", a[:, rows], b[:, cols])


def csr_matvec_batch(indptr, indices, data, xs):
    """Row-compressed sparse times a batch of vectors.

    ``xs`` has shape (n_samples, n_cols); returns (n_samples, n_rows) with
    ``out[s, i] = sum_e data[e] * xs[s, indices[e]]`` over row i's entries,
    in edge order.
    """
    n_rows = indptr.shape[0] - 1
    rows = np.repeat(np.arange(n_rows), np.diff(indptr))
    return dense_times_csr(indices, rows, data, xs, n_rows)
