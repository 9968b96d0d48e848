"""Read the learned conversion weights as a functional-orthology table.

A larger |weight| marks a stronger learned influence of a source gene on
a target gene's expression; the signed weight is always reported since
direction of effect is itself informative. Weights are reported raw,
not scaled by expression variance.

A weight is on-support when its (target, source) pair is an edge of the
layer's orthology mask. Hard mode stores only those weights, so every row
is on-support; soft mode stores the dense matrix, whose non-edge entries
are off-support. :func:`support_summary` means are numpy's pairwise sums
divided by the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import UnknownGeneError
from .netcore import MODE_HARD, MaskedLinearLayer
from .tsv import FLOAT_CHUNK, Factorized, id_column, write_table

WEIGHT_TABLE_HEADER = ("target_gene", "source_gene", "weight", "on_support")
# the on_support cell, by its flag (0 or 1)
_FLAGS = ("false", "true")


@dataclass
class SupportSummary:
    on_mean_abs: float
    off_mean_abs: float
    on_count: int
    off_count: int


def write_weight_rows(rows: list[tuple[str, str, float, bool]], path) -> None:
    """Write a list of ``(target_gene, source_gene, weight, on_support)``
    rows as a weight table TSV, in the order given."""
    targets, sources, weights, on = zip(*rows) if rows else ((),) * 4
    flags = Factorized(_FLAGS, np.array(on, np.intp))
    write_table(path, WEIGHT_TABLE_HEADER, [(id_column(targets), id_column(sources), weights, flags)])


def _str_order(ids: tuple[str, ...]) -> np.ndarray:
    """The indices of ``ids`` in Python ``str`` order."""
    # not through a numpy str array, which drops an ID's trailing NULs
    return np.fromiter(sorted(range(len(ids)), key=ids.__getitem__), np.intp, len(ids))


def _table_chunks(layer: MaskedLinearLayer):
    """The table's rows in table order, as chunks of its four columns for
    :func:`tsv.write_table`, ``FLOAT_CHUNK`` rows at a time (in soft mode,
    whole target rows at a time, at least one)."""
    mask = layer.mask
    t_ids, s_ids = mask.target_gene_ids, mask.source_gene_ids
    t_order, s_order = _str_order(t_ids), _str_order(s_ids)
    rows, cols, n_s = mask.edge_rows, mask.edge_cols, mask.n_sources
    if layer.mode == MODE_HARD:
        # each edge's key from the genes' ranks: the edges are distinct, so
        # are their keys, and any sort gives one order
        order = np.argsort(np.argsort(t_order)[rows] * n_s + np.argsort(s_order)[cols])
        for k in range(0, order.size, FLOAT_CHUNK):
            at = order[k : k + FLOAT_CHUNK]
            on = Factorized(_FLAGS, np.ones(at.size, np.intp))
            yield Factorized(t_ids, rows[at]), Factorized(s_ids, cols[at]), layer.weights[at], on
        return
    block = max(1, FLOAT_CHUNK // max(1, n_s))
    for k in range(0, mask.n_targets, block):
        targets = t_order[k : k + block]
        on = np.zeros((targets.size, n_s), dtype=np.intp)
        for row, i in enumerate(targets):
            on[row, cols[mask.indptr[i] : mask.indptr[i + 1]]] = 1
        yield (
            Factorized(t_ids, np.repeat(targets, n_s)),
            Factorized(s_ids, np.tile(s_order, targets.size)),
            layer.weights[np.ix_(targets, s_order)].ravel(),
            Factorized(_FLAGS, on[:, s_order].ravel()),
        )


def export_weight_table(layer: MaskedLinearLayer, path) -> range:
    """Write the weight table TSV: every stored weight, sorted by
    (target_gene_id, source_gene_id), one chunk of :func:`_table_chunks` at
    a time. Returns a range as long as the rows written."""
    write_table(path, WEIGHT_TABLE_HEADER, _table_chunks(layer))
    return range(layer.weights.size)


def contributor_rows(
    layer: MaskedLinearLayer, target_gene_id: str, k: int
) -> list[tuple[str, str, float, bool]]:
    """Up to k weight-table rows of one target gene, strongest |weight| first.

    Ties break by ascending source gene ID, so the ordering is total.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    try:
        row = layer.mask.target_gene_ids.index(target_gene_id)
    except ValueError:
        raise UnknownGeneError(f"unknown target gene {target_gene_id!r}") from None
    mask = layer.mask
    span = slice(mask.indptr[row], mask.indptr[row + 1])
    if layer.mode == MODE_HARD:
        cols, weights, on = mask.edge_cols[span].tolist(), layer.weights[span], repeat(True)
    else:
        cols, weights = range(mask.n_sources), layer.weights[row]
        on = np.isin(cols, mask.edge_cols[span]).tolist()
    table = zip(repeat(target_gene_id), map(mask.source_gene_ids.__getitem__, cols), weights.tolist(), on)
    return sorted(table, key=lambda row: (-abs(row[2]), row[1]))[:k]


def support_summary(layer: MaskedLinearLayer) -> SupportSummary:
    """Mean |weight| on and off the orthology support (hard mode stores no
    off-support weights, so that side reports count 0 and mean 0)."""
    on = np.full(layer.weights.shape, layer.mode == MODE_HARD)
    if layer.mode != MODE_HARD:
        on[layer.mask.edge_rows, layer.mask.edge_cols] = True
    on_abs, off_abs = np.abs(layer.weights[on]), np.abs(layer.weights[~on])
    return SupportSummary(
        on_mean_abs=float(on_abs.mean()) if on_abs.size else 0.0,
        off_mean_abs=float(off_abs.mean()) if off_abs.size else 0.0,
        on_count=on_abs.size,
        off_count=off_abs.size,
    )
