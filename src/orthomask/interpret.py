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
from operator import itemgetter

import numpy as np

from .errors import UnknownGeneError
from .netcore import MODE_HARD, MaskedLinearLayer
from .tsv import first_true, float_column, read_table, write_table

WEIGHT_TABLE_HEADER = ("target_gene", "source_gene", "weight", "on_support")


@dataclass
class SupportSummary:
    on_mean_abs: float
    off_mean_abs: float
    on_count: int
    off_count: int


def _weight_columns(layer: MaskedLinearLayer, row: int | None = None):
    """Target index, source index, weight and on-support flag of every
    stored weight, or only of target index ``row``, in row-major order."""
    mask = layer.mask
    lo, hi = (0, mask.n_targets) if row is None else (row, row + 1)
    span = slice(mask.indptr[lo], mask.indptr[hi])
    rows, cols = mask.edge_rows[span], mask.edge_cols[span]
    if layer.mode == MODE_HARD:
        return rows, cols, layer.weights[span], np.ones(rows.size, dtype=bool)
    weights = layer.weights[lo:hi]
    on = np.zeros(weights.shape, dtype=bool)
    on[rows - lo, cols] = True
    targets, sources = np.indices(weights.shape)
    return (targets + lo).ravel(), sources.ravel(), weights.ravel(), on.ravel()


def _table_rows(layer: MaskedLinearLayer, row: int | None = None):
    """Weight-table tuples of :func:`_weight_columns`, in its order."""
    rows, cols, weights, on = _weight_columns(layer, row)
    t_ids = np.array(layer.mask.target_gene_ids, dtype=object)
    s_ids = np.array(layer.mask.source_gene_ids, dtype=object)
    return zip(t_ids[rows].tolist(), s_ids[cols].tolist(), weights.tolist(), on.tolist())


def weight_table(layer: MaskedLinearLayer) -> list[tuple[str, str, float, bool]]:
    """All stored weights, sorted by (target_gene_id, source_gene_id)."""
    return sorted(_table_rows(layer), key=lambda row: (row[0], row[1]))


def write_weight_rows(rows: list[tuple[str, str, float, bool]], path) -> None:
    """Write a list of ``(target_gene, source_gene, weight, on_support)``
    rows as a weight table TSV, in the order given."""
    weights = float_column(np.fromiter(map(itemgetter(2), rows), np.float64, len(rows)))
    records = (
        (t_gene, s_gene, weight, "true" if on_support else "false")
        for (t_gene, s_gene, _, on_support), weight in zip(rows, weights)
    )
    write_table(path, WEIGHT_TABLE_HEADER, records)


def export_weight_table(layer: MaskedLinearLayer, path) -> list[tuple[str, str, float, bool]]:
    """Write the weight table TSV; returns the rows written."""
    rows = weight_table(layer)
    write_weight_rows(rows, path)
    return rows


def read_weight_table(path) -> list[tuple[str, str, float, bool]]:
    table = read_table(path, WEIGHT_TABLE_HEADER, key_fields=2)
    texts, flags = table.column(2), table.column(3)
    weights, stop = table.floats(2)
    table.raise_first(
        (stop, lambda k: f"non-numeric weight {texts[k]!r}"),
        (first_true(~np.isfinite(weights)), lambda k: f"non-finite weight {texts[k]!r}"),
        (
            first_true(~np.isin(flags, ("true", "false"))),
            lambda k: f"on_support must be true or false, got {flags[k]!r}",
        ),
    )
    on_support = [flag == "true" for flag in flags]
    return list(zip(table.column(0), table.column(1), weights.tolist(), on_support))


def contributor_rows(
    layer: MaskedLinearLayer, target_gene_id: str, k: int
) -> list[tuple[str, str, float, bool]]:
    """Up to k weight-table rows of one target gene, strongest |weight| first.

    Ties break by ascending source gene ID, so the ordering is total.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    t_ids = layer.mask.target_gene_ids
    if target_gene_id not in t_ids:
        raise UnknownGeneError(f"unknown target gene {target_gene_id!r}")
    rows = _table_rows(layer, t_ids.index(target_gene_id))
    return sorted(rows, key=lambda row: (-abs(row[2]), row[1]))[:k]


def top_contributors(layer: MaskedLinearLayer, target_gene_id: str, k: int) -> list[tuple[str, float]]:
    """The ``(source_gene_id, weight)`` pairs of :func:`contributor_rows`."""
    return [(s_gene, weight) for _, s_gene, weight, _ in contributor_rows(layer, target_gene_id, k)]


def support_summary(layer: MaskedLinearLayer) -> SupportSummary:
    """Mean |weight| on and off the orthology support (hard mode stores no
    off-support weights, so that side reports count 0 and mean 0)."""
    _, _, weights, on = _weight_columns(layer)
    on_abs, off_abs = np.abs(weights[on]), np.abs(weights[~on])
    return SupportSummary(
        on_mean_abs=float(on_abs.mean()) if on_abs.size else 0.0,
        off_mean_abs=float(off_abs.mean()) if off_abs.size else 0.0,
        on_count=on_abs.size,
        off_count=off_abs.size,
    )
