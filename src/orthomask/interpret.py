"""Read the learned conversion weights as a functional-orthology table.

A larger |weight| marks a stronger learned influence of a source gene on
a target gene's expression; the signed weight is always reported since
direction of effect is itself informative. Weights are reported raw,
not scaled by expression variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownGeneError
from .netcore import MODE_HARD, MaskedLinearLayer
from .tsv import first_true, float_repr, parse_numbers, read_table, write_table

WEIGHT_TABLE_HEADER = ("target_gene", "source_gene", "weight", "on_support")


@dataclass
class SupportSummary:
    on_mean_abs: float
    off_mean_abs: float
    on_count: int
    off_count: int


def _iter_weight_entries(layer: MaskedLinearLayer, row: int | None = None):
    """Yield (target_id, source_id, weight, on_support) for stored weights,
    of every target gene or only of target index ``row``."""
    mask = layer.mask
    t_ids, s_ids = mask.target_gene_ids, mask.source_gene_ids
    if layer.mode == MODE_HARD:
        span = slice(None) if row is None else slice(mask.indptr[row], mask.indptr[row + 1])
        edges = (mask.edge_rows[span], mask.edge_cols[span], layer.weights[span])
        for i, j, weight in zip(*(a.tolist() for a in edges)):
            yield t_ids[i], s_ids[j], weight, True
    else:
        for i in range(mask.n_targets) if row is None else (row,):
            on = set(mask.edge_cols[mask.indptr[i] : mask.indptr[i + 1]].tolist())
            for j, weight in enumerate(layer.weights[i].tolist()):
                yield t_ids[i], s_ids[j], weight, j in on


def weight_table(layer: MaskedLinearLayer) -> list[tuple[str, str, float, bool]]:
    """All stored weights, sorted by (target_gene_id, source_gene_id)."""
    return sorted(_iter_weight_entries(layer), key=lambda row: (row[0], row[1]))


def write_weight_rows(rows, path) -> None:
    """Write ``(target_gene, source_gene, weight, on_support)`` rows as a
    weight table TSV, in the order given."""
    records = (
        (t_gene, s_gene, float_repr(weight), "true" if on_support else "false")
        for t_gene, s_gene, weight, on_support in rows
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
    weights, stop = parse_numbers(texts)
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
    rows = _iter_weight_entries(layer, t_ids.index(target_gene_id))
    return sorted(rows, key=lambda row: (-abs(row[2]), row[1]))[:k]


def top_contributors(layer: MaskedLinearLayer, target_gene_id: str, k: int) -> list[tuple[str, float]]:
    """The ``(source_gene_id, weight)`` pairs of :func:`contributor_rows`."""
    return [(s_gene, weight) for _, s_gene, weight, _ in contributor_rows(layer, target_gene_id, k)]


def support_summary(layer: MaskedLinearLayer) -> SupportSummary:
    """Mean |weight| on and off the orthology support (hard mode stores no
    off-support weights, so that side reports count 0 and mean 0)."""
    on_total = off_total = 0.0
    on_count = off_count = 0
    for _, _, weight, on_support in _iter_weight_entries(layer):
        if on_support:
            on_total += abs(weight)
            on_count += 1
        else:
            off_total += abs(weight)
            off_count += 1
    return SupportSummary(
        on_mean_abs=on_total / on_count if on_count else 0.0,
        off_mean_abs=off_total / off_count if off_count else 0.0,
        on_count=on_count,
        off_count=off_count,
    )
