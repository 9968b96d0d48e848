"""Read the learned conversion weights as a functional-orthology table.

A larger |weight| marks a stronger learned influence of a source gene on
a target gene's expression; the signed weight is always reported since
direction of effect is itself informative. Weights are reported raw,
not scaled by expression variance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, UnknownGeneError
from .modelio import float_repr
from .netcore import MODE_HARD, MaskedLinearLayer

WEIGHT_TABLE_HEADER = "target_gene\tsource_gene\tweight\ton_support"


@dataclass
class SupportSummary:
    on_mean_abs: float
    off_mean_abs: float
    on_count: int
    off_count: int


def _iter_weight_entries(layer: MaskedLinearLayer):
    """Yield (target_id, source_id, weight, on_support) for stored weights."""
    mask = layer.mask
    if layer.mode == MODE_HARD:
        for e in range(mask.n_edges):
            i, j = int(mask.edge_rows[e]), int(mask.edge_cols[e])
            yield mask.target_gene_ids[i], mask.source_gene_ids[j], float(layer.weights[e]), True
    else:
        support = mask.edge_set()
        for i, t_gene in enumerate(mask.target_gene_ids):
            for j, s_gene in enumerate(mask.source_gene_ids):
                yield t_gene, s_gene, float(layer.weights[i, j]), (i, j) in support


def weight_table(layer: MaskedLinearLayer) -> list[tuple[str, str, float, bool]]:
    """All stored weights, sorted by (target_gene_id, source_gene_id)."""
    return sorted(_iter_weight_entries(layer), key=lambda row: (row[0], row[1]))


def write_weight_rows(rows, path) -> None:
    """Write ``(target_gene, source_gene, weight, on_support)`` rows as a
    weight table TSV, in the order given."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(WEIGHT_TABLE_HEADER + "\n")
        for t_gene, s_gene, weight, on_support in rows:
            flag = "true" if on_support else "false"
            fh.write(f"{t_gene}\t{s_gene}\t{float_repr(weight)}\t{flag}\n")


def export_weight_table(layer: MaskedLinearLayer, path) -> list[tuple[str, str, float, bool]]:
    """Write the weight table TSV; returns the rows written."""
    rows = weight_table(layer)
    write_weight_rows(rows, path)
    return rows


def read_weight_table(path) -> list[tuple[str, str, float, bool]]:
    rows = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != WEIGHT_TABLE_HEADER:
            raise ParseError(f"expected header {WEIGHT_TABLE_HEADER!r}, got {header!r}", path, 1)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != 4:
                raise ParseError(f"expected 4 fields, got {len(cells)}", path, lineno)
            t_gene, s_gene, weight_text, flag = cells
            if (t_gene, s_gene) in seen:
                raise ParseError(f"duplicate pair ({t_gene}, {s_gene})", path, lineno)
            seen.add((t_gene, s_gene))
            try:
                weight = float(weight_text)
            except ValueError:
                raise ParseError(f"non-numeric weight {weight_text!r}", path, lineno) from None
            if flag not in ("true", "false"):
                raise ParseError(f"on_support must be true or false, got {flag!r}", path, lineno)
            rows.append((t_gene, s_gene, weight, flag == "true"))
    return rows


def contributor_rows(
    layer: MaskedLinearLayer, target_gene_id: str, k: int
) -> list[tuple[str, str, float, bool]]:
    """Up to k weight-table rows of one target gene, strongest |weight| first.

    Ties break by ascending source gene ID, so the ordering is total.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if target_gene_id not in layer.mask.target_gene_ids:
        raise UnknownGeneError(f"unknown target gene {target_gene_id!r}")
    rows = [row for row in _iter_weight_entries(layer) if row[0] == target_gene_id]
    rows.sort(key=lambda row: (-abs(row[2]), row[1]))
    return rows[:k]


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
