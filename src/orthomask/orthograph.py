"""Reciprocal-best-hit ortholog graph construction.

Builds the bipartite orthology mask from two directed similarity score
tables (target->source queries and source->target queries). Alignment
tools themselves are out of scope; scores arrive as precomputed tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, UnknownGeneError
from .tsv import float_repr, read_table, write_table

SCORE_HEADER = ("query", "subject", "score")
GRAPH_HEADER = ("target_gene", "source_gene")
GENE_LIST_HEADER = ("gene_id",)


@dataclass
class ScoreTable:
    """Directed pairwise similarity scores: one species' genes queried
    against another's."""

    query_species: str
    subject_species: str
    entries: list[tuple[str, str, float]] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for query, subject, score in self.entries:
            pair = (query, subject)
            if pair in seen:
                raise ValueError(f"duplicate score entry ({query}, {subject})")
            seen.add(pair)
            if not math.isfinite(score) or score < 0.0:
                raise ValueError(
                    f"score for ({query}, {subject}) must be finite and >= 0, got {score}"
                )


@dataclass
class RbhConfig:
    """Best-hit thresholds.

    A subject counts as a best hit for a query when its score is at least
    ``threshold`` and within ``tie_tolerance`` of the query's row maximum.
    ``tie_tolerance=0`` keeps strict maxima (still plural on exact ties).
    """

    threshold: float
    tie_tolerance: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.threshold) or self.threshold < 0.0:
            raise ValueError(f"threshold must be finite and >= 0, got {self.threshold}")
        if not math.isfinite(self.tie_tolerance) or self.tie_tolerance < 0.0:
            raise ValueError(
                f"tie_tolerance must be finite and >= 0, got {self.tie_tolerance}"
            )


class BiadjacencyMatrix:
    """Sparse {0,1} bipartite adjacency over (target gene, source gene) pairs.

    Rows index target genes, columns source genes; an edge (i, j) marks the
    pair as orthologous. ``edges`` is an iterable of (i, j) index pairs or
    an (E, 2) integer array. Edges are kept in canonical row-major order and
    the CSR view used by the numeric kernels is derived once on construction.
    """

    def __init__(self, target_gene_ids, source_gene_ids, edges):
        self.target_gene_ids = tuple(target_gene_ids)
        self.source_gene_ids = tuple(source_gene_ids)
        if len(set(self.target_gene_ids)) != len(self.target_gene_ids):
            raise ValueError("duplicate target gene IDs")
        if len(set(self.source_gene_ids)) != len(self.source_gene_ids):
            raise ValueError("duplicate source gene IDs")

        n_t, n_s = len(self.target_gene_ids), len(self.source_gene_ids)
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size == 0:
            pairs = np.zeros((0, 2), dtype=np.int64)
        # a cast would truncate 1.9 to 1; an int beyond int64 makes the
        # array float or object
        if pairs.dtype.kind not in "iu":
            raise ValueError("edge indices must be integers in int64 range")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (target, source) index pairs")
        pairs = pairs.astype(np.int64, copy=False)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        rows, cols = pairs[order, 0], pairs[order, 1]
        if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
            raise ValueError("duplicate edges")
        # a negative index would wrap in numpy indexing instead of failing
        bad = (rows < 0) | (rows >= n_t) | (cols < 0) | (cols >= n_s)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"edge ({rows[k]}, {cols[k]}) out of range for {n_t}x{n_s} graph")

        self.edge_rows, self.edge_cols = rows, cols
        counts = np.bincount(self.edge_rows, minlength=n_t)
        self.indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    @property
    def n_targets(self) -> int:
        return len(self.target_gene_ids)

    @property
    def n_sources(self) -> int:
        return len(self.source_gene_ids)

    @property
    def n_edges(self) -> int:
        return int(self.edge_rows.shape[0])

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self.edge_rows.tolist(), self.edge_cols.tolist()))

    def row_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def __eq__(self, other):
        if not isinstance(other, BiadjacencyMatrix):
            return NotImplemented
        return (
            self.target_gene_ids == other.target_gene_ids
            and self.source_gene_ids == other.source_gene_ids
            and np.array_equal(self.edge_rows, other.edge_rows)
            and np.array_equal(self.edge_cols, other.edge_cols)
        )

    def __repr__(self):
        return (
            f"BiadjacencyMatrix({self.n_targets}x{self.n_sources}, "
            f"{self.n_edges} edges)"
        )


def best_hits(scores: ScoreTable, cfg: RbhConfig) -> dict[str, set[str]]:
    """Per-query best-hit subject sets.

    A subject qualifies when its score clears both the absolute threshold
    and the query's row maximum minus the tie tolerance. Queries with no
    qualifying subject are omitted.
    """
    row_max: dict[str, float] = {}
    for query, _, score in scores.entries:
        if score > row_max.get(query, -math.inf):
            row_max[query] = score

    hits: dict[str, set[str]] = {}
    for query, subject, score in scores.entries:
        if score >= cfg.threshold and score >= row_max[query] - cfg.tie_tolerance:
            hits.setdefault(query, set()).add(subject)
    return hits


def build_rbh_graph(
    scores_tq: ScoreTable,
    scores_qt: ScoreTable,
    cfg: RbhConfig,
    target_genes,
    source_genes,
) -> BiadjacencyMatrix:
    """Reciprocal-best-hit bipartite graph.

    ``scores_tq`` holds target-gene queries against source subjects,
    ``scores_qt`` the reverse direction. Edge (i, j) appears iff source
    gene j is a best hit of target gene i and target gene i is a best hit
    of source gene j; many-to-many edges are permitted.
    """
    target_genes = list(target_genes)
    source_genes = list(source_genes)
    t_index = {g: i for i, g in enumerate(target_genes)}
    s_index = {g: j for j, g in enumerate(source_genes)}
    if len(t_index) != len(target_genes):
        raise ValueError("duplicate target gene IDs")
    if len(s_index) != len(source_genes):
        raise ValueError("duplicate source gene IDs")

    for query, subject, _ in scores_tq.entries:
        if query not in t_index:
            raise UnknownGeneError(f"query gene {query!r} not in target gene list")
        if subject not in s_index:
            raise UnknownGeneError(f"subject gene {subject!r} not in source gene list")
    for query, subject, _ in scores_qt.entries:
        if query not in s_index:
            raise UnknownGeneError(f"query gene {query!r} not in source gene list")
        if subject not in t_index:
            raise UnknownGeneError(f"subject gene {subject!r} not in target gene list")

    hits_tq = best_hits(scores_tq, cfg)
    hits_qt = best_hits(scores_qt, cfg)

    edges = []
    for t_gene, subjects in hits_tq.items():
        for s_gene in subjects:
            if t_gene in hits_qt.get(s_gene, ()):
                edges.append((t_index[t_gene], s_index[s_gene]))
    return BiadjacencyMatrix(target_genes, source_genes, edges)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def read_score_table(path, query_species: str = "", subject_species: str = "") -> ScoreTable:
    """Parse a score TSV (header ``query<TAB>subject<TAB>score``)."""
    entries = []
    rows = read_table(path, SCORE_HEADER, key_fields=2)
    next(rows)
    for lineno, (query, subject, score_text) in rows:
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"non-numeric score {score_text!r}", path, lineno) from None
        if not math.isfinite(score) or score < 0.0:
            raise ParseError(f"score must be finite and >= 0, got {score_text}", path, lineno)
        entries.append((query, subject, score))
    return ScoreTable(query_species, subject_species, entries)


def write_score_table(table: ScoreTable, path) -> None:
    records = ((query, subject, float_repr(score)) for query, subject, score in table.entries)
    write_table(path, SCORE_HEADER, records)


def read_gene_list(path) -> list[str]:
    """Parse a gene universe file (header ``gene_id``, one ID per line)."""
    rows = read_table(path, GENE_LIST_HEADER)
    next(rows)
    return [gene for _, (gene,) in rows]


def write_gene_list(gene_ids, path) -> None:
    write_table(path, GENE_LIST_HEADER, ((gene,) for gene in gene_ids))


def graph_to_tsv(graph: BiadjacencyMatrix, path) -> None:
    """Write the edge list (canonical row-major order), one edge per line."""
    t_ids, s_ids = graph.target_gene_ids, graph.source_gene_ids
    edges = zip(graph.edge_rows.tolist(), graph.edge_cols.tolist())
    write_table(path, GRAPH_HEADER, ((t_ids[i], s_ids[j]) for i, j in edges))


def tsv_to_graph(path, target_genes, source_genes) -> BiadjacencyMatrix:
    """Read an edge-list TSV against explicitly supplied gene universes."""
    t_index = {g: i for i, g in enumerate(target_genes)}
    s_index = {g: j for j, g in enumerate(source_genes)}
    edges = []
    rows = read_table(path, GRAPH_HEADER, key_fields=2)
    next(rows)
    for lineno, (t_gene, s_gene) in rows:
        if t_gene not in t_index:
            raise ParseError(f"unknown target gene {t_gene!r}", path, lineno)
        if s_gene not in s_index:
            raise ParseError(f"unknown source gene {s_gene!r}", path, lineno)
        edges.append((t_index[t_gene], s_index[s_gene]))
    return BiadjacencyMatrix(target_genes, source_genes, edges)
