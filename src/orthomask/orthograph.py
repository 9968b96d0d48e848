"""Reciprocal-best-hit ortholog graph construction.

Builds the bipartite orthology mask from two directed similarity score
tables (target->source queries and source->target queries). Alignment
tools themselves are out of scope; scores arrive as precomputed tables,
and :func:`kmer_similarity` is provided as a self-contained stand-in
scorer for making fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, UnknownGeneError

SCORE_HEADER = "query\tsubject\tscore"
GRAPH_HEADER = "target_gene\tsource_gene"
GENE_LIST_HEADER = "gene_id"


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
            if (query, subject) in seen:
                raise ValueError(f"duplicate score entry ({query}, {subject})")
            seen.add((query, subject))
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
    pair as orthologous. Edges are kept in canonical row-major order and the
    CSR view used by the numeric kernels is derived once on construction.
    """

    def __init__(self, target_gene_ids, source_gene_ids, edges):
        self.target_gene_ids = tuple(target_gene_ids)
        self.source_gene_ids = tuple(source_gene_ids)
        if len(set(self.target_gene_ids)) != len(self.target_gene_ids):
            raise ValueError("duplicate target gene IDs")
        if len(set(self.source_gene_ids)) != len(self.source_gene_ids):
            raise ValueError("duplicate source gene IDs")

        n_t, n_s = len(self.target_gene_ids), len(self.source_gene_ids)
        raw = [(int(i), int(j)) for i, j in edges]
        edge_list = sorted(set(raw))
        if len(edge_list) != len(raw):
            raise ValueError("duplicate edges")
        for i, j in edge_list:
            if not (0 <= i < n_t and 0 <= j < n_s):
                raise ValueError(f"edge ({i}, {j}) out of range for {n_t}x{n_s} graph")

        self.edge_rows = np.array([i for i, _ in edge_list], dtype=np.int64)
        self.edge_cols = np.array([j for _, j in edge_list], dtype=np.int64)
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

    def dense(self) -> np.ndarray:
        """Materialize as a float64 {0,1} matrix."""
        out = np.zeros((self.n_targets, self.n_sources))
        out[self.edge_rows, self.edge_cols] = 1.0
        return out

    def target_index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.target_gene_ids)}

    def source_index(self) -> dict[str, int]:
        return {g: j for j, g in enumerate(self.source_gene_ids)}

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


def kmer_similarity(seq_a: str, seq_b: str, k: int) -> float:
    """Jaccard similarity of the two sequences' k-mer sets.

    Identical sequences score 1.0; if either sequence is shorter than k and
    the sequences differ, the score is 0.0. Symmetric in its arguments.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not seq_a or not seq_b:
        raise ValueError("sequences must be non-empty")
    if seq_a == seq_b:
        return 1.0
    kmers_a = {seq_a[i : i + k] for i in range(len(seq_a) - k + 1)}
    kmers_b = {seq_b[i : i + k] for i in range(len(seq_b) - k + 1)}
    if not kmers_a or not kmers_b:
        return 0.0
    return len(kmers_a & kmers_b) / len(kmers_a | kmers_b)


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
    seen = set()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != SCORE_HEADER:
            raise ParseError(f"expected header {SCORE_HEADER!r}, got {header!r}", path, 1)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}", path, lineno)
            query, subject, score_text = fields
            try:
                score = float(score_text)
            except ValueError:
                raise ParseError(f"non-numeric score {score_text!r}", path, lineno) from None
            if not math.isfinite(score) or score < 0.0:
                raise ParseError(f"score must be finite and >= 0, got {score_text}", path, lineno)
            if (query, subject) in seen:
                raise ParseError(f"duplicate entry ({query}, {subject})", path, lineno)
            seen.add((query, subject))
            entries.append((query, subject, score))
    return ScoreTable(query_species, subject_species, entries)


def write_score_table(table: ScoreTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SCORE_HEADER + "\n")
        for query, subject, score in table.entries:
            fh.write(f"{query}\t{subject}\t{score!r}\n")


def read_gene_list(path) -> list[str]:
    """Parse a gene universe file (header ``gene_id``, one ID per line)."""
    genes = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != GENE_LIST_HEADER:
            raise ParseError(f"expected header {GENE_LIST_HEADER!r}, got {header!r}", path, 1)
        for lineno, line in enumerate(fh, start=2):
            gene = line.rstrip("\n")
            if not gene:
                continue
            if "\t" in gene:
                raise ParseError("gene ID must be a single column", path, lineno)
            if gene in seen:
                raise ParseError(f"duplicate gene ID {gene!r}", path, lineno)
            seen.add(gene)
            genes.append(gene)
    return genes


def write_gene_list(gene_ids, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(GENE_LIST_HEADER + "\n")
        for gene in gene_ids:
            fh.write(gene + "\n")


def graph_to_tsv(graph: BiadjacencyMatrix, path) -> None:
    """Write the edge list (canonical row-major order), one edge per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(GRAPH_HEADER + "\n")
        for i, j in zip(graph.edge_rows.tolist(), graph.edge_cols.tolist()):
            fh.write(f"{graph.target_gene_ids[i]}\t{graph.source_gene_ids[j]}\n")


def tsv_to_graph(path, target_genes, source_genes) -> BiadjacencyMatrix:
    """Read an edge-list TSV against explicitly supplied gene universes."""
    t_index = {g: i for i, g in enumerate(target_genes)}
    s_index = {g: j for j, g in enumerate(source_genes)}
    edges = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != GRAPH_HEADER:
            raise ParseError(f"expected header {GRAPH_HEADER!r}, got {header!r}", path, 1)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"expected 2 tab-separated fields, got {len(fields)}", path, lineno)
            t_gene, s_gene = fields
            if t_gene not in t_index:
                raise ParseError(f"unknown target gene {t_gene!r}", path, lineno)
            if s_gene not in s_index:
                raise ParseError(f"unknown source gene {s_gene!r}", path, lineno)
            edge = (t_index[t_gene], s_index[s_gene])
            if edge in seen:
                raise ParseError(f"duplicate edge ({t_gene}, {s_gene})", path, lineno)
            seen.add(edge)
            edges.append(edge)
    return BiadjacencyMatrix(target_genes, source_genes, edges)
