"""Reciprocal-best-hit ortholog graph construction.

Builds the bipartite orthology mask from two directed similarity score
tables (target->source queries and source->target queries). Alignment
tools themselves are out of scope; scores arrive as precomputed tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import UnknownGeneError, real_field
from .tsv import (
    Factorized,
    factorize,
    first_repeat,
    first_true,
    id_column,
    read_table,
    write_table,
)

SCORE_HEADER = ("query", "subject", "score")
GRAPH_HEADER = ("target_gene", "source_gene")
GENE_LIST_HEADER = ("gene_id",)


class ScoreTable:
    """Directed pairwise similarity scores: one species' genes queried
    against another's.

    The records are stored as columns: ``queries`` and ``subjects``
    factorized (distinct gene IDs plus an int64 code per record) and
    ``scores`` a float64 array, all read-only. ``entries`` returns them
    as a new list of ``(query, subject, score)`` triples. A table built
    from ``entries`` is checked: no (query, subject) pair twice, and every
    score finite and >= 0.
    """

    def __init__(self, query_species: str, subject_species: str, entries=()):
        entries = list(entries)
        queries, subjects, scores = (list(map(itemgetter(k), entries)) for k in range(3))
        try:
            values = np.array(scores)
        except ValueError:  # a sequence among numbers
            values = np.array(scores, dtype=object)
        if values.dtype.kind not in "biuf" or values.ndim != 1:
            raise TypeError("scores must be real numbers")
        self._assign(
            query_species, subject_species, factorize(queries), factorize(subjects),
            values.astype(np.float64),
        )
        # the first bad record in entry order; a repeated pair before its score
        pair = first_repeat(self.queries, self.subjects)
        bad = first_true(~(np.isfinite(self.scores) & (self.scores >= 0.0)))
        if pair is not None and (bad is None or pair <= bad):
            raise ValueError(f"duplicate score entry ({queries[pair]}, {subjects[pair]})")
        if bad is not None:
            raise ValueError(
                f"score for ({queries[bad]}, {subjects[bad]}) must be finite and >= 0, got {scores[bad]}"
            )

    @classmethod
    def _of_columns(cls, queries, subjects, scores):
        """A table of columns already known to meet the checks."""
        table = cls.__new__(cls)
        table._assign("", "", queries, subjects, scores)
        return table

    def _assign(self, query_species, subject_species, queries, subjects, scores):
        for array in (queries.codes, subjects.codes, scores):
            array.flags.writeable = False
        self.query_species, self.subject_species = query_species, subject_species
        self.queries, self.subjects, self.scores = queries, subjects, scores

    @property
    def entries(self) -> list[tuple[str, str, float]]:
        """The records as ``(query, subject, score)`` triples, in order."""
        return list(zip(self.queries.decoded(), self.subjects.decoded(), self.scores.tolist()))


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
        for name in ("threshold", "tie_tolerance"):
            setattr(self, name, real_field(name, getattr(self, name)))
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
        # array float or object, or uint64 that the cast would wrap
        too_big = pairs.dtype.kind == "u" and pairs.max() > np.iinfo(np.int64).max
        if pairs.dtype.kind not in "iu" or too_big:
            raise ValueError("edge indices must be integers in int64 range")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (target, source) index pairs")
        pairs = pairs.astype(np.int64, copy=False)
        rows, cols = pairs[:, 0], pairs[:, 1]
        # edges every writer emits are strictly increasing in row-major
        # order, so hold no duplicate; only other edges are sorted and checked
        r0, r1, c0, c1 = rows[:-1], rows[1:], cols[:-1], cols[1:]
        if np.all((r1 > r0) | ((r1 == r0) & (c1 > c0))):
            # copies: a (1, 2) array's column view counts as contiguous, so
            # np.ascontiguousarray would share the caller's memory
            rows, cols = rows.copy(), cols.copy()
        else:
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
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


def _gene_codes(column: Factorized, genes: tuple) -> np.ndarray:
    """Each entry's position in ``genes``; a code of ``len(genes)`` or more
    names a gene that is not there."""
    if column.names[: len(genes)] == genes:
        # read against this gene list, whose names then come first
        return column.codes
    return factorize(list(column.names), genes).codes[column.codes]


def _indexed(table: ScoreTable, query_genes: tuple, subject_genes: tuple, q_side: str, s_side: str):
    """Each record's query and subject index in the gene lists; the first
    record naming an unknown gene raises, its query checked before its
    subject."""
    q = _gene_codes(table.queries, query_genes)
    s = _gene_codes(table.subjects, subject_genes)
    n_q, n_s = len(query_genes), len(subject_genes)
    k = first_true((q >= n_q) | (s >= n_s))
    if k is not None:
        if q[k] >= n_q:
            query = table.queries.names[table.queries.codes[k]]
            raise UnknownGeneError(f"query gene {query!r} not in {q_side} gene list")
        subject = table.subjects.names[table.subjects.codes[k]]
        raise UnknownGeneError(f"subject gene {subject!r} not in {s_side} gene list")
    return q, s


def _best_hit_mask(q, scores, n_queries: int, cfg: RbhConfig) -> np.ndarray:
    """Which records are best hits: the score clears both the absolute
    threshold and its query's row maximum minus the tie tolerance."""
    row_max = np.full(n_queries, -np.inf)
    np.maximum.at(row_max, q, scores)
    return (scores >= cfg.threshold) & (scores >= row_max[q] - cfg.tie_tolerance)


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
    target_genes = tuple(target_genes)
    source_genes = tuple(source_genes)
    n_t, n_s = len(target_genes), len(source_genes)
    t_fwd, s_fwd = _indexed(scores_tq, target_genes, source_genes, "target", "source")
    s_rev, t_rev = _indexed(scores_qt, source_genes, target_genes, "source", "target")
    fwd = _best_hit_mask(t_fwd, scores_tq.scores, n_t, cfg)
    rev = _best_hit_mask(s_rev, scores_qt.scores, n_s, cfg)
    # an edge is a pair key t*width + s that is a best hit both ways; the
    # keys of one side are distinct, as a table holds no pair twice
    width = max(n_s, 1)
    keys = np.intersect1d(
        t_fwd[fwd] * width + s_fwd[fwd], t_rev[rev] * width + s_rev[rev], assume_unique=True
    )
    return BiadjacencyMatrix(target_genes, source_genes, np.column_stack(np.divmod(keys, width)))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def read_score_table(path, query_genes=(), subject_genes=()) -> ScoreTable:
    """Parse a score TSV (header ``query<TAB>subject<TAB>score``).

    The query and subject columns are factorized against ``query_genes``
    and ``subject_genes`` (see :func:`tsv.factorize`), so an ID in its gene
    list costs one dict lookup; without gene lists, the codes follow first
    appearance. The entries read are the same either way.
    """
    table = read_table(path, SCORE_HEADER, key_fields=2, vocabularies=(query_genes, subject_genes))
    texts = table.column(2)
    scores, stop = table.floats(2)
    table.raise_first(
        (stop, lambda k: f"non-numeric score {texts[k]!r}"),
        (
            first_true(~(np.isfinite(scores) & (scores >= 0.0))),
            lambda k: f"score must be finite and >= 0, got {texts[k]}",
        ),
    )
    # the reader checked what the constructor would: distinct pairs, scores
    return ScoreTable._of_columns(*table.keys, scores)


def write_score_table(table: ScoreTable, path) -> None:
    write_table(path, SCORE_HEADER, [(table.queries, table.subjects, table.scores)])


def read_gene_list(path) -> list[str]:
    """Parse a gene universe file (header ``gene_id``, one ID per line)."""
    return list(read_table(path, GENE_LIST_HEADER).keys[0].names)


def write_gene_list(gene_ids, path) -> None:
    write_table(path, GENE_LIST_HEADER, [(id_column(gene_ids),)])


def graph_to_tsv(graph: BiadjacencyMatrix, path) -> None:
    """Write the edge list (canonical row-major order), one edge per line."""
    targets = Factorized(graph.target_gene_ids, graph.edge_rows)
    write_table(path, GRAPH_HEADER, [(targets, Factorized(graph.source_gene_ids, graph.edge_cols))])


def tsv_to_graph(path, target_genes, source_genes) -> BiadjacencyMatrix:
    """Read an edge-list TSV against explicitly supplied gene universes."""
    table = read_table(path, GRAPH_HEADER, key_fields=2, vocabularies=(target_genes, source_genes))
    # a gene list's IDs are coded by position, and only unknown IDs after it
    t, s = (f.codes for f in table.keys)
    table.raise_first(
        (first_true(t >= len(target_genes)), lambda k: f"unknown target gene {table.column(0)[k]!r}"),
        (first_true(s >= len(source_genes)), lambda k: f"unknown source gene {table.column(1)[k]!r}"),
    )
    return BiadjacencyMatrix(target_genes, source_genes, np.column_stack((t, s)))
