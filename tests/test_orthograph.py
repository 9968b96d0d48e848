import numpy as np
import pytest

from orthomask.errors import ParseError, UnknownGeneError
from orthomask.orthograph import (
    BiadjacencyMatrix,
    RbhConfig,
    ScoreTable,
    best_hits,
    build_rbh_graph,
    graph_to_tsv,
    read_gene_list,
    read_score_table,
    tsv_to_graph,
    write_gene_list,
    write_score_table,
)

from _helpers import kmer_similarity, random_mask, random_score_instance, rbh_brute_force


def table(entries):
    return ScoreTable("target_sp", "source_sp", entries)


class TestKmerSimilarity:
    def test_identical(self):
        assert kmer_similarity("ACGT", "ACGT", 2) == 1.0

    def test_disjoint(self):
        assert kmer_similarity("AAAA", "CCCC", 2) == 0.0

    def test_overlap(self):
        # {AC,CG,GT} vs {CG,GT,TA}: 2 shared of 4 total
        assert kmer_similarity("ACGT", "CGTA", 2) == 0.5

    def test_short_sequences(self):
        assert kmer_similarity("AC", "ACG", 5) == 0.0
        assert kmer_similarity("AC", "AC", 5) == 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            kmer_similarity("ACGT", "ACGT", 0)
        with pytest.raises(ValueError):
            kmer_similarity("", "ACGT", 2)
        with pytest.raises(ValueError):
            kmer_similarity("ACGT", "", 2)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(5)
        alphabet = "ACGT"
        for _ in range(200):
            a = "".join(alphabet[k] for k in rng.integers(0, 4, rng.integers(1, 12)))
            b = "".join(alphabet[k] for k in rng.integers(0, 4, rng.integers(1, 12)))
            k = int(rng.integers(1, 5))
            sim = kmer_similarity(a, b, k)
            assert 0.0 <= sim <= 1.0
            assert sim == kmer_similarity(b, a, k)


class TestBestHits:
    def test_clear_winner(self):
        hits = best_hits(table([("q1", "s1", 0.9), ("q1", "s2", 0.3)]), RbhConfig(0.5))
        assert hits == {"q1": {"s1"}}

    def test_all_below_threshold(self):
        assert best_hits(table([("q1", "s1", 0.4)]), RbhConfig(0.5)) == {}

    def test_exact_tie_keeps_both(self):
        hits = best_hits(table([("q1", "s1", 0.9), ("q1", "s2", 0.9)]), RbhConfig(0.5))
        assert hits == {"q1": {"s1", "s2"}}

    def test_threshold_boundary_inclusive(self):
        assert best_hits(table([("q1", "s1", 0.5)]), RbhConfig(0.5)) == {"q1": {"s1"}}

    def test_tie_tolerance_widens(self):
        entries = [("q1", "s1", 0.9), ("q1", "s2", 0.8)]
        assert best_hits(table(entries), RbhConfig(0.5, 0.0)) == {"q1": {"s1"}}
        assert best_hits(table(entries), RbhConfig(0.5, 0.1)) == {"q1": {"s1", "s2"}}


class TestScoreTableInvariants:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            table([("q1", "s1", 0.5), ("q1", "s1", 0.6)])

    def test_negative_score_rejected(self):
        with pytest.raises(ValueError):
            table([("q1", "s1", -0.1)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            table([("q1", "s1", float("nan"))])


class TestBuildRbhGraph:
    def test_reciprocal_edge(self):
        graph = build_rbh_graph(
            table([("t1", "s1", 0.9)]),
            table([("s1", "t1", 0.8)]),
            RbhConfig(0.5),
            ["t1"],
            ["s1"],
        )
        assert graph.edge_set() == {(0, 0)}

    def test_non_reciprocal_rejected(self):
        # s1's best hit is t2, so (t1, s1) must not appear
        graph = build_rbh_graph(
            table([("t1", "s1", 0.9)]),
            table([("s1", "t2", 0.9), ("s1", "t1", 0.6)]),
            RbhConfig(0.5),
            ["t1", "t2"],
            ["s1"],
        )
        assert graph.edge_set() == set()

    def test_empty_tables(self):
        graph = build_rbh_graph(table([]), table([]), RbhConfig(0.5), ["t1"], ["s1"])
        assert graph.edge_set() == set()

    def test_unknown_gene(self):
        with pytest.raises(UnknownGeneError):
            build_rbh_graph(
                table([("mystery", "s1", 0.9)]), table([]), RbhConfig(0.5), ["t1"], ["s1"]
            )
        with pytest.raises(UnknownGeneError):
            build_rbh_graph(
                table([]), table([("s1", "mystery", 0.9)]), RbhConfig(0.5), ["t1"], ["s1"]
            )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            tq, qt, thr, tol, tg, sg = random_score_instance(rng, 10, 12)
            graph = build_rbh_graph(
                table(tq), ScoreTable("source_sp", "target_sp", qt), RbhConfig(thr, tol), tg, sg
            )
            assert graph.edge_set() == rbh_brute_force(tq, qt, thr, tol, tg, sg)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            tq, qt, thr, tol, tg, sg = random_score_instance(rng, 8, 8)
            qt_table = ScoreTable("source_sp", "target_sp", qt)
            lo = build_rbh_graph(table(tq), qt_table, RbhConfig(thr, tol), tg, sg)
            hi = build_rbh_graph(table(tq), qt_table, RbhConfig(thr + 0.2, tol), tg, sg)
            assert hi.edge_set() <= lo.edge_set()

    def test_tie_tolerance_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            tq, qt, thr, tol, tg, sg = random_score_instance(rng, 8, 8)
            qt_table = ScoreTable("source_sp", "target_sp", qt)
            narrow = build_rbh_graph(table(tq), qt_table, RbhConfig(thr, tol), tg, sg)
            wide = build_rbh_graph(table(tq), qt_table, RbhConfig(thr, tol + 0.2), tg, sg)
            assert narrow.edge_set() <= wide.edge_set()

    def test_reciprocity_of_output(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            tq, qt, thr, tol, tg, sg = random_score_instance(rng, 8, 8)
            cfg = RbhConfig(thr, tol)
            tq_table = table(tq)
            qt_table = ScoreTable("source_sp", "target_sp", qt)
            graph = build_rbh_graph(tq_table, qt_table, cfg, tg, sg)
            hits_tq = best_hits(tq_table, cfg)
            hits_qt = best_hits(qt_table, cfg)
            for i, j in graph.edge_set():
                assert sg[j] in hits_tq[tg[i]]
                assert tg[i] in hits_qt[sg[j]]


def reference_edges(n_t, n_s, edges):
    """Plain-Python construction: sorted int pairs, duplicates checked
    first, then the range in row-major order; returns rows, cols, indptr."""
    raw = [(int(i), int(j)) for i, j in edges]
    edge_list = sorted(set(raw))
    if len(edge_list) != len(raw):
        raise ValueError("duplicate edges")
    for i, j in edge_list:
        if not (0 <= i < n_t and 0 <= j < n_s):
            raise ValueError(f"edge ({i}, {j}) out of range for {n_t}x{n_s} graph")
    indptr = [0]
    for i in range(n_t):
        indptr.append(indptr[-1] + sum(1 for r, _ in edge_list if r == i))
    return [i for i, _ in edge_list], [j for _, j in edge_list], indptr


class TestBiadjacencyMatrix:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            BiadjacencyMatrix(["t1"], ["s1"], [(0, 1)])
        with pytest.raises(ValueError):
            BiadjacencyMatrix(["t1"], ["s1"], [(0, 0), (0, 0)])
        with pytest.raises(ValueError):
            BiadjacencyMatrix(["t1", "t1"], ["s1"], [])
        # an index that is not an integer is refused, not truncated; an
        # empty edge list of any dtype is a graph without edges
        for edges in ([(0, 1.9)], [(0, 1.0)], np.array([[0.0, 1.9]]), np.array([[0.0, 1.0]])):
            with pytest.raises(ValueError, match="edge indices must be integers"):
                BiadjacencyMatrix(["t"], ["s0", "s1"], edges)
        for edges in ([], np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64)):
            assert BiadjacencyMatrix(["t"], ["s0", "s1"], edges).n_edges == 0

        # seeded random edge lists against the plain-Python reference, as
        # a list of tuples, a generator and an (E, 2) int64 array
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(400):
            n_t, n_s = (int(v) for v in rng.integers(1, 6, 2))
            grid = [(i, j) for i in range(n_t) for j in range(n_s)]
            k = int(rng.integers(0, len(grid) + 1))
            pairs = [grid[p] for p in rng.permutation(len(grid))[:k]]
            # up to two faults, so that the first check and the first bad
            # edge in row-major order decide the message
            faults = rng.choice(["duplicate", "negative", "row_n_t", "col_n_s"], 2)
            for fault in faults[: int(rng.integers(0, 3)) if pairs else 0]:
                e = int(rng.integers(0, len(pairs)))
                i, j = pairs[e]
                if fault == "duplicate":
                    pairs.insert(int(rng.integers(0, len(pairs) + 1)), (i, j))
                else:
                    pairs[e] = {
                        "negative": (i, -int(rng.integers(1, 3))) if e % 2 else (-1, j),
                        "row_n_t": (n_t, j),
                        "col_n_s": (i, n_s),
                    }[fault]
                seen.add(fault)
            if not pairs:
                seen.add("empty")
            elif pairs != sorted(pairs):
                seen.add("unsorted")
            t_ids = [f"t{i}" for i in range(n_t)]
            s_ids = [f"s{j}" for j in range(n_s)]
            try:
                expected = reference_edges(n_t, n_s, pairs)
            except ValueError as exc:
                expected = str(exc)
            for edges in (
                pairs,
                (pair for pair in pairs),
                np.array(pairs, dtype=np.int64).reshape(-1, 2),
            ):
                if isinstance(expected, str):
                    with pytest.raises(ValueError) as err:
                        BiadjacencyMatrix(t_ids, s_ids, edges)
                    assert str(err.value) == expected
                    continue
                graph = BiadjacencyMatrix(t_ids, s_ids, edges)
                for got, want in zip((graph.edge_rows, graph.edge_cols, graph.indptr), expected):
                    assert got.dtype == np.int64
                    assert np.array_equal(got, np.array(want, dtype=np.int64))
        assert seen == {"empty", "unsorted", "duplicate", "negative", "row_n_t", "col_n_s"}

    def test_dense_and_degrees(self):
        graph = BiadjacencyMatrix(["t1", "t2"], ["s1", "s2", "s3"], [(1, 2), (0, 1), (1, 0)])
        dense = np.zeros((2, 3))
        dense[graph.edge_rows, graph.edge_cols] = 1.0
        assert dense.tolist() == [[0, 1, 0], [1, 0, 1]]
        assert graph.row_degrees().tolist() == [1, 2]


class TestGraphTsv:
    def test_empty_round_trip(self, tmp_path):
        graph = BiadjacencyMatrix(["t1", "t2"], ["s1"], [])
        path = tmp_path / "graph.tsv"
        graph_to_tsv(graph, path)
        assert path.read_text() == "target_gene\tsource_gene\n"
        assert tsv_to_graph(path, ["t1", "t2"], ["s1"]) == graph

    def test_single_edge_round_trip(self, tmp_path):
        graph = BiadjacencyMatrix(["t1"], ["s1"], [(0, 0)])
        path = tmp_path / "graph.tsv"
        graph_to_tsv(graph, path)
        assert tsv_to_graph(path, ["t1"], ["s1"]) == graph

    def test_random_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        graph = random_mask(rng, 20, 15, density=0.4)
        assert graph.n_edges > 80
        path = tmp_path / "graph.tsv"
        graph_to_tsv(graph, path)
        back = tsv_to_graph(path, graph.target_gene_ids, graph.source_gene_ids)
        assert back == graph
        graph_to_tsv(back, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        bad_header = tmp_path / "bad.tsv"
        bad_header.write_text("wrong\theader\n")
        with pytest.raises(ParseError) as err:
            tsv_to_graph(bad_header, ["t1"], ["s1"])
        assert err.value.line == 1

        unknown = tmp_path / "unknown.tsv"
        unknown.write_text("target_gene\tsource_gene\nt9\ts1\n")
        with pytest.raises(ParseError) as err:
            tsv_to_graph(unknown, ["t1"], ["s1"])
        assert err.value.line == 2

        dup = tmp_path / "dup.tsv"
        dup.write_text("target_gene\tsource_gene\nt1\ts1\nt1\ts1\n")
        with pytest.raises(ParseError) as err:
            tsv_to_graph(dup, ["t1"], ["s1"])
        assert err.value.line == 3


class TestGeneListFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "genes.tsv"
        write_gene_list(["g2", "g1", "g3"], path)
        assert read_gene_list(path) == ["g2", "g1", "g3"]

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "genes.tsv"
        path.write_text("gene_id\ng1\ng1\n")
        with pytest.raises(ParseError) as err:
            read_gene_list(path)
        assert err.value.line == 3


class TestScoreTableTsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        entries = [
            (f"q{i}", f"s{j}", float(rng.uniform(0, 5)))
            for i in range(6)
            for j in range(4)
            if rng.uniform() < 0.7
        ]
        path = tmp_path / "scores.tsv"
        write_score_table(table(entries), path)
        back = read_score_table(path)
        assert back.entries == entries

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("query\tsubject\tscore\nq1\ts1\tnot_a_number\n")
        with pytest.raises(ParseError) as err:
            read_score_table(path)
        assert err.value.line == 2

        path.write_text("query\tsubject\tscore\nq1\ts1\t0.5\nq1\ts1\t0.7\n")
        with pytest.raises(ParseError) as err:
            read_score_table(path)
        assert err.value.line == 3

        path.write_text("query\tsubject\tscore\nq1\ts1\t-1.0\n")
        with pytest.raises(ParseError):
            read_score_table(path)
