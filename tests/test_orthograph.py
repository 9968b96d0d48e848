import math

import numpy as np
import pytest

from orthomask.errors import ParseError, UnknownGeneError
from orthomask.orthograph import (
    GRAPH_HEADER,
    BiadjacencyMatrix,
    RbhConfig,
    ScoreTable,
    build_rbh_graph,
    graph_to_tsv,
    read_gene_list,
    read_score_table,
    tsv_to_graph,
    write_gene_list,
    write_score_table,
)
from orthomask.tsv import first_true, read_table

from _helpers import edge_set, kmer_similarity, random_mask, random_score_instance, rbh_brute_force


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


def forward_hits(entries, cfg):
    """Best hits of a target->source table, read off the RBH graph: the
    reverse table scores every pair 1.0, so every candidate is reciprocal."""
    reverse = ScoreTable("source_sp", "target_sp", [(s, q, 1.0) for q, s, _ in entries])
    graph = build_rbh_graph(table(entries), reverse, cfg, ["q1"], ["s1", "s2"])
    return {(graph.target_gene_ids[i], graph.source_gene_ids[j]) for i, j in edge_set(graph)}


class TestBestHits:
    def test_clear_winner(self):
        hits = forward_hits([("q1", "s1", 0.9), ("q1", "s2", 0.3)], RbhConfig(0.5))
        assert hits == {("q1", "s1")}

    def test_all_below_threshold(self):
        assert forward_hits([("q1", "s1", 0.4)], RbhConfig(0.5)) == set()

    def test_exact_tie_keeps_both(self):
        hits = forward_hits([("q1", "s1", 0.9), ("q1", "s2", 0.9)], RbhConfig(0.5))
        assert hits == {("q1", "s1"), ("q1", "s2")}

    def test_threshold_boundary_inclusive(self):
        assert forward_hits([("q1", "s1", 0.5)], RbhConfig(0.5)) == {("q1", "s1")}

    def test_tie_tolerance_widens(self):
        entries = [("q1", "s1", 0.9), ("q1", "s2", 0.8)]
        assert forward_hits(entries, RbhConfig(0.5, 0.0)) == {("q1", "s1")}
        assert forward_hits(entries, RbhConfig(0.5, 0.1)) == {("q1", "s1"), ("q1", "s2")}


class TestRbhConfig:
    # a bool used to construct as threshold 1.0; a str or None failed later
    @pytest.mark.parametrize("value", [True, "0.5", None])
    @pytest.mark.parametrize("name", ["threshold", "tie_tolerance"])
    def test_rejects_non_real_values(self, name, value):
        kwargs = {"threshold": 0.5, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
            RbhConfig(**kwargs)

    def test_keeps_range_checks(self):
        with pytest.raises(ValueError, match="^threshold must be finite and >= 0, got -1.0$"):
            RbhConfig(-1)
        with pytest.raises(ValueError, match="^tie_tolerance must be finite and >= 0, got nan$"):
            RbhConfig(0.5, math.nan)

    def test_accepts_numpy_reals(self):
        cfg = RbhConfig(np.float32(0.1), np.int64(0))
        assert (cfg.threshold, cfg.tie_tolerance) == (float(np.float32(0.1)), 0.0)
        assert type(cfg.threshold) is float and type(cfg.tie_tolerance) is float


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

    def test_checks_name_first_offender_in_entry_order(self):
        """Repeated pairs and bad scores anywhere; the message names the
        first offender of a plain-Python scan, a repeated pair before its
        score."""

        def first_offender(entries):
            seen = set()
            for query, subject, score in entries:
                if (query, subject) in seen:
                    return f"duplicate score entry ({query}, {subject})"
                seen.add((query, subject))
                if not math.isfinite(score) or score < 0.0:
                    return f"score for ({query}, {subject}) must be finite and >= 0, got {score}"

        rng = np.random.default_rng(17)
        scores = [0.0, 0.5, 2, -0.25, -1, float("nan"), float("inf"), -float("inf")]
        outcomes = set()
        for _ in range(400):
            n = int(rng.integers(0, 10))
            entries = [
                (f"q{rng.integers(0, 3)}", f"s{rng.integers(0, 3)}", scores[k])
                for k in rng.choice(len(scores), n, p=[0.4, 0.4, 0.1, 0.02, 0.02, 0.02, 0.02, 0.02])
            ]
            expected = first_offender(entries)
            outcomes.add(None if expected is None else expected.split(" ")[0])
            if expected is None:
                assert table(entries).entries == entries
                continue
            with pytest.raises(ValueError) as err:
                table(entries)
            assert str(err.value) == expected
        assert outcomes == {None, "duplicate", "score"}

    def test_columns_and_entries_are_read_only(self):
        tq = table([("q1", "s1", 0.5), ("q2", "s1", 1)])
        assert tq.entries == [("q1", "s1", 0.5), ("q2", "s1", 1.0)]
        assert tq.entries[-1] == ("q2", "s1", 1.0) and tq.entries[:1] == [("q1", "s1", 0.5)]
        assert tq.queries.names == ("q1", "q2") and tq.subjects.names == ("s1",)
        assert tq.scores.dtype == np.float64
        # entries is a new list each time: changing it leaves the table as it was
        tq.entries.append(("q1", "s1", 0.9))
        assert tq.entries == [("q1", "s1", 0.5), ("q2", "s1", 1.0)]
        for array in (tq.scores, tq.queries.codes, tq.subjects.codes):
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("score", ["0.5", None, [0.5]])
    def test_non_number_score_rejected(self, score):
        with pytest.raises(TypeError):
            table([("q1", "s1", 0.5), ("q2", "s1", score)])


class TestBuildRbhGraph:
    def test_reciprocal_edge(self):
        graph = build_rbh_graph(
            table([("t1", "s1", 0.9)]),
            table([("s1", "t1", 0.8)]),
            RbhConfig(0.5),
            ["t1"],
            ["s1"],
        )
        assert edge_set(graph) == {(0, 0)}

    def test_non_reciprocal_rejected(self):
        # s1's best hit is t2, so (t1, s1) must not appear
        graph = build_rbh_graph(
            table([("t1", "s1", 0.9)]),
            table([("s1", "t2", 0.9), ("s1", "t1", 0.6)]),
            RbhConfig(0.5),
            ["t1", "t2"],
            ["s1"],
        )
        assert edge_set(graph) == set()

    def test_empty_tables(self):
        graph = build_rbh_graph(table([]), table([]), RbhConfig(0.5), ["t1"], ["s1"])
        assert edge_set(graph) == set()

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
            assert edge_set(graph) == rbh_brute_force(tq, qt, thr, tol, tg, sg)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            tq, qt, thr, tol, tg, sg = random_score_instance(rng, 8, 8)
            qt_table = ScoreTable("source_sp", "target_sp", qt)
            lo = build_rbh_graph(table(tq), qt_table, RbhConfig(thr, tol), tg, sg)
            hi = build_rbh_graph(table(tq), qt_table, RbhConfig(thr + 0.2, tol), tg, sg)
            assert edge_set(hi) <= edge_set(lo)

    def test_tie_tolerance_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            tq, qt, thr, tol, tg, sg = random_score_instance(rng, 8, 8)
            qt_table = ScoreTable("source_sp", "target_sp", qt)
            narrow = build_rbh_graph(table(tq), qt_table, RbhConfig(thr, tol), tg, sg)
            wide = build_rbh_graph(table(tq), qt_table, RbhConfig(thr, tol + 0.2), tg, sg)
            assert edge_set(narrow) <= edge_set(wide)

    def test_empty_universes(self):
        for tg, sg in (([], []), (["t1"], []), ([], ["s1"])):
            graph = build_rbh_graph(table([]), table([]), RbhConfig(0.5), tg, sg)
            assert (graph.n_targets, graph.n_sources, graph.n_edges) == (len(tg), len(sg), 0)

    def test_duplicate_gene_ids(self):
        fwd, rev = table([("t1", "s1", 0.9)]), table([("s1", "t1", 0.9)])
        with pytest.raises(ValueError, match="^duplicate target gene IDs$"):
            build_rbh_graph(fwd, rev, RbhConfig(0.5), ["t1", "t1"], ["s1"])
        with pytest.raises(ValueError, match="^duplicate source gene IDs$"):
            build_rbh_graph(fwd, rev, RbhConfig(0.5), ["t1"], ["s1", "s2", "s1"])
        # an unknown gene is reported before the duplicate
        with pytest.raises(UnknownGeneError):
            build_rbh_graph(table([("t9", "s1", 0.9)]), rev, RbhConfig(0.5), ["t1", "t1"], ["s1"])

    def test_unknown_gene_names_first_offender(self):
        """Unknown names injected as query or subject of either table; the
        message names the first offender of a plain-Python scan: records in
        file order, the query before the subject, scores_tq before scores_qt."""

        def first_offender(tq, qt, tg, sg):
            for entries, q_list, s_list, q_side, s_side in (
                (tq, tg, sg, "target", "source"),
                (qt, sg, tg, "source", "target"),
            ):
                for query, subject, _ in entries:
                    if query not in q_list:
                        return f"query gene {query!r} not in {q_side} gene list"
                    if subject not in s_list:
                        return f"subject gene {subject!r} not in {s_side} gene list"

        rng = np.random.default_rng(15)
        seen = set()
        for trial in range(300):
            tq, qt, thr, tol, tg, sg = random_score_instance(rng, 6, 6)
            for k in range(int(rng.integers(1, 4))):
                side, column = int(rng.integers(0, 2)), int(rng.integers(0, 2))
                entries, q_list, s_list = ((tq, tg, sg), (qt, sg, tg))[side]
                # a name in no list, or a gene of the other species
                other = (s_list, q_list)[column]
                name = f"x{trial}_{k}" if rng.uniform() < 0.5 else str(rng.choice(other))
                record = [q_list[0], s_list[0], 0.5]
                if entries:
                    record = [*entries[int(rng.integers(0, len(entries)))]]
                record[column] = name
                entries.insert(int(rng.integers(0, len(entries) + 1)), tuple(record))
                seen.add((side, column))
            try:
                tables = table(tq), ScoreTable("source_sp", "target_sp", qt)
            except ValueError:  # two injections made the same pair
                continue
            with pytest.raises(UnknownGeneError) as err:
                build_rbh_graph(*tables, RbhConfig(thr, tol), tg, sg)
            assert str(err.value) == first_offender(tq, qt, tg, sg)
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


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
        # a uint64 index of 2**63 or more is refused before the int64 cast
        # could wrap it; small unsigned indices build as usual
        with pytest.raises(ValueError, match="edge indices must be integers in int64 range"):
            BiadjacencyMatrix(["t"], ["s"], np.array([[0, 2**63]], dtype=np.uint64))
        for dtype in (np.uint8, np.uint64):
            graph = BiadjacencyMatrix(["t"], ["s0", "s1"], np.array([[0, 1], [0, 0]], dtype=dtype))
            assert graph.edge_cols.tolist() == [0, 1]
            assert graph.edge_rows.dtype == np.int64

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
            # a third of the lists come sorted, as every writer emits them:
            # a duplicate is then adjacent and an out-of-range edge in place
            if rng.random() < 1 / 3:
                pairs.sort()
            if not pairs:
                seen.add("empty")
            elif pairs != sorted(pairs):
                seen.add("unsorted")
            elif len(pairs) > 1:
                seen.add("sorted")
                if len(set(pairs)) < len(pairs) or not all(
                    0 <= i < n_t and 0 <= j < n_s for i, j in pairs
                ):
                    seen.add("sorted with a fault")
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
        assert seen == {
            "empty", "unsorted", "sorted", "sorted with a fault",
            "duplicate", "negative", "row_n_t", "col_n_s",
        }

    @pytest.mark.parametrize("edges", [[(0, 0, 0)], np.zeros((1, 3), np.int64), np.zeros(2, np.int64)])
    def test_edges_must_be_pairs(self, edges):
        with pytest.raises(ValueError, match=r"^edges must be \(target, source\) index pairs$"):
            BiadjacencyMatrix(["t"], ["s"], edges)

    def test_compares_only_with_masks(self):
        mask = BiadjacencyMatrix(["t"], ["s"], [(0, 0)])
        assert mask.__eq__(1) is NotImplemented
        assert (mask == 1) is False
        assert mask == BiadjacencyMatrix(["t"], ["s"], [(0, 0)])

    @pytest.mark.parametrize("edges", [[[0, 1]], [[0, 0], [0, 1], [1, 1]]])
    def test_edges_are_copied(self, edges):
        # the mask keeps its own edge arrays, also when the caller's edges are
        # sorted already and one row long, whose column view counts as contiguous
        pairs = np.array(edges, dtype=np.int64)
        graph = BiadjacencyMatrix(["t0", "t1"], ["s0", "s1"], pairs)
        pairs[:] = 0
        assert graph.edge_rows.tolist() == [i for i, _ in edges]
        assert graph.edge_cols.tolist() == [j for _, j in edges]

    def test_dense_and_degrees(self):
        graph = BiadjacencyMatrix(["t1", "t2"], ["s1", "s2", "s3"], [(1, 2), (0, 1), (1, 0)])
        dense = np.zeros((2, 3))
        dense[graph.edge_rows, graph.edge_cols] = 1.0
        assert dense.tolist() == [[0, 1, 0], [1, 0, 1]]
        assert graph.row_degrees().tolist() == [1, 2]

    def test_repr_names_shape_and_edge_count(self):
        graph = BiadjacencyMatrix(["t1", "t2"], ["s1", "s2", "s3"], [(1, 2), (0, 1), (1, 0)])
        assert repr(graph) == "BiadjacencyMatrix(2x3, 3 edges)"


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


    def test_unknown_gene_names_first_offender(self, tmp_path):
        """Unknown names as target or source of random edge lines; the error
        names the first offender of a plain line scan, the target before
        the source."""

        def first_offender(lines, tg, sg):
            for lineno, line in enumerate(lines, start=2):
                t_gene, s_gene = line.split("\t")
                if t_gene not in tg:
                    return f"{path}:{lineno}: unknown target gene {t_gene!r}"
                if s_gene not in sg:
                    return f"{path}:{lineno}: unknown source gene {s_gene!r}"

        rng = np.random.default_rng(19)
        path = tmp_path / "graph.tsv"
        seen = set()
        for trial in range(200):
            tg = [f"t{i}" for i in range(int(rng.integers(1, 5)))]
            sg = [f"s{j}" for j in range(int(rng.integers(1, 5)))]
            pairs = [(t, s) for t in tg for s in sg if rng.uniform() < 0.5]
            for k in range(int(rng.integers(1, 4))):
                column = int(rng.integers(0, 2))
                # a name in no list, or a gene of the other species
                name = f"x{trial}_{k}" if rng.uniform() < 0.5 else str(rng.choice((sg, tg)[column]))
                record = [tg[0], sg[0]]
                record[column] = name
                pairs.insert(int(rng.integers(0, len(pairs) + 1)), tuple(record))
                seen.add(column)
            if len(set(pairs)) != len(pairs):  # two injections made the same pair
                continue
            lines = ["\t".join(pair) for pair in pairs]
            path.write_text("target_gene\tsource_gene\n" + "".join(f"{line}\n" for line in lines))
            with pytest.raises(ParseError) as err:
                tsv_to_graph(path, tg, sg)
            assert str(err.value) == first_offender(lines, tg, sg)
        assert seen == {0, 1}


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


# ---------------------------------------------------------------------------
# seeded readers against unseeded reads
# ---------------------------------------------------------------------------

TARGETS = ["t1", "t2", "ät", "漢"]
SOURCES = ["s1", "s2", "sß"]
# distinct IDs in no gene list: two of them beside one partner must not
# read as one repeated pair
STRANGERS = ["x1", "x2", "üx", "t9"]
SCORES = ["0.5", "1", "0.25", "2e-3", "0.75"]


def _pair_file_text(rng, header, queries, subjects, scored):
    """A score table or graph file: known and unknown IDs, repeated pairs,
    blank lines, records of the wrong width, and LF, CRLF or lone-CR line
    ends, sometimes mixed and sometimes without a last one."""
    lines, records = [header], []
    for _ in range(int(rng.integers(0, 12))):
        draw = rng.uniform()
        if draw < 0.1:
            lines.append("")
            continue
        if draw < 0.18 and records:
            fields = list(records[int(rng.integers(0, len(records)))])
        else:
            fields = [
                str(rng.choice(ids if rng.uniform() < 0.8 else STRANGERS))
                for ids in (queries, subjects)
            ]
            if scored:
                fields.append(str(rng.choice(SCORES if rng.uniform() < 0.97 else ["-1", "x"])))
        if rng.uniform() < 0.04:
            fields = fields[:-1] if rng.uniform() < 0.5 else fields + ["0.5"]
        records.append(fields)
        lines.append("\t".join(fields))
    ends = [str(rng.choice(["\n", "\r\n", "\r"]))] * len(lines)
    if rng.uniform() < 0.2:
        ends = [str(rng.choice(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: -len(ends[-1])] if rng.uniform() < 0.2 else text


def _outcome(read):
    """What ``read()`` returns, or the text of the error it raises."""
    try:
        return read()
    except ParseError as err:
        return f"ParseError at line {err.line}: {err}"
    except UnknownGeneError as err:
        return f"UnknownGeneError: {err}"


def _graph_unseeded(path, target_genes, source_genes):
    """tsv_to_graph with unseeded codes, each ID looked up in a dict of the
    gene list's positions."""
    t_index = {g: i for i, g in enumerate(target_genes)}
    s_index = {g: j for j, g in enumerate(source_genes)}
    table = read_table(path, GRAPH_HEADER, key_fields=2)
    t = np.array([t_index.get(gene, -1) for gene in table.column(0)], np.int64)
    s = np.array([s_index.get(gene, -1) for gene in table.column(1)], np.int64)
    table.raise_first(
        (first_true(t < 0), lambda k: f"unknown target gene {table.column(0)[k]!r}"),
        (first_true(s < 0), lambda k: f"unknown source gene {table.column(1)[k]!r}"),
    )
    return BiadjacencyMatrix(target_genes, source_genes, np.column_stack((t, s)).reshape(-1, 2))


def test_seeded_readers_match_unseeded_reads(tmp_path):
    """Score tables read against the gene lists give the entries, the RBH
    graph and the first error of an unseeded read, and a graph file gives
    the graph or the first error of a plain dict lookup per ID."""
    rng = np.random.default_rng(53)
    tq, qt, graph = tmp_path / "tq.tsv", tmp_path / "qt.tsv", tmp_path / "graph.tsv"
    outcomes = set()
    for _ in range(500):
        tq.write_bytes(_pair_file_text(rng, "query\tsubject\tscore", TARGETS, SOURCES, True).encode())
        qt.write_bytes(_pair_file_text(rng, "query\tsubject\tscore", SOURCES, TARGETS, True).encode())
        seeded = _outcome(lambda: (read_score_table(tq, TARGETS, SOURCES),
                                   read_score_table(qt, SOURCES, TARGETS)))
        plain = _outcome(lambda: (read_score_table(tq), read_score_table(qt)))
        if isinstance(plain, str) or isinstance(seeded, str):
            assert seeded == plain
            outcomes.add(plain.split(": ")[2].split(" ")[0])
        else:
            for table, plain_table, genes in zip(seeded, plain, ((TARGETS, SOURCES), (SOURCES, TARGETS))):
                assert table.entries == plain_table.entries
                # a gene list's IDs are coded by their positions
                assert table.queries.names[: len(genes[0])] == tuple(genes[0])
                assert table.subjects.names[: len(genes[1])] == tuple(genes[1])
            cfg = RbhConfig(0.3, 0.1)
            built = _outcome(lambda: build_rbh_graph(*seeded, cfg, TARGETS, SOURCES))
            assert built == _outcome(lambda: build_rbh_graph(*plain, cfg, TARGETS, SOURCES))
            # tables read against other gene lists than the graph's
            others = TARGETS[::-1], SOURCES[1:]
            assert _outcome(lambda: build_rbh_graph(*seeded, cfg, *others)) == _outcome(
                lambda: build_rbh_graph(*plain, cfg, *others)
            )
            outcomes.add(built.split(":")[0] if isinstance(built, str) else "ok")

        graph.write_bytes(_pair_file_text(rng, "target_gene\tsource_gene", TARGETS, SOURCES, False).encode())
        read = _outcome(lambda: tsv_to_graph(graph, TARGETS, SOURCES))
        assert read == _outcome(lambda: _graph_unseeded(graph, TARGETS, SOURCES))
        outcomes.add("graph " + (read.split(": ")[2].split(" ")[0] if isinstance(read, str) else "ok"))
    assert outcomes == {
        "ok", "UnknownGeneError", "expected", "duplicate", "non-numeric", "score",
        "graph ok", "graph expected", "graph duplicate", "graph unknown",
    }
