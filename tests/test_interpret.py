import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from orthomask.errors import UnknownGeneError
from orthomask.interpret import contributor_rows, export_weight_table, support_summary, write_weight_rows
from orthomask.netcore import MaskedLinearLayer
from orthomask.orthograph import BiadjacencyMatrix

from _helpers import random_mask, read_weight_rows, weight_table_oracle


def two_source_layer():
    mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0), (0, 1)])
    return MaskedLinearLayer(mask, "hard", [0.5, -2.0])


def top_contributors(layer, target_gene_id, k):
    """The ``(source_gene_id, weight)`` pairs of :func:`contributor_rows`."""
    return [(s_gene, weight) for _, s_gene, weight, _ in contributor_rows(layer, target_gene_id, k)]


class TestTopContributors:
    def test_magnitude_ranking(self):
        assert top_contributors(two_source_layer(), "t1", 1) == [("s2", -2.0)]

    def test_no_orthologs(self):
        mask = BiadjacencyMatrix(["t1", "t2"], ["s1"], [(1, 0)])
        layer = MaskedLinearLayer(mask, "hard", [1.0])
        assert top_contributors(layer, "t1", 3) == []

    def test_k_exceeding_count_returns_all_sorted(self):
        assert top_contributors(two_source_layer(), "t1", 10) == [("s2", -2.0), ("s1", 0.5)]

    def test_tie_breaks_by_source_id(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2", "s3"], [(0, 0), (0, 1), (0, 2)])
        layer = MaskedLinearLayer(mask, "hard", [1.0, -1.0, 1.0])
        assert top_contributors(layer, "t1", 3) == [("s1", 1.0), ("s2", -1.0), ("s3", 1.0)]

    def test_soft_mode_ranks_dense_row(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0)])
        layer = MaskedLinearLayer(mask, "soft", [[0.5, -2.0]])
        assert top_contributors(layer, "t1", 1) == [("s2", -2.0)]

    def test_unknown_gene(self):
        with pytest.raises(UnknownGeneError):
            top_contributors(two_source_layer(), "nope", 1)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_contributors(two_source_layer(), "t1", 0)


class TestExportWeightTable:
    def test_empty_layer(self, tmp_path):
        mask = BiadjacencyMatrix(["t1"], ["s1"], [])
        layer = MaskedLinearLayer(mask, "hard", np.zeros(0))
        path = tmp_path / "weights.tsv"
        export_weight_table(layer, path)
        assert path.read_text() == "target_gene\tsource_gene\tweight\ton_support\n"

    def test_single_edge(self, tmp_path):
        mask = BiadjacencyMatrix(["t1"], ["s1"], [(0, 0)])
        layer = MaskedLinearLayer(mask, "hard", [0.2])
        path = tmp_path / "weights.tsv"
        export_weight_table(layer, path)
        assert path.read_text() == (
            "target_gene\tsource_gene\tweight\ton_support\n" "t1\ts1\t0.2\ttrue\n"
        )

    def test_soft_mode_reports_all_entries(self, tmp_path):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0)])
        layer = MaskedLinearLayer(mask, "soft", [[1.0, -3.0]])
        path = tmp_path / "weights.tsv"
        assert len(export_weight_table(layer, path)) == 2
        assert read_weight_rows(path) == [("t1", "s1", 1.0, True), ("t1", "s2", -3.0, False)]

    def test_round_trip_and_byte_stability(self, tmp_path):
        rng = np.random.default_rng(2)
        mask = random_mask(rng, 7, 9, 0.4, force_edge=True)
        layer = MaskedLinearLayer(mask, "hard", rng.normal(0, 1, mask.n_edges))
        path = tmp_path / "weights.tsv"
        assert len(export_weight_table(layer, path)) == mask.n_edges
        assert read_weight_rows(path) == weight_table_oracle(layer)
        export_weight_table(layer, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    def test_sorted_by_gene_ids(self, tmp_path):
        mask = BiadjacencyMatrix(["tb", "ta"], ["s1"], [(0, 0), (1, 0)])
        layer = MaskedLinearLayer(mask, "hard", [1.0, 2.0])
        path = tmp_path / "weights.tsv"
        export_weight_table(layer, path)
        assert [r[0] for r in read_weight_rows(path)] == ["ta", "tb"]

    def test_refused_write_leaves_no_file(self, tmp_path):
        # a lone surrogate passes the ID check but cannot be encoded: the
        # lines written before it would read back as a valid, shorter table
        mask = BiadjacencyMatrix(["t1", "t2"], ["s1", "\ud800"], [(0, 0), (1, 1)])
        layer = MaskedLinearLayer(mask, "hard", [1.0, 2.0])
        path = tmp_path / "weights.tsv"
        with pytest.raises(UnicodeEncodeError):
            export_weight_table(layer, path)
        assert not path.exists()

    def test_bad_id_refused_before_any_line(self, tmp_path):
        # both writers refuse before the header line: a regular file at the
        # path is removed, and a FIFO reads nothing
        path = tmp_path / "weights.tsv"
        path.write_text("kept\n")
        mask = BiadjacencyMatrix(["t1"], ["s\t1"], [(0, 0)])
        with pytest.raises(ValueError, match=re.escape(repr("s\t1"))):
            export_weight_table(MaskedLinearLayer(mask, "hard", [1.0]), path)
        with pytest.raises(ValueError, match=re.escape(repr("s\t1"))):
            write_weight_rows([("t1", "s\t1", 1.0, True)], path)
        assert not path.exists()
        os.mkfifo(path)
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(ValueError, match=re.escape(repr("s\t1"))):
                export_weight_table(MaskedLinearLayer(mask, "hard", [1.0]), path)
            assert os.read(reader, 100) == b""
        finally:
            os.close(reader)

    def test_memory_is_one_chunk(self, tmp_path):
        # the writer holds one chunk of rows, not a tuple per soft weight:
        # a 300x400 soft table once peaked at 24 MB of Python allocations
        rng = np.random.default_rng(5)
        mask = random_mask(rng, 300, 400, 0.01, force_edge=True)
        layer = MaskedLinearLayer(mask, "soft", rng.normal(0, 1, (300, 400)))
        tracemalloc.start()
        try:
            assert len(export_weight_table(layer, tmp_path / "weights.tsv")) == 300 * 400
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestSupportSummary:
    def test_hard_mode_has_no_off_support(self):
        summary = support_summary(two_source_layer())
        assert summary.off_count == 0
        assert summary.off_mean_abs == 0.0
        assert summary.on_count == 2
        assert summary.on_mean_abs == pytest.approx(1.25)

    def test_soft_hand_example(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0)])
        layer = MaskedLinearLayer(mask, "soft", [[1.0, -3.0]])
        summary = support_summary(layer)
        assert summary.on_mean_abs == 1.0
        assert summary.off_mean_abs == 3.0

    def test_all_zero_weights(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0)])
        layer = MaskedLinearLayer(mask, "soft", [[0.0, 0.0]])
        summary = support_summary(layer)
        assert summary.on_mean_abs == 0.0 and summary.off_mean_abs == 0.0


class TestViewConsistency:
    def test_top_contributors_prefix_of_table(self, tmp_path):
        rng = np.random.default_rng(3)
        for mode in ("hard", "soft"):
            mask = random_mask(rng, 5, 6, 0.5, force_edge=True)
            shape = (mask.n_edges,) if mode == "hard" else (5, 6)
            layer = MaskedLinearLayer(mask, mode, rng.normal(0, 1, shape))
            export_weight_table(layer, tmp_path / "weights.tsv")
            table = read_weight_rows(tmp_path / "weights.tsv")
            for t_gene in mask.target_gene_ids:
                gene_rows = [r for r in table if r[0] == t_gene]
                gene_rows.sort(key=lambda r: (-abs(r[2]), r[1]))
                expected = [(r[1], r[2]) for r in gene_rows[:3]]
                assert top_contributors(layer, t_gene, 3) == expected

    def test_views_match_dense_oracle(self, tmp_path):
        # IDs are numbered in shuffled order, and past 10 genes they do not
        # sort in number order either ("s10" < "s2"); a third of the trials
        # start IDs with non-ASCII letters, which sort by code point ("z" <
        # "é"), and a third pair IDs that differ only by a trailing NUL
        # ("s0" < "s0\x00"); half the layers draw weights from a few
        # magnitudes of either sign, so |w| ties are common and the
        # source-ID tie break decides
        rng = np.random.default_rng(4)
        path = tmp_path / "weights.tsv"
        for trial in range(240):
            mode = ("hard", "soft")[trial % 2]
            n_t, n_s = (int(v) for v in rng.integers(1, 14, 2))
            density = (0.0, 1.0, rng.uniform(0.0, 0.8))[trial % 6 // 2]
            bern = rng.uniform(0.0, 1.0, (n_t, n_s)) < density
            if 0.0 < density < 1.0:
                bern[rng.integers(0, n_t)] = False  # a target with no orthologs
            name = (
                lambda side, k: f"{side}{k}",
                lambda side, k: f"{'zéaΩ'[k % 4]}{side}{k}",
                lambda side, k: f"{side}{k // 2}" + "\x00" * (k % 2),
            )[trial // 80]
            mask = BiadjacencyMatrix(
                [name("t", k) for k in rng.permutation(n_t)],
                [name("s", k) for k in rng.permutation(n_s)],
                np.argwhere(bern),
            )
            shape = (mask.n_edges,) if mode == "hard" else (n_t, n_s)
            if trial % 4 < 2:
                weights = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], shape)
            else:
                weights = rng.normal(0.0, 1.0, shape)
            layer = MaskedLinearLayer(mask, mode, weights)

            table = weight_table_oracle(layer)
            assert len(export_weight_table(layer, path)) == len(table)
            assert read_weight_rows(path) == table
            for t_gene in mask.target_gene_ids:
                ranked = [r for r in table if r[0] == t_gene]
                ranked.sort(key=lambda r: (-abs(r[2]), r[1]))
                for k in range(1, len(ranked) + 2):
                    assert contributor_rows(layer, t_gene, k) == ranked[:k]

            summary = support_summary(layer)
            for on_support, count, mean in (
                (True, summary.on_count, summary.on_mean_abs),
                (False, summary.off_count, summary.off_mean_abs),
            ):
                magnitudes = [abs(r[2]) for r in table if r[3] == on_support]
                assert count == len(magnitudes)
                expected = math.fsum(magnitudes) / count if count else 0.0
                assert mean == pytest.approx(expected, rel=1e-12, abs=0.0)
