import json

import numpy as np
import pytest

from orthomask.dataio import (
    ExpressionDataset,
    SyntheticSpec,
    align_to_genes,
    attach_labels,
    generate_synthetic,
    read_expression_tsv,
    read_labels_tsv,
    write_bundle,
    write_expression_tsv,
    write_labels_tsv,
)
from orthomask.errors import ParseError, UnknownGeneError
from orthomask.modelio import model_document
from orthomask.training import evaluate


def toy_dataset():
    return ExpressionDataset(
        "sp",
        ["g1", "g2", "g3"],
        ["a", "b"],
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        np.array([[0.5], [1.5]]),
    )


class TestExpressionTsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("sample_id\tg1\tg2\n")
        ds = read_expression_tsv(path)
        assert ds.n_samples == 0
        assert ds.gene_ids == ("g1", "g2")

    def test_hand_fixture(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("sample_id\tg1\tg2\tg3\na\t1.0\t2.0\t3.0\nb\t4.5\t-1.25\t0.0\n")
        ds = read_expression_tsv(path)
        assert ds.sample_ids == ("a", "b")
        assert ds.samples.tolist() == [[1.0, 2.0, 3.0], [4.5, -1.25, 0.0]]

    def test_random_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = ExpressionDataset(
            "sp",
            [f"g{i}" for i in range(40)],
            [f"s{i}" for i in range(50)],
            rng.normal(0, 1, (50, 40)),
        )
        path = tmp_path / "expr.tsv"
        write_expression_tsv(ds, path)
        back = read_expression_tsv(path)
        assert back.gene_ids == ds.gene_ids
        assert back.sample_ids == ds.sample_ids
        assert np.array_equal(back.samples, ds.samples)
        write_expression_tsv(back, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "content,line",
        [
            ("sample_id\tg1\na\t1.0\t2.0\n", 2),  # ragged row
            ("sample_id\tg1\na\tzebra\n", 2),  # non-numeric
            ("sample_id\tg1\tg1\n", 1),  # duplicate gene
            ("sample_id\tg1\na\t1.0\na\t2.0\n", 3),  # duplicate sample
            ("sample_id\tg1\na\tinf\n", 2),  # non-finite
        ],
    )
    def test_parse_errors(self, tmp_path, content, line):
        path = tmp_path / "bad.tsv"
        path.write_text(content)
        with pytest.raises(ParseError) as err:
            read_expression_tsv(path)
        assert err.value.line == line

    def test_bad_leading_column(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\tg1\n")
        with pytest.raises(ParseError):
            read_expression_tsv(path)


class TestLabelsTsv:
    def test_regression_round_trip(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_labels_tsv(["a", "b"], np.array([[0.5], [-2.25]]), path)
        ids, values = read_labels_tsv(path, "regression")
        assert ids == ("a", "b")
        assert values.tolist() == [[0.5], [-2.25]]
        write_labels_tsv(ids, values, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    def test_classification_round_trip(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_labels_tsv(["a", "b", "c"], np.array([0, 2, 1], dtype=np.int64), path)
        ids, values = read_labels_tsv(path, "classification")
        assert values.dtype == np.int64
        assert values.tolist() == [0, 2, 1]

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        with pytest.raises(ValueError, match="columns of 3 and 2 rows"):
            write_labels_tsv(["a", "b", "c"], np.array([1.0, 2.0]), path)
        with pytest.raises(ValueError, match="columns of 1 and 2 rows"):
            write_labels_tsv(["a"], np.array([0, 1], dtype=np.int64), path)
        assert not path.exists()

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("sample_id\tlabel\na\t1\n")
        with pytest.raises(ValueError, match="^kind must be regression or classification, got 'ordinal'$"):
            read_labels_tsv(path, "ordinal")

    def test_two_label_columns_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        with pytest.raises(ValueError, match="^label TSV supports exactly one label column$"):
            write_labels_tsv(["a", "b"], np.zeros((2, 2)), path)
        assert not path.exists()

    def test_attach_matches_by_sample_id(self, tmp_path):
        ds = ExpressionDataset("sp", ["g1"], ["a", "b"], [[1.0], [2.0]])
        path = tmp_path / "labels.tsv"
        path.write_text("sample_id\tlabel\nb\t5.0\na\t4.0\n")
        joined = attach_labels(ds, path, "regression")
        assert joined.labels.tolist() == [[4.0], [5.0]]

    def test_attach_missing_sample(self, tmp_path):
        ds = ExpressionDataset("sp", ["g1"], ["a", "b"], [[1.0], [2.0]])
        path = tmp_path / "labels.tsv"
        path.write_text("sample_id\tlabel\na\t4.0\n")
        with pytest.raises(ValueError):
            attach_labels(ds, path, "regression")

    @pytest.mark.parametrize(
        "content,kind",
        [
            ("sample_id\tlabel\na\tx\n", "regression"),
            ("sample_id\tlabel\na\t1.5\n", "classification"),
            ("sample_id\tlabel\na\t-3\n", "classification"),
            ("sample_id\tlabel\na\t1.0\na\t2.0\n", "regression"),
        ],
    )
    def test_parse_errors(self, tmp_path, content, kind):
        path = tmp_path / "bad.tsv"
        path.write_text(content)
        with pytest.raises(ParseError):
            read_labels_tsv(path, kind)


class TestAlignToGenes:
    def test_identity(self):
        ds = toy_dataset()
        aligned, dropped = align_to_genes(ds, ["g1", "g2", "g3"])
        assert dropped == 0
        assert np.array_equal(aligned.samples, ds.samples)

    def test_reversed(self):
        aligned, _ = align_to_genes(toy_dataset(), ["g3", "g2", "g1"])
        assert aligned.gene_ids == ("g3", "g2", "g1")
        assert aligned.samples.tolist() == [[3.0, 2.0, 1.0], [6.0, 5.0, 4.0]]

    def test_extra_gene_dropped_with_count(self):
        aligned, dropped = align_to_genes(toy_dataset(), ["g1", "g3"])
        assert dropped == 1
        assert aligned.samples.tolist() == [[1.0, 3.0], [4.0, 6.0]]

    def test_missing_gene(self):
        with pytest.raises(UnknownGeneError, match="g9"):
            align_to_genes(toy_dataset(), ["g1", "g9"])

    def test_labels_preserved(self):
        aligned, _ = align_to_genes(toy_dataset(), ["g2"])
        assert aligned.labels.tolist() == [[0.5], [1.5]]


class TestDatasetValidation:
    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            ExpressionDataset("sp", ["g1", "g1"], ["a"], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            ExpressionDataset("sp", ["g1"], ["a", "a"], [[1.0], [2.0]])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            ExpressionDataset("sp", ["g1"], ["a"], [[np.nan]])

    def test_label_count(self):
        with pytest.raises(ValueError):
            ExpressionDataset("sp", ["g1"], ["a"], [[1.0]], np.array([[1.0], [2.0]]))

    @pytest.mark.parametrize(
        "samples, labels, message",
        [
            ([1.0, 2.0], None, r"samples must be 2-D, got shape \(2,\)"),
            ([[1.0], [2.0]], None, r"samples shape \(2, 1\) does not match 1 sample IDs x 2 gene IDs"),
            ([[1.0, 2.0]], np.array([1.0]), "regression labels must be 2-D"),
            ([[1.0, 2.0]], np.array([[np.nan]]), "labels must be finite"),
            ([[1.0, 2.0]], np.array([[1]]), "class labels must be 1-D"),
            ([[1.0, 2.0]], np.array([-1]), "class labels must be non-negative"),
            ([[1.0, 2.0]], np.array(["x"]), "unsupported label dtype <U1"),
        ],
    )
    def test_refused_samples_and_labels(self, samples, labels, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            ExpressionDataset("sp", ["g1", "g2"], ["a"], samples, labels)


SPEC = SyntheticSpec(
    n_sources=30,
    n_targets=20,
    orthology_density=0.1,
    num_samples=500,
    noise_sigma=0.05,
    hidden_dim=8,
    seed=42,
)


class TestGenerateSynthetic:
    def test_zero_noise_oracle_is_exact(self):
        spec = SyntheticSpec(12, 9, 0.2, 40, 0.0, 4, 7)
        bundle = generate_synthetic(spec)
        assert bundle.oracle_loss == 0.0
        assert evaluate(bundle.frozen_net, bundle.true_conversion, bundle.test) == 0.0

    def test_deterministic(self):
        a = generate_synthetic(SPEC)
        b = generate_synthetic(SPEC)
        assert model_document(a.frozen_net, a.true_conversion) == model_document(
            b.frozen_net, b.true_conversion
        )
        assert np.array_equal(a.train.samples, b.train.samples)
        assert np.array_equal(a.test.labels, b.test.labels)
        assert a.oracle_loss == b.oracle_loss

    def test_every_target_row_connected(self):
        # density low enough that empty rows would occur without forcing
        spec = SyntheticSpec(8, 25, 0.02, 10, 0.0, 2, 3)
        bundle = generate_synthetic(spec)
        assert bundle.graph.row_degrees().min() >= 1

    def test_ground_truth_on_support(self):
        bundle = generate_synthetic(SPEC)
        dense = bundle.true_conversion.to_dense()
        dense[bundle.graph.edge_rows, bundle.graph.edge_cols] = 0.0
        assert not dense.any()

    def test_oracle_loss_near_noise_variance(self):
        bundle = generate_synthetic(SPEC)
        sigma_sq = SPEC.noise_sigma**2
        assert abs(bundle.oracle_loss - sigma_sq) / sigma_sq <= 0.3

    def test_split_sizes(self):
        bundle = generate_synthetic(SPEC)
        assert bundle.train.n_samples == 400
        assert bundle.test.n_samples == 100
        assert set(bundle.train.sample_ids).isdisjoint(bundle.test.sample_ids)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(0, 5, 0.5, 10, 0.0, 2, 0)
        with pytest.raises(ValueError):
            SyntheticSpec(5, 5, 0.0, 10, 0.0, 2, 0)
        with pytest.raises(ValueError):
            SyntheticSpec(5, 5, 0.5, 1, 0.0, 2, 0)
        with pytest.raises(ValueError):
            SyntheticSpec(5, 5, 0.5, 10, -0.1, 2, 0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 5, 0.5, 10, 0.0, 2, 0), "n_sources must be >= 1, got 0"),
            ((5, 0, 0.5, 10, 0.0, 2, 0), "n_targets must be >= 1, got 0"),
            ((5, 5, 0.5, 1, 0.0, 2, 0), "num_samples must be >= 2, got 1"),
            ((5, 5, 0.5, 10, 0.0, 0, 0), "hidden_dim must be >= 1, got 0"),
            ((5, 5, 0.5, 10, 0.0, 2, -1), "seed must fit in 64 unsigned bits, got -1"),
            ((5, 5, 0.5, 10, 0.0, 2, 2**64), f"seed must fit in 64 unsigned bits, got {2**64}"),
        ],
    )
    def test_range_messages_name_the_field(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SyntheticSpec(*args)

    def test_rejects_non_integer_counts(self):
        # used to be built and then fail inside generate_synthetic
        with pytest.raises(ValueError, match="^n_sources must be an integer, got 6.5$"):
            SyntheticSpec(6.5, 5, 0.5, 10, 0.0, 2, 0)
        with pytest.raises(ValueError, match="^hidden_dim must be an integer, got True$"):
            SyntheticSpec(6, 5, 0.5, 10, 0.0, True, 0)

    def test_rejects_non_real_fractions(self):
        # a bool used to construct as density 1.0 and noise 0.0
        with pytest.raises(ValueError, match="^orthology_density must be a real number, got True$"):
            SyntheticSpec(5, 5, True, 10, False, 2, 0)
        with pytest.raises(ValueError, match="^noise_sigma must be a real number, got False$"):
            SyntheticSpec(5, 5, 0.5, 10, False, 2, 0)
        with pytest.raises(ValueError, match="^orthology_density must be a real number, got '0.5'$"):
            SyntheticSpec(5, 5, "0.5", 10, 0.0, 2, 0)
        with pytest.raises(ValueError, match="^noise_sigma must be a real number, got None$"):
            SyntheticSpec(5, 5, 0.5, 10, None, 2, 0)

    def test_numpy_reals_write_a_bundle(self, tmp_path):
        spec = SyntheticSpec(6, 5, np.float32(0.1), 20, np.float64(0.01), 3, 11)
        assert type(spec.orthology_density) is float and type(spec.noise_sigma) is float
        assert spec.orthology_density == float(np.float32(0.1))
        paths = write_bundle(generate_synthetic(spec), spec, tmp_path)
        with open(paths["meta"], encoding="utf-8") as fh:
            meta = json.load(fh)
        assert (meta["orthology_density"], meta["noise_sigma"]) == (float(np.float32(0.1)), 0.01)

    def test_numpy_integers_write_a_bundle(self, tmp_path):
        spec = SyntheticSpec(np.int64(6), 5, 0.3, np.int32(20), 0.01, 3, np.uint64(11))
        paths = write_bundle(generate_synthetic(spec), spec, tmp_path)
        with open(paths["meta"], encoding="utf-8") as fh:
            meta = json.load(fh)
        assert (meta["n_sources"], meta["num_samples"], meta["seed"]) == (6, 20, 11)


class TestWriteBundle:
    def test_files_and_determinism(self, tmp_path):
        spec = SyntheticSpec(6, 5, 0.3, 20, 0.01, 3, 11)
        bundle = generate_synthetic(spec)
        paths = write_bundle(bundle, spec, tmp_path / "one")
        for p in paths.values():
            assert (tmp_path / "one").joinpath(p.split("/")[-1]).exists()
        again = write_bundle(generate_synthetic(spec), spec, tmp_path / "two")
        for key in paths:
            with open(paths[key], "rb") as fa, open(again[key], "rb") as fb:
                assert fa.read() == fb.read()


class TestEmptyEdgeCases:
    def test_empty_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_labels_tsv([], np.zeros((0, 1)), path)
        ids, values = read_labels_tsv(path, "regression")
        assert ids == () and values.shape == (0, 1)

    def test_attach_to_empty_dataset(self, tmp_path):
        ds = ExpressionDataset("sp", ["g1"], [], np.zeros((0, 1)))
        path = tmp_path / "labels.tsv"
        path.write_text("sample_id\tlabel\n")
        joined = attach_labels(ds, path, "regression")
        assert joined.labels.shape == (0, 1)

    def test_zero_gene_expression_round_trip(self, tmp_path):
        ds = ExpressionDataset("sp", [], ["a", "b"], np.zeros((2, 0)))
        path = tmp_path / "expr.tsv"
        write_expression_tsv(ds, path)
        back = read_expression_tsv(path)
        assert back.n_genes == 0 and back.sample_ids == ("a", "b")
