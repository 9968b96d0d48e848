import json

import numpy as np
import pytest

from orthomask import cli
from orthomask.dataio import read_expression_tsv
from orthomask.interpret import read_weight_table
from orthomask.modelio import load_model


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle") / "b"
    rc = run(
        [
            "synth", "--n-s", "12", "--n-t", "8", "--density", "0.25",
            "--samples", "60", "--noise", "0.02", "--hidden", "4",
            "--seed", "5", "--out-dir", str(out),
        ]
    )
    assert rc == 0
    return out


def conversion_args(bundle, out, report, extra=()):
    return [
        "train-conversion",
        "--model", str(bundle / "base_model.json"),
        "--graph", str(bundle / "graph.tsv"),
        "--target-genes", str(bundle / "target_genes.tsv"),
        "--source-genes", str(bundle / "source_genes.tsv"),
        "--expr", str(bundle / "train_expr.tsv"),
        "--labels", str(bundle / "train_labels.tsv"),
        "--mode", "hard",
        "--lr", "0.01",
        "--steps", "300",
        "--seed", "3",
        "--out", str(out),
        "--report", str(report),
        *extra,
    ]


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert run(["build-graph", "--threshold", "0.5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["eval", "--model", "x", "--expr", "y", "--labels", "z", "--bogus", "1"]) == 1

    def test_unknown_subcommand(self):
        assert run(["explode"]) == 1

    def test_bad_flag_value(self):
        assert run(
            [
                "synth", "--n-s", "5", "--n-t", "5", "--density", "2.0",
                "--samples", "10", "--noise", "0.1", "--hidden", "2",
                "--seed", "1", "--out-dir", "x",
            ]
        ) == 1

    def test_zero_learning_rate_rejected(self, bundle_dir, tmp_path):
        argv = conversion_args(bundle_dir, tmp_path / "m.json", tmp_path / "r.tsv")
        argv[argv.index("--lr") + 1] = "0"
        assert run(argv) == 1


class TestBuildGraph:
    def test_end_to_end(self, tmp_path):
        (tmp_path / "tq.tsv").write_text("query\tsubject\tscore\nt1\ts1\t0.9\nt2\ts1\t0.2\n")
        (tmp_path / "qt.tsv").write_text("query\tsubject\tscore\ns1\tt1\t0.8\n")
        (tmp_path / "t.tsv").write_text("gene_id\nt1\nt2\n")
        (tmp_path / "s.tsv").write_text("gene_id\ns1\n")
        out = tmp_path / "graph.tsv"
        rc = run(
            [
                "build-graph", "--scores-tq", str(tmp_path / "tq.tsv"),
                "--scores-qt", str(tmp_path / "qt.tsv"),
                "--target-genes", str(tmp_path / "t.tsv"),
                "--source-genes", str(tmp_path / "s.tsv"),
                "--threshold", "0.5", "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.read_text() == "target_gene\tsource_gene\nt1\ts1\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        (tmp_path / "tq.tsv").write_text("wrong\theader\n")
        (tmp_path / "qt.tsv").write_text("query\tsubject\tscore\n")
        (tmp_path / "genes.tsv").write_text("gene_id\ng1\n")
        rc = run(
            [
                "build-graph", "--scores-tq", str(tmp_path / "tq.tsv"),
                "--scores-qt", str(tmp_path / "qt.tsv"),
                "--target-genes", str(tmp_path / "genes.tsv"),
                "--source-genes", str(tmp_path / "genes.tsv"),
                "--threshold", "0.5", "--out", str(tmp_path / "g.tsv"),
            ]
        )
        assert rc == 2
        assert "tq.tsv" in capsys.readouterr().err


class TestSynth:
    def test_oracle_model_evaluates_to_zero_without_noise(self, tmp_path, capsys):
        out = tmp_path / "b"
        rc = run(
            [
                "synth", "--n-s", "10", "--n-t", "6", "--density", "0.3",
                "--samples", "40", "--noise", "0", "--hidden", "3",
                "--seed", "2", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = run(
            [
                "eval", "--model", str(out / "oracle_model.json"),
                "--expr", str(out / "test_expr.tsv"),
                "--labels", str(out / "test_labels.tsv"),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.0"

    def test_meta_records_oracle_loss(self, bundle_dir):
        meta = json.loads((bundle_dir / "meta.json").read_text())
        assert meta["seed"] == 5
        assert meta["oracle_loss"] >= 0.0


class TestTrainBase:
    def test_trains_and_freezes(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "base.json"
        rc = run(
            [
                "train-base",
                "--expr", str(bundle_dir / "train_expr.tsv"),
                "--labels", str(bundle_dir / "train_labels.tsv"),
                "--hidden", "4", "--loss", "mse", "--lr", "0.01",
                "--steps", "50", "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        net, conv = load_model(out)
        assert net.frozen and conv is None
        assert net.input_dim == 12

    def test_classification_head(self, tmp_path):
        (tmp_path / "expr.tsv").write_text(
            "sample_id\tg1\tg2\na\t1.0\t0.0\nb\t0.0\t1.0\nc\t1.0\t1.0\n"
        )
        (tmp_path / "labels.tsv").write_text("sample_id\tlabel\na\t0\nb\t1\nc\t1\n")
        out = tmp_path / "clf.json"
        rc = run(
            [
                "train-base", "--expr", str(tmp_path / "expr.tsv"),
                "--labels", str(tmp_path / "labels.tsv"),
                "--hidden", "3", "--loss", "ce", "--lr", "0.1",
                "--steps", "20", "--seed", "4", "--out", str(out),
            ]
        )
        assert rc == 0
        net, _ = load_model(out)
        assert net.output_dim == 2


class TestTrainConversionAndEval:
    def test_pipeline_and_determinism(self, bundle_dir, tmp_path, capsys):
        out_a, rep_a = tmp_path / "a.json", tmp_path / "a.tsv"
        out_b, rep_b = tmp_path / "b.json", tmp_path / "b.tsv"
        assert run(conversion_args(bundle_dir, out_a, rep_a)) == 0
        assert run(conversion_args(bundle_dir, out_b, rep_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert rep_a.read_bytes() == rep_b.read_bytes()

        capsys.readouterr()
        rc = run(
            [
                "eval", "--model", str(out_a),
                "--expr", str(bundle_dir / "test_expr.tsv"),
                "--labels", str(bundle_dir / "test_labels.tsv"),
            ]
        )
        assert rc == 0
        loss = float(capsys.readouterr().out.strip())
        assert np.isfinite(loss) and loss >= 0.0

    def test_soft_mode_and_warm_start(self, bundle_dir, tmp_path):
        hard_out, hard_rep = tmp_path / "hard.json", tmp_path / "hard.tsv"
        assert run(conversion_args(bundle_dir, hard_out, hard_rep)) == 0
        # warm-start soft training from the trained hard model
        argv = conversion_args(bundle_dir, tmp_path / "soft.json", tmp_path / "soft.tsv",
                               extra=["--alpha", "2.0"])
        argv[argv.index("--model") + 1] = str(hard_out)
        argv[argv.index("--mode") + 1] = "soft"
        assert run(argv) == 0
        _, conv = load_model(tmp_path / "soft.json")
        assert conv.mode == "soft"
        assert conv.weights.shape == (8, 12)

    def test_unfrozen_model_rejected(self, bundle_dir, tmp_path):
        from orthomask.modelio import save_model

        net, _ = load_model(bundle_dir / "base_model.json")
        thawed = net.copy(frozen=False)
        bad = tmp_path / "thawed.json"
        save_model(thawed, None, bad)
        argv = conversion_args(bundle_dir, tmp_path / "m.json", tmp_path / "r.tsv")
        argv[argv.index("--model") + 1] = str(bad)
        assert run(argv) == 2

    def test_numerical_failure_exit_code(self, bundle_dir, tmp_path):
        argv = conversion_args(bundle_dir, tmp_path / "m.json", tmp_path / "r.tsv",
                               extra=["--optimizer", "sgd"])
        argv[argv.index("--lr") + 1] = "1e200"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(argv) == 3


class TestClassLabelOutOfRange:
    """A class label at or above the model's logit count exits 2 with a
    message that names the logit count, in training and in evaluation."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "base_expr.tsv").write_text("sample_id\tt1\tt2\na\t1.0\t0.0\nb\t0.0\t1.0\n")
        (tmp_path / "base_labels.tsv").write_text("sample_id\tlabel\na\t0\nb\t1\n")
        assert run(
            [
                "train-base", "--expr", str(tmp_path / "base_expr.tsv"),
                "--labels", str(tmp_path / "base_labels.tsv"),
                "--hidden", "2", "--loss", "ce", "--lr", "0.1",
                "--steps", "2", "--seed", "1", "--out", str(tmp_path / "clf.json"),
            ]
        ) == 0
        (tmp_path / "t.tsv").write_text("gene_id\nt1\nt2\n")
        (tmp_path / "s.tsv").write_text("gene_id\ns1\ns2\n")
        (tmp_path / "graph.tsv").write_text("target_gene\tsource_gene\nt1\ts1\nt2\ts2\n")
        (tmp_path / "expr.tsv").write_text("sample_id\ts1\ts2\na\t1.0\t0.0\nb\t0.0\t1.0\n")
        (tmp_path / "labels.tsv").write_text("sample_id\tlabel\na\t0\nb\t2\n")
        return tmp_path

    def test_eval(self, files, capsys):
        rc = run(
            ["eval", "--model", str(files / "clf.json"), "--expr", str(files / "base_expr.tsv"),
             "--labels", str(files / "labels.tsv")]
        )
        assert rc == 2
        assert "class index out of range for 2 logits" in capsys.readouterr().err

    def test_train_conversion(self, files, capsys):
        rc = run(
            [
                "train-conversion", "--model", str(files / "clf.json"),
                "--graph", str(files / "graph.tsv"),
                "--target-genes", str(files / "t.tsv"), "--source-genes", str(files / "s.tsv"),
                "--expr", str(files / "expr.tsv"), "--labels", str(files / "labels.tsv"),
                "--mode", "hard", "--lr", "0.01", "--steps", "2", "--seed", "1",
                "--out", str(files / "m.json"), "--report", str(files / "r.tsv"),
            ]
        )
        assert rc == 2
        assert "class index out of range for 2 logits" in capsys.readouterr().err
        assert not (files / "m.json").exists()


class TestPredict:
    def test_row_order_matches_input(self, bundle_dir, tmp_path):
        model = tmp_path / "m.json"
        report = tmp_path / "r.tsv"
        assert run(conversion_args(bundle_dir, model, report)) == 0
        out = tmp_path / "pred.tsv"
        rc = run(
            ["predict", "--model", str(model), "--expr", str(bundle_dir / "test_expr.tsv"),
             "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_id\tprediction"
        expr = read_expression_tsv(bundle_dir / "test_expr.tsv")
        assert [ln.split("\t")[0] for ln in lines[1:]] == list(expr.sample_ids)
        values = [float(ln.split("\t")[1]) for ln in lines[1:]]
        assert all(np.isfinite(values))

    def test_repeat_is_byte_identical(self, bundle_dir, tmp_path):
        model = tmp_path / "m.json"
        assert run(conversion_args(bundle_dir, model, tmp_path / "r.tsv")) == 0
        out1, out2 = tmp_path / "p1.tsv", tmp_path / "p2.tsv"
        for out in (out1, out2):
            assert run(
                ["predict", "--model", str(model),
                 "--expr", str(bundle_dir / "test_expr.tsv"), "--out", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestInspectWeights:
    def test_full_table(self, bundle_dir, tmp_path):
        model = tmp_path / "m.json"
        assert run(conversion_args(bundle_dir, model, tmp_path / "r.tsv")) == 0
        out = tmp_path / "weights.tsv"
        assert run(["inspect-weights", "--model", str(model), "--out", str(out)]) == 0
        rows = read_weight_table(out)
        _, conv = load_model(model)
        assert len(rows) == conv.mask.n_edges
        assert all(r[3] for r in rows)

    def test_top_k_for_gene(self, bundle_dir, tmp_path):
        model = tmp_path / "m.json"
        assert run(conversion_args(bundle_dir, model, tmp_path / "r.tsv")) == 0
        out = tmp_path / "top.tsv"
        assert run(
            ["inspect-weights", "--model", str(model), "--target-gene", "T0000",
             "--top", "2", "--out", str(out)]
        ) == 0
        rows = read_weight_table(out)
        assert 1 <= len(rows) <= 2
        assert all(r[0] == "T0000" for r in rows)
        mags = [abs(r[2]) for r in rows]
        assert mags == sorted(mags, reverse=True)

    def test_model_without_conversion_rejected(self, bundle_dir, tmp_path):
        rc = run(
            ["inspect-weights", "--model", str(bundle_dir / "base_model.json"),
             "--out", str(tmp_path / "w.tsv")]
        )
        assert rc == 2
