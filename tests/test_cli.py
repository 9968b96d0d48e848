import argparse
import ast
import gc
import hashlib
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import orthomask
from orthomask import cli, modelio, netcore, training
from orthomask.errors import ParseError
from orthomask.dataio import ExpressionDataset, read_expression_tsv, write_expression_tsv
from orthomask.modelio import load_model, save_model
from orthomask.netcore import (
    ACT_IDENTITY,
    ACT_RELU,
    FeedforwardNetwork,
    Layer,
    MaskedLinearLayer,
    model_forward,
)
from orthomask.orthograph import BiadjacencyMatrix, ScoreTable, read_gene_list, write_score_table
from orthomask.training import initialize_conversion_layer

from _helpers import earlier_layout, read_weight_rows


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


def assert_constant_losses(report, steps):
    # full batch reshuffles the samples every step, so equal losses may
    # differ in the last bits by summation order
    lines = report.read_text().splitlines()
    losses = [float(line.split("\t")[1]) for line in lines[1:-1]]
    assert losses == pytest.approx([losses[0]] * steps, rel=1e-14, abs=0.0)


@pytest.fixture
def clf_files(tmp_path):
    """A frozen two-logit classifier on target genes t1, t2, a one-to-one
    graph to source genes s1, s2, and source expression for samples a, b."""
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
    return tmp_path


def clf_conversion_args(files, labels):
    return [
        "train-conversion", "--model", str(files / "clf.json"),
        "--graph", str(files / "graph.tsv"),
        "--target-genes", str(files / "t.tsv"), "--source-genes", str(files / "s.tsv"),
        "--expr", str(files / "expr.tsv"), "--labels", str(labels),
        "--mode", "hard", "--lr", "0.01", "--steps", "2", "--seed", "1",
        "--out", str(files / "m.json"), "--report", str(files / "r.tsv"),
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


def _refused_cases():
    trainers = ["train-base", "train-conversion"]
    shared = [("--lr", "0", "learning_rate"), ("--lr", "nan", "learning_rate"),
              ("--steps", "0", "steps"), ("--batch-size", "0", "batch_size"),
              ("--seed", "-1", "seed"), ("--seed", str(2**64), "seed")]
    return [
        *((command, *case) for command in trainers for case in shared),
        ("train-conversion", "--alpha", "-1", "alpha"),
        ("train-conversion", "--beta", "inf", "beta"),
        ("build-graph", "--threshold", "-1", "threshold"),
        ("build-graph", "--tie-tol", "nan", "tie_tolerance"),
        ("synth", "--n-s", "0", "n_sources"),
        ("synth", "--n-t", "0", "n_targets"),
        ("synth", "--density", "0", "orthology_density"),
        ("synth", "--density", "1.5", "orthology_density"),
        ("synth", "--samples", "1", "num_samples"),
        ("synth", "--noise", "-0.1", "noise_sigma"),
        ("synth", "--hidden", "0", "hidden_dim"),
    ]


class TestRefusedSettings:
    """A value outside a setting's range is a usage error (exit 1) that names
    the config field. The inputs named here do not exist, so a refusal that
    waited for them would exit 2: the check runs before any file is read."""

    @staticmethod
    def argv(tmp_path, command):
        absent = str(tmp_path / "absent.tsv")
        return {
            "train-base": [
                "--expr", absent, "--labels", absent, "--hidden", "2", "--loss", "mse",
                "--lr", "0.1", "--steps", "2", "--seed", "1", "--out", str(tmp_path / "m.json"),
            ],
            "train-conversion": [
                "--model", absent, "--graph", absent, "--target-genes", absent,
                "--source-genes", absent, "--expr", absent, "--labels", absent,
                "--mode", "soft", "--lr", "0.1", "--steps", "2", "--seed", "1",
                "--out", str(tmp_path / "m.json"), "--report", str(tmp_path / "r.tsv"),
            ],
            "build-graph": [
                "--scores-tq", absent, "--scores-qt", absent, "--target-genes", absent,
                "--source-genes", absent, "--threshold", "0.5", "--out", str(tmp_path / "g.tsv"),
            ],
            "synth": [
                "--n-s", "5", "--n-t", "5", "--density", "0.5", "--samples", "10",
                "--noise", "0.1", "--hidden", "2", "--seed", "1",
                "--out-dir", str(tmp_path / "bundle"),
            ],
        }[command]

    @pytest.mark.parametrize("command, flag, value, field", _refused_cases())
    def test_exits_1_naming_the_setting(self, tmp_path, capsys, command, flag, value, field):
        argv = [command, *self.argv(tmp_path, command), flag, value]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"orthomask: error: {field} must ")
        assert value in captured.err.splitlines()[0]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def count_argv(self, tmp_path, command):
        if command == "inspect-weights":
            absent = str(tmp_path / "absent.tsv")
            return ["--model", absent, "--target-gene", "T0000", "--out", str(tmp_path / "w.tsv")]
        return self.argv(tmp_path, command)

    @pytest.mark.parametrize("command, flag", [("inspect-weights", "--top"), ("train-base", "--hidden")])
    def test_counts_below_1_exit_1(self, tmp_path, capsys, command, flag):
        assert run([command, *self.count_argv(tmp_path, command), flag, "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"orthomask: error: argument {flag}: must be >= 1, got 0\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["x", "2.5"])
    @pytest.mark.parametrize("command, flag", [("inspect-weights", "--top"), ("train-base", "--hidden")])
    def test_counts_not_an_integer_exit_1(self, tmp_path, capsys, command, flag, value):
        # the words of every type=int flag, such as --steps
        assert run([command, *self.count_argv(tmp_path, command), flag, value]) == 1
        captured = capsys.readouterr()
        message, _, usage = captured.err.partition("\n")
        assert message == f"orthomask: error: argument {flag}: invalid int value: '{value}'"
        assert usage.startswith(f"usage: orthomask {command} ")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flag, value, choices",
        [
            ("train-base", "--optimizer", "adagrad", "'sgd', 'adam'"),
            ("train-conversion", "--optimizer", "x", "'sgd', 'adam'"),
            ("train-conversion", "--mode", "medium", "'hard', 'soft'"),
        ],
    )
    def test_bad_choice_exits_1(self, tmp_path, capsys, command, flag, value, choices):
        assert run([command, *self.argv(tmp_path, command), flag, value]) == 1
        captured = capsys.readouterr()
        message, _, usage = captured.err.partition("\n")
        assert message == f"orthomask: error: argument {flag}: invalid choice: '{value}' (choose from {choices})"
        assert usage.startswith(f"usage: orthomask {command} ")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_top_without_target_gene_exits_1(self, tmp_path, capsys):
        # the whole table has no top to keep: refused before the model is read
        out = tmp_path / "w.tsv"
        argv = ["--model", str(tmp_path / "absent.json"), "--top", "5", "--out", str(out)]
        assert run(["inspect-weights", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("orthomask: error: --top needs --target-gene\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, usage",
        [
            # argparse's own refusals: of a command's flags, and of the command
            (["eval", "--model", "x.json"], "orthomask eval "),
            (["inspect-weights", "--model", "x.json", "--top", "0", "--target-gene", "T",
              "--out", "w.tsv"], "orthomask inspect-weights "),
            (["predict", "--model", "x.json", "--expr", "x.tsv", "--out", "p.tsv", "--bogus"],
             "orthomask predict "),
            (["bogus"], "orthomask [-h]"),
            # refusals in a command's body
            (["inspect-weights", "--model", "x.json", "--top", "5", "--out", "w.tsv"],
             "orthomask inspect-weights "),
            (["synth", "--n-s", "5", "--n-t", "5", "--density", "0.5", "--samples", "10",
              "--noise", "0.1", "--hidden", "0", "--seed", "1", "--out-dir", "b"], "orthomask synth "),
        ],
    )
    def test_usage_error_shows_the_usage_at_fault(self, tmp_path, monkeypatch, capsys, argv, usage):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        message, *usage_lines = capsys.readouterr().err.splitlines()
        assert message.startswith("orthomask: error: ")
        assert usage_lines[0].startswith(f"usage: {usage}")
        assert list(tmp_path.iterdir()) == []

    def test_base_arguments_run_to_the_first_read(self, tmp_path, capsys):
        # the arguments above are valid, so each command fails on a missing input
        for command in ("train-base", "train-conversion", "build-graph"):
            assert run([command, *self.argv(tmp_path, command)]) == 2
            assert "absent.tsv" in capsys.readouterr().err


# sha256 of each parser's format_help() and format_usage() at 80 columns,
# recorded while the parser still read its choices from training and netcore;
# the top-level text again when its description named the out-of-memory exit
PARSER_TEXT_SHA256 = {
    "": "5654444207e733bd1a1eb63fffc44ae490ad77a2385bedaf410f49f5920bdbb4",
    "build-graph": "b363ab15a2ff7f3a13c9495b7c7d31c5b7c1e0f82449868f12c163b592758213",
    "eval": "59f2ff68b9eef43c63d9479f67985096984f87018942d3678fb01634a77bedd1",
    "inspect-weights": "8cf8378325c687a39743d7f1f7bbc5c3e1d320d786e4ab08eb4083b812047015",
    "predict": "6f6b58d3f9430b6e62854682f1339b2fb7c17e8dd6c54cc0e948087f875b9536",
    "synth": "b915fd8e9bc7df818960b81225eb4b0b07f75e2cf99aea13259473784e58363c",
    "train-base": "32892cea721f8368ca3dd98d5a28eb9acf8e0c2733999ec6d8d659cd7fc6c719",
    "train-conversion": "f33135b16e7380d24f86e1349935c6f5738f7d0854acb7febce1e4d16c963296",
}


class TestParserDeclarations:
    """A range check lives in its config only; the trainers share their flags."""

    SHARED = ["--expr", "--labels", "--lr", "--steps", "--seed", "--batch-size", "--optimizer"]

    @pytest.fixture
    def commands(self):
        return next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices

    def test_only_unconfigured_flags_check_their_range(self, commands):
        custom = {
            (name, action.option_strings[0]): action.type
            for name, parser in commands.items()
            for action in parser._actions
            if action.type not in (None, int, float)
        }
        assert custom == {
            ("train-base", "--hidden"): cli._positive_int,
            ("inspect-weights", "--top"): cli._positive_int,
        }

    def test_trainers_share_one_flag_set_listed_first(self, commands):
        def leading(name):
            return [a for a in commands[name]._actions if a.dest != "help"][: len(self.SHARED)]

        base, conversion = leading("train-base"), leading("train-conversion")
        assert [a.option_strings[0] for a in base] == self.SHARED
        assert all(a is b for a, b in zip(base, conversion))

    def test_choices_and_defaults_spell_the_library_constants(self, commands):
        flags = {a.option_strings[0]: a for p in commands.values() for a in p._actions if a.option_strings}
        assert flags["--optimizer"].choices == list(training.OPTIMIZERS)
        assert flags["--optimizer"].default == training.OPT_ADAM
        assert flags["--batch-size"].default == training.FULL_BATCH
        assert flags["--mode"].choices == list(netcore.MODES)

    @pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 wraps usage lines differently")
    def test_help_and_usage_keep_their_text(self, commands, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        parsers = {"": cli.build_parser(), **commands}
        texts = {name: (p.format_help() + p.format_usage()).encode() for name, p in parsers.items()}
        assert {name: hashlib.sha256(text).hexdigest() for name, text in texts.items()} == PARSER_TEXT_SHA256

    def test_every_help_exits_0(self, commands, capsys):
        for name in commands:
            with pytest.raises(SystemExit) as exc:
                run([name, "--help"])
            assert exc.value.code == 0, name
            assert capsys.readouterr().out.startswith(f"usage: orthomask {name} ")


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


    def test_outputs_do_not_depend_on_hash_seed(self, bundle_dir, tmp_path):
        # string hashing, and so set and dict order, changes with
        # PYTHONHASHSEED; no such order may reach graph.tsv, model.json
        # or report.tsv
        rng = np.random.default_rng(23)
        targets = read_gene_list(bundle_dir / "target_genes.tsv")
        sources = read_gene_list(bundle_dir / "source_genes.tsv")
        for name, queries, subjects in (("tq", targets, sources), ("qt", sources, targets)):
            entries = [
                (q, s, float(np.round(rng.uniform(), 1)))
                for q in queries for s in subjects if rng.uniform() < 0.6
            ]
            write_score_table(ScoreTable("a", "b", entries), tmp_path / f"{name}.tsv")
        genes = ["--target-genes", str(bundle_dir / "target_genes.tsv"),
                 "--source-genes", str(bundle_dir / "source_genes.tsv")]
        src = str(Path(orthomask.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"hashseed{seed}"
            out.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            for argv in (
                ["build-graph", "--scores-tq", str(tmp_path / "tq.tsv"),
                 "--scores-qt", str(tmp_path / "qt.tsv"), *genes,
                 "--threshold", "0.3", "--tie-tol", "0.1", "--out", str(out / "graph.tsv")],
                ["train-conversion", "--model", str(bundle_dir / "base_model.json"),
                 "--graph", str(out / "graph.tsv"), *genes,
                 "--expr", str(bundle_dir / "train_expr.tsv"),
                 "--labels", str(bundle_dir / "train_labels.tsv"),
                 "--mode", "soft", "--lr", "0.01", "--steps", "20", "--seed", "3",
                 "--out", str(out / "model.json"), "--report", str(out / "report.tsv")],
            ):
                done = subprocess.run([sys.executable, "-m", "orthomask.cli", *argv],
                                      env=env, capture_output=True, text=True)
                assert done.returncode == 0, done.stderr
            outputs.append([(out / name).read_bytes()
                            for name in ("graph.tsv", "model.json", "report.tsv")])
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count(b"\n") > 2  # the graph has edges


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

    def test_classification_needs_two_classes(self, tmp_path, capsys):
        (tmp_path / "expr.tsv").write_text("sample_id\tg1\na\t1.0\nb\t0.0\n")
        # one class, whichever it is: the class count is not the largest
        # label plus one
        for label in ("0", "1", "2"):
            (tmp_path / "labels.tsv").write_text(f"sample_id\tlabel\na\t{label}\nb\t{label}\n")
            capsys.readouterr()
            assert run(
                [
                    "train-base", "--expr", str(tmp_path / "expr.tsv"),
                    "--labels", str(tmp_path / "labels.tsv"),
                    "--hidden", "2", "--loss", "ce", "--lr", "0.1",
                    "--steps", "2", "--seed", "1", "--out", str(tmp_path / "clf.json"),
                ]
            ) == 2
            assert "classification needs at least 2 classes in the labels" in capsys.readouterr().err
            assert not (tmp_path / "clf.json").exists()


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

    def test_model_in_the_earlier_layout(self, bundle_dir, tmp_path):
        # a base model with the digest earlier versions wrote trains to the
        # same bytes: the key is ignored, and the model is written anew
        base = bundle_dir / "base_model.json"
        doc = json.loads(base.read_text())
        earlier = tmp_path / "earlier.json"
        earlier.write_text(earlier_layout(doc, doc["network"]))
        outputs = []
        for model in (base, earlier):
            out = tmp_path / f"{model.stem}_trained.json"
            argv = conversion_args(bundle_dir, out, tmp_path / "r.tsv")
            argv[argv.index("--model") + 1] = str(model)
            assert run(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"network_sha256" not in outputs[0]

    def test_unfrozen_model_rejected(self, bundle_dir, tmp_path):
        from orthomask.modelio import save_model

        net, _ = load_model(bundle_dir / "base_model.json")
        thawed = FeedforwardNetwork(net.layers, frozen=False)
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


class TestWarmStart:
    """train-conversion on a model that holds a conversion layer starts from
    that layer, or exits 2 when the graph or the mode rules it out."""

    @pytest.fixture(scope="class")
    def trained(self, bundle_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("warm")
        models = {"hard": out / "hard.json", "soft": out / "soft.json"}
        assert run(conversion_args(bundle_dir, models["hard"], out / "hard.tsv")) == 0
        argv = conversion_args(bundle_dir, models["soft"], out / "soft.tsv")
        argv[argv.index("--model") + 1] = str(models["hard"])
        argv[argv.index("--mode") + 1] = "soft"
        assert run(argv) == 0
        return models

    @staticmethod
    def from_model(bundle, model, mode, tmp_path):
        argv = conversion_args(bundle, tmp_path / "m.json", tmp_path / "r.tsv")
        argv[argv.index("--model") + 1] = str(model)
        argv[argv.index("--mode") + 1] = mode
        return argv

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_same_mode_continues_from_the_saved_layer(self, bundle_dir, trained, tmp_path, mode):
        expr = read_expression_tsv(bundle_dir / "train_expr.tsv")
        zeros = tmp_path / "zeros.tsv"
        write_expression_tsv(
            ExpressionDataset(expr.species, expr.gene_ids, expr.sample_ids,
                              np.zeros_like(expr.samples)),
            zeros,
        )
        # zero inputs and no penalty give a zero gradient: the weights stay
        # where the run started
        argv = self.from_model(bundle_dir, trained[mode], mode, tmp_path)
        argv += ["--alpha", "0", "--beta", "0"]
        argv[argv.index("--steps") + 1] = "20"
        argv[argv.index("--expr") + 1] = str(zeros)
        assert run(argv) == 0
        saved = load_model(trained[mode])[1]
        conv = load_model(tmp_path / "m.json")[1]
        assert np.array_equal(conv.weights, saved.weights)
        fresh = initialize_conversion_layer(conv.mask, mode)
        assert not np.array_equal(conv.weights, fresh.weights)

    def test_graph_with_an_edge_fewer_rejected(self, bundle_dir, trained, tmp_path, capsys):
        graph = tmp_path / "graph.tsv"
        lines = (bundle_dir / "graph.tsv").read_text().splitlines(keepends=True)
        graph.write_text("".join(lines[:-1]))
        argv = self.from_model(bundle_dir, trained["hard"], "hard", tmp_path)
        argv[argv.index("--graph") + 1] = str(graph)
        capsys.readouterr()
        assert run(argv) == 2
        assert "saved conversion layer does not match the supplied graph" in capsys.readouterr().err

    def test_hard_from_soft_rejected(self, bundle_dir, trained, tmp_path, capsys):
        capsys.readouterr()
        assert run(self.from_model(bundle_dir, trained["soft"], "hard", tmp_path)) == 2
        assert "cannot warm-start a hard layer from a soft one" in capsys.readouterr().err


class TestClassLabelOutOfRange:
    """A class label at or above the model's logit count exits 2 with a
    message that names the logit count, in training and in evaluation."""

    @pytest.fixture
    def files(self, clf_files):
        (clf_files / "labels.tsv").write_text("sample_id\tlabel\na\t0\nb\t2\n")
        return clf_files

    def test_eval(self, files, capsys):
        rc = run(
            ["eval", "--model", str(files / "clf.json"), "--expr", str(files / "base_expr.tsv"),
             "--labels", str(files / "labels.tsv")]
        )
        assert rc == 2
        assert "class index out of range for 2 logits" in capsys.readouterr().err

    def test_train_conversion(self, files, capsys):
        assert run(clf_conversion_args(files, files / "labels.tsv")) == 2
        assert "class index out of range for 2 logits" in capsys.readouterr().err
        assert not (files / "m.json").exists()


class TestRealLabelsForClassifier:
    """Labels for a multi-logit model are read as class indices, so a real
    value is a parse error naming its line, in training and in evaluation."""

    @pytest.fixture
    def labels(self, clf_files):
        path = clf_files / "real_labels.tsv"
        path.write_text("sample_id\tlabel\na\t0.5\nb\t1\n")
        return path

    def test_eval(self, clf_files, labels, capsys):
        rc = run(
            ["eval", "--model", str(clf_files / "clf.json"),
             "--expr", str(clf_files / "base_expr.tsv"), "--labels", str(labels)]
        )
        assert rc == 2
        assert f"{labels}:2: non-integer class label '0.5'" in capsys.readouterr().err

    def test_train_conversion(self, clf_files, labels, capsys):
        assert run(clf_conversion_args(clf_files, labels)) == 2
        assert f"{labels}:2: non-integer class label '0.5'" in capsys.readouterr().err
        assert not (clf_files / "m.json").exists()


class TestHeaderOnlyExpression:
    """An expression file with a header and no samples exits 2 naming the
    file, in training and in evaluation."""

    @pytest.fixture
    def files(self, clf_files):
        (clf_files / "empty_expr.tsv").write_text("sample_id\ts1\ts2\n")
        (clf_files / "empty_base_expr.tsv").write_text("sample_id\tt1\tt2\n")
        (clf_files / "empty_labels.tsv").write_text("sample_id\tlabel\n")
        return clf_files

    def test_train_conversion(self, files, capsys):
        argv = clf_conversion_args(files, files / "empty_labels.tsv")
        argv[argv.index("--expr") + 1] = str(files / "empty_expr.tsv")
        assert run(argv) == 2
        assert f"no samples in {files / 'empty_expr.tsv'}" in capsys.readouterr().err
        assert not (files / "m.json").exists()
        assert not (files / "r.tsv").exists()

    def test_train_base(self, files, capsys):
        rc = run(
            ["train-base", "--expr", str(files / "empty_base_expr.tsv"),
             "--labels", str(files / "empty_labels.tsv"), "--hidden", "2", "--loss", "mse",
             "--lr", "0.1", "--steps", "2", "--seed", "1", "--out", str(files / "base.json")]
        )
        assert rc == 2
        assert f"no samples in {files / 'empty_base_expr.tsv'}" in capsys.readouterr().err
        assert not (files / "base.json").exists()

    def test_eval(self, files, capsys):
        rc = run(
            ["eval", "--model", str(files / "clf.json"),
             "--expr", str(files / "empty_base_expr.tsv"),
             "--labels", str(files / "empty_labels.tsv")]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert f"no samples in {files / 'empty_base_expr.tsv'}" in captured.err
        assert captured.out == ""


class TestInputsThatDoNotFitTheModel:
    """Expression columns or a graph that the model cannot read exit 2."""

    def test_eval_without_conversion_on_the_wrong_width(self, bundle_dir, capsys):
        # the base model reads 8 target genes; train_expr.tsv has 12 source genes
        rc = run(
            ["eval", "--model", str(bundle_dir / "base_model.json"),
             "--expr", str(bundle_dir / "train_expr.tsv"),
             "--labels", str(bundle_dir / "train_labels.tsv")]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"orthomask: error: {bundle_dir / 'train_expr.tsv'} has 12 genes but model expects 8 "
            "(model has no conversion layer; columns are used in file order)"
        )
        assert captured.out == ""

    def test_predict_with_a_source_gene_missing(self, clf_files, capsys):
        assert run(clf_conversion_args(clf_files, clf_files / "base_labels.tsv")) == 0
        expr = clf_files / "s1_only.tsv"
        expr.write_text("sample_id\ts1\na\t1.0\n")
        out = clf_files / "pred.tsv"
        capsys.readouterr()
        rc = run(["predict", "--model", str(clf_files / "m.json"), "--expr", str(expr),
                  "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"orthomask: error: {expr}: ")
        assert not out.exists()

    def test_train_conversion_graph_wider_than_the_model(self, clf_files, capsys):
        targets = clf_files / "t3.tsv"
        targets.write_text("gene_id\nt1\nt2\nt3\n")
        argv = clf_conversion_args(clf_files, clf_files / "base_labels.tsv")
        argv[argv.index("--target-genes") + 1] = str(targets)
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"orthomask: error: model {clf_files / 'clf.json'} expects 2 target genes "
            f"but graph {clf_files / 'graph.tsv'} has 3\n"
        )
        assert not (clf_files / "m.json").exists()
        assert not (clf_files / "r.tsv").exists()


class TestDegenerateInputs:
    """Inputs that leave nothing to learn still run to a clean exit 0."""

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_graph_without_edges(self, bundle_dir, tmp_path, mode):
        graph = tmp_path / "graph.tsv"
        graph.write_text("target_gene\tsource_gene\n")
        model, report = tmp_path / "m.json", tmp_path / "r.tsv"
        argv = conversion_args(bundle_dir, model, report)
        argv[argv.index("--steps") + 1] = "20"
        argv[argv.index("--graph") + 1] = str(graph)
        argv[argv.index("--mode") + 1] = mode
        assert run(argv) == 0
        _, conv = load_model(model)
        assert conv.mask.n_edges == 0
        if mode == "hard":
            # no weight to train: the loss never moves
            assert_constant_losses(report, 20)
            table = tmp_path / "w.tsv"
            assert run(["inspect-weights", "--model", str(model), "--out", str(table)]) == 0
            assert table.read_text() == "target_gene\tsource_gene\tweight\ton_support\n"
        test_expr = str(bundle_dir / "test_expr.tsv")
        assert run(["eval", "--model", str(model), "--expr", test_expr,
                    "--labels", str(bundle_dir / "test_labels.tsv")]) == 0
        assert run(["predict", "--model", str(model), "--expr", test_expr,
                    "--out", str(tmp_path / "p.tsv")]) == 0

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_all_zero_expression(self, bundle_dir, tmp_path, mode):
        expr = read_expression_tsv(bundle_dir / "train_expr.tsv")
        zeros = tmp_path / "zeros.tsv"
        write_expression_tsv(
            ExpressionDataset(expr.species, expr.gene_ids, expr.sample_ids,
                              np.zeros_like(expr.samples)),
            zeros,
        )
        model, report = tmp_path / "m.json", tmp_path / "r.tsv"
        argv = conversion_args(bundle_dir, model, report)
        argv[argv.index("--steps") + 1] = "20"
        argv[argv.index("--expr") + 1] = str(zeros)
        argv[argv.index("--mode") + 1] = mode
        assert run(argv) == 0
        # zero inputs give a zero gradient, and the initial soft weights
        # carry no penalty gradient at beta = 0
        assert_constant_losses(report, 20)
        _, conv = load_model(model)
        initial = initialize_conversion_layer(conv.mask, mode)
        assert np.array_equal(conv.weights, initial.weights)


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

    def test_classifier_writes_class_indices(self, clf_files):
        assert run(clf_conversion_args(clf_files, clf_files / "base_labels.tsv")) == 0
        model, out = clf_files / "m.json", clf_files / "pred.tsv"
        assert run(["predict", "--model", str(model), "--expr", str(clf_files / "expr.tsv"),
                    "--out", str(out)]) == 0
        net, conv = load_model(model)
        expr = read_expression_tsv(clf_files / "expr.tsv")
        classes = model_forward(net, conv, expr.samples).argmax(axis=1)
        assert out.read_text().splitlines() == [
            "sample_id\tprediction", f"a\t{classes[0]}", f"b\t{classes[1]}"
        ]

    def test_extra_genes_dropped_with_a_warning(self, clf_files, capsys):
        assert run(clf_conversion_args(clf_files, clf_files / "base_labels.tsv")) == 0
        model, wide = clf_files / "m.json", clf_files / "wide.tsv"
        wide.write_text("sample_id\tx1\ts2\tx2\ts1\na\t5.0\t0.0\t-3.0\t1.0\nb\t7.0\t1.0\t2.0\t0.0\n")
        out, wide_out = clf_files / "pred.tsv", clf_files / "wide_pred.tsv"
        assert run(["predict", "--model", str(model), "--expr", str(clf_files / "expr.tsv"),
                    "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--expr", str(wide), "--out", str(wide_out)]) == 0
        assert capsys.readouterr().err == (
            f"orthomask: warning: {wide}: dropping 2 gene(s) "
            "not among the conversion layer's source genes\n"
        )
        assert wide_out.read_bytes() == out.read_bytes()

    def test_overflowing_forward_is_a_numerical_failure(self, tmp_path, capsys):
        # every weight and input is finite; 1e200 * 1e200 is not
        model, expr, out = tmp_path / "m.json", tmp_path / "expr.tsv", tmp_path / "pred.tsv"
        save_model(FeedforwardNetwork([Layer([[1e200]], [0.0], ACT_IDENTITY)]), None, model)
        expr.write_text("sample_id\tg1\na\t1e200\n")
        with np.errstate(over="ignore"):
            rc = run(["predict", "--model", str(model), "--expr", str(expr), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "orthomask: numerical failure: non-finite prediction\n"
        assert not out.exists()

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
        rows = read_weight_rows(out)
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
        rows = read_weight_rows(out)
        assert 1 <= len(rows) <= 2
        assert all(r[0] == "T0000" for r in rows)
        mags = [abs(r[2]) for r in rows]
        assert mags == sorted(mags, reverse=True)

    def test_refused_gene_id_leaves_no_table(self, bundle_dir, tmp_path, capsys):
        # a gene ID holding a tab or line break cannot be written: the rows
        # before it would read back as a valid, shorter table, so none is left
        model = tmp_path / "m.json"
        assert run(conversion_args(bundle_dir, model, tmp_path / "r.tsv")) == 0
        conv = json.loads(model.read_text())["conversion"]
        # the last target, and the source of the first edge, appear in the table
        for side, k, text in (
            ("target_gene_ids", len(conv["target_gene_ids"]) - 1, "\tx"),
            ("source_gene_ids", conv["edges"][0][1], "\nx"),
            ("source_gene_ids", conv["edges"][0][1], "\rx"),
        ):
            doc = json.loads(model.read_text())
            doc["conversion"][side][k] += text
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            out = tmp_path / "weights.tsv"
            capsys.readouterr()
            assert run(["inspect-weights", "--model", str(bad), "--out", str(out)]) == 2
            assert "contains a tab or line break" in capsys.readouterr().err
            assert not out.exists()

    def test_conversion_that_does_not_fit_the_network(self, bundle_dir, tmp_path, capsys,
                                                       monkeypatch):
        model = tmp_path / "m.json"
        assert run(conversion_args(bundle_dir, model, tmp_path / "r.tsv")) == 0
        # drop the last target gene and its edges: the layer now writes one
        # input fewer than the network's first layer reads
        doc = json.loads(model.read_text())
        conv = doc["conversion"]
        last = len(conv["target_gene_ids"]) - 1
        conv["target_gene_ids"].pop()
        conv["edges"] = [edge for edge in conv["edges"] if edge[0] != last]
        expr, labels = str(bundle_dir / "test_expr.tsv"), str(bundle_dir / "test_labels.tsv")
        full_loads, full_load = [], modelio.load_model

        def counted(path):
            full_loads.append(path)
            return full_load(path)

        monkeypatch.setattr(modelio, "load_model", counted)
        # every command, inspect-weights included, loads the whole document,
        # whatever its layout
        for name, separators in (("spaced", None), ("compact", (",", ":"))):
            bad = tmp_path / f"{name}.json"
            bad.write_text(json.dumps(doc, separators=separators))
            capsys.readouterr()
            for argv in (
                ["inspect-weights", "--model", str(bad), "--out", str(tmp_path / "w.tsv")],
                ["predict", "--model", str(bad), "--expr", expr, "--out", str(tmp_path / "p.tsv")],
                ["eval", "--model", str(bad), "--expr", expr, "--labels", labels],
            ):
                full_loads.clear()
                assert run(argv) == 2
                assert capsys.readouterr().err == (
                    f"orthomask: error: {bad}: conversion layer has {last} target genes "
                    f"but the network's first layer reads {last + 1}\n"
                )
                assert full_loads == [str(bad)]

    @pytest.mark.parametrize("digest", ["stale", "rehashed"])
    def test_non_finite_network_weight(self, bundle_dir, tmp_path, capsys, digest):
        # a NaN weight in the earlier layout, under the old digest or under
        # one of the NaN text as earlier writers made it: both are refused
        # as invalid JSON
        model = tmp_path / "m.json"
        assert run(conversion_args(bundle_dir, model, tmp_path / "r.tsv")) == 0
        doc = json.loads(model.read_text())
        network = json.loads(model.read_text())["network"]
        doc["network"]["layers"][0]["weights"][0] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(earlier_layout(doc, network if digest == "stale" else doc["network"]))
        assert '"weights":[NaN,' in bad.read_text()
        capsys.readouterr()
        assert run(["inspect-weights", "--model", str(bad), "--out", str(tmp_path / "w.tsv")]) == 2
        # the message after the path is orjson's, whose wording varies by version
        assert capsys.readouterr().err.startswith(f"orthomask: error: {bad}: ")

    def test_rehashed_network_load_model_refuses(self, bundle_dir, tmp_path, capsys):
        # a network changed in place and saved under a digest of its own
        # text, as an earlier writer could: refused as eval refuses it
        model = tmp_path / "m.json"
        assert run(conversion_args(bundle_dir, model, tmp_path / "r.tsv")) == 0
        doc = json.loads(model.read_text())
        doc["network"]["layers"][0]["activation"] = "tanh"
        bad = tmp_path / "bad.json"
        bad.write_text(earlier_layout(doc, doc["network"]))
        expr, labels = str(bundle_dir / "test_expr.tsv"), str(bundle_dir / "test_labels.tsv")
        capsys.readouterr()
        for argv in (
            ["inspect-weights", "--model", str(bad), "--out", str(tmp_path / "w.tsv")],
            ["eval", "--model", str(bad), "--expr", expr, "--labels", labels],
        ):
            assert run(argv) == 2
            assert capsys.readouterr().err == (
                f"orthomask: error: {bad}: layer 0: unknown activation 'tanh'\n"
            )

    def test_weights_nested_too_deep(self, bundle_dir, tmp_path, capsys):
        # the weights, or another value the checks read or echo in their
        # message, nested past Python's recursion limit: a parse error
        # naming the file, not a traceback
        model = tmp_path / "m.json"
        assert run(conversion_args(bundle_dir, model, tmp_path / "r.tsv")) == 0
        text = model.read_text()
        start = text.index('"weights":[') + len('"weights":')
        weights = text[start : text.index("]", start) + 1]
        edge = json.dumps(json.loads(text)["conversion"]["edges"][0], separators=(",", ":"))
        deep = "[" * 3000 + "]" * 3000
        edits = {
            "weights": (f'"weights":{weights}', '"weights":' + "[" * 5000 + "]" * 5000),
            "frozen": ('"frozen":true', f'"frozen":{deep}'),
            "activation": ('"activation":"relu"', f'"activation":{deep}'),
            "mode": ('"mode":"hard"', f'"mode":{deep}'),
            "edge": (edge, deep),
            "edge index": (edge, "[" + deep + edge[edge.index(","):]),
            "target_gene_ids": ('"target_gene_ids":[', f'"target_gene_ids":[{deep},'),
        }
        expr, labels = str(bundle_dir / "test_expr.tsv"), str(bundle_dir / "test_labels.tsv")
        bad = tmp_path / "deep.json"
        for field, (old, new) in edits.items():
            assert old in text, field
            bad.write_text(text.replace(old, new, 1))
            with pytest.raises(ParseError):
                load_model(bad)
            capsys.readouterr()
            for argv in (
                ["inspect-weights", "--model", str(bad), "--out", str(tmp_path / "w.tsv")],
                ["eval", "--model", str(bad), "--expr", expr, "--labels", labels],
            ):
                assert run(argv) == 2, field
                assert capsys.readouterr().err.startswith(f"orthomask: error: {bad}: "), field

    def test_model_without_conversion_rejected(self, bundle_dir, tmp_path):
        rc = run(
            ["inspect-weights", "--model", str(bundle_dir / "base_model.json"),
             "--out", str(tmp_path / "w.tsv")]
        )
        assert rc == 2


def exit_argv(code, bundle_dir):
    """The argv of a run that exits ``code``, 0 to 3; its outputs are relative paths."""
    return {
        0: ["synth", "--n-s", "3", "--n-t", "2", "--density", "0.5", "--samples", "4",
            "--noise", "0", "--hidden", "2", "--seed", "1", "--out-dir", "b"],
        1: ["synth"],
        2: ["eval", "--model", "missing.json", "--expr", "x", "--labels", "y"],
        3: conversion_args(bundle_dir, "m.json", "r.tsv", extra=["--optimizer", "sgd", "--lr", "1e200"]),
    }[code]


class TestCollectorPaused:
    """A command runs with the cyclic garbage collector paused and puts its
    state back as it found it, however the command ends."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_state_is_put_back(self, bundle_dir, tmp_path, monkeypatch, collector, code):
        monkeypatch.chdir(tmp_path)
        frozen = gc.get_freeze_count()
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(exit_argv(code, bundle_dir)) == code
        assert gc.isenabled() is collector
        assert gc.get_freeze_count() == frozen

    def test_state_is_put_back_after_an_exception(self, monkeypatch, tmp_path, collector):
        def boom(args):
            assert not gc.isenabled()
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_eval", boom)
        frozen = gc.get_freeze_count()
        with pytest.raises(RuntimeError, match="^boom$"):
            run(["eval", "--model", "m", "--expr", "x", "--labels", "y"])
        assert gc.isenabled() is collector
        assert gc.get_freeze_count() == frozen

    # a refused allocation is raised, never made: a runner that overcommits
    # memory would grant a real one and then be killed
    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 1.00 TiB for an array with shape (2, 2**39)"),
         "orthomask: error: out of memory: Unable to allocate 1.00 TiB for an array with shape (2, 2**39)\n"),
        (MemoryError(), "orthomask: error: out of memory\n"),
    ], ids=["message", "bare"])
    def test_out_of_memory_exits_2(self, monkeypatch, capsys, collector, error, message):
        def refused(args):
            assert not gc.isenabled()
            raise error

        monkeypatch.setattr(cli, "_cmd_eval", refused)
        frozen = gc.get_freeze_count()
        assert run(["eval", "--model", "m", "--expr", "x", "--labels", "y"]) == 2
        assert capsys.readouterr() == ("", message)
        assert gc.isenabled() is collector
        assert gc.get_freeze_count() == frozen

    def test_no_collection_while_a_large_hard_model_loads(self, tmp_path):
        # 30k [target, source, weight] triples: with the collector running,
        # loading them sets off dozens of collections
        rng = np.random.default_rng(8)
        n_t, n_s, n_edges = 300, 200, 30_000
        keys = np.sort(rng.choice(n_t * n_s, n_edges, replace=False))
        mask = BiadjacencyMatrix([f"t{i}" for i in range(n_t)], [f"s{j}" for j in range(n_s)],
                                 np.column_stack(np.divmod(keys, n_s)))
        net = FeedforwardNetwork(
            [Layer(rng.standard_normal((2, n_t)), np.zeros(2), ACT_RELU),
             Layer(rng.standard_normal((1, 2)), np.zeros(1), ACT_IDENTITY)],
            frozen=True,
        )
        model = tmp_path / "m.json"
        save_model(net, MaskedLinearLayer(mask, "hard", rng.standard_normal(n_edges)), model)
        argv = ["inspect-weights", "--model", str(model), "--out", str(tmp_path / "w.tsv")]

        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(record)
        try:
            assert run(argv) == 0
        finally:
            gc.callbacks.remove(record)
            (gc.enable if was else gc.disable)()
        assert starts == []
        assert len(read_weight_rows(tmp_path / "w.tsv")) == n_edges


def files_under(directory):
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


class TestExecutable:
    """``python -m orthomask.cli`` and the installed script run
    ``cli.console_main``: the command as in-process ``cli.main`` runs it,
    then a frozen heap."""

    @staticmethod
    def executable(argv, cwd, stdout=subprocess.PIPE, options=()):
        """Run the module in a child whose stdout is buffered, unless ``options`` hold -u."""
        env = dict(os.environ, PYTHONPATH=str(Path(orthomask.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        return subprocess.run([sys.executable, *options, "-m", "orthomask.cli", *argv], cwd=cwd,
                              env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)

    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_exits_as_main_returns(self, bundle_dir, tmp_path, monkeypatch, capsys, code):
        # usage lines wrap at the same width in both processes
        monkeypatch.setenv("COLUMNS", "80")
        argv = exit_argv(code, bundle_dir)
        inside, outside = tmp_path / "in", tmp_path / "out"
        inside.mkdir()
        outside.mkdir()
        monkeypatch.chdir(inside)
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(argv) == code
        out, err = capsys.readouterr()
        # numpy's overflow warnings, silenced in-process by np.errstate
        done = self.executable(argv, outside, options=["-W", "ignore::RuntimeWarning"])
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
        assert files_under(outside) == files_under(inside)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_stdout_exits_2(self, bundle_dir, tmp_path):
        # unbuffered, the command's own print fails
        with open("/dev/full", "w") as full:
            done = self.executable(exit_argv(0, bundle_dir), tmp_path, stdout=full, options=["-u"])
        assert done.returncode == 2
        assert done.stderr == "orthomask: error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_buffered_stdout_fails(self, bundle_dir, tmp_path):
        # buffered, the print succeeds and the flush at the end of the
        # command fails; the interpreter's flush at exit does not fail again
        with open("/dev/full", "w") as full:
            done = self.executable(exit_argv(0, bundle_dir), tmp_path, stdout=full)
        assert done.returncode == 2
        assert done.stderr == "orthomask: error: [Errno 28] No space left on device\n"

    def test_console_main_freezes_the_heap(self, tmp_path):
        script = ("import gc, sys\nfrom orthomask import cli\nsys.argv[1:] = ['synth']\n"
                  "code = cli.console_main()\nprint(code, gc.get_freeze_count() > 0)")
        done = self.executable([], tmp_path, options=["-c", script])
        assert done.stdout == "1 True\n"
        assert done.stderr.startswith("orthomask: error: the following arguments are required: ")

    def test_script_and_module_share_one_entry_point(self):
        # plain text, not tomllib, which Python 3.10 lacks
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        script = re.search(r'^\[project\.scripts\]\northomask = "orthomask\.cli:(\w+)"$', pyproject, re.M)
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        (block,) = [node for node in tree.body if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(node) for node in block.body] == [f"sys.exit({script[1]}())"]


class TestConstantPredictionWarning:
    """train-conversion warns on stderr, and still exits 0 with the same
    stdout and files, when the trained model's loss on its training labels
    is not below the best constant prediction's."""

    @staticmethod
    def silenced(model, out):
        # a first-layer bias that switches off every relu: a constant model
        net, _ = load_model(model)
        net.layers[0].bias[:] = -1e6
        save_model(net, None, out)
        return out

    @staticmethod
    def warned(err):
        """The eval loss and the constant prediction's loss a warning names."""
        match = re.fullmatch(
            r"orthomask: warning: eval (\S+) is not below (\S+), "
            r"the loss of the best constant prediction on these labels\n",
            err,
        )
        assert match, err
        value, constant = float(match[1]), float(match[2])
        assert value >= constant
        return value, constant

    def test_regression(self, bundle_dir, tmp_path, capsys):
        argv = conversion_args(bundle_dir, tmp_path / "m.json", tmp_path / "r.tsv")
        argv[argv.index("--model") + 1] = str(
            self.silenced(bundle_dir / "base_model.json", tmp_path / "silenced.json")
        )
        argv[argv.index("--steps") + 1] = "5"
        capsys.readouterr()
        assert run(argv) == 0
        out, err = capsys.readouterr()
        value, constant = self.warned(err)
        lines = (bundle_dir / "train_labels.tsv").read_text().splitlines()[1:]
        labels = np.array([float(line.split("\t")[1]) for line in lines])
        assert constant == pytest.approx(np.mean((labels - labels.mean()) ** 2), rel=1e-12)
        assert out.startswith("final training loss ") and out.endswith(f"; eval {value!r}\n")

    def test_classification(self, clf_files, capsys):
        self.silenced(clf_files / "clf.json", clf_files / "clf.json")
        capsys.readouterr()
        assert run(clf_conversion_args(clf_files, clf_files / "base_labels.tsv")) == 0
        out, err = capsys.readouterr()
        value, constant = self.warned(err)
        # one sample of each of two classes
        assert constant == pytest.approx(np.log(2.0), rel=1e-12)
        assert out.startswith("final training loss ") and out.endswith(f"; eval {value!r}\n")

    def test_trained_model_gives_no_warning(self, bundle_dir, tmp_path, capsys):
        capsys.readouterr()
        assert run(conversion_args(bundle_dir, tmp_path / "m.json", tmp_path / "r.tsv")) == 0
        assert capsys.readouterr().err == ""


class TestReportedInputs:
    @pytest.mark.parametrize("command", ["train-base", "train-conversion", "eval"])
    def test_ignored_label_rows_are_reported(self, clf_files, capsys, command):
        # label rows for samples the expression file lacks are reported,
        # and the run is the run on the labels without them
        files, labels = clf_files, "LABELS"
        extra = files / "extra_labels.tsv"
        extra.write_text("sample_id\tlabel\nz\t1\na\t0\nb\t1\ny\t0\n")
        if command == "train-base":
            expr, outputs = files / "base_expr.tsv", [files / "base.json"]
            argv = [
                "train-base", "--expr", str(expr), "--labels", labels, "--hidden", "2",
                "--loss", "ce", "--lr", "0.1", "--steps", "2", "--seed", "1",
                "--out", str(outputs[0]),
            ]
        elif command == "train-conversion":
            expr, outputs = files / "expr.tsv", [files / "m.json", files / "r.tsv"]
            argv = clf_conversion_args(files, labels)
        else:
            assert run(clf_conversion_args(files, files / "base_labels.tsv")) == 0
            expr, outputs = files / "expr.tsv", []
            argv = ["eval", "--model", str(files / "m.json"), "--expr", str(expr), "--labels", labels]
        results = []
        for path in (files / "base_labels.tsv", extra):
            capsys.readouterr()
            assert run([str(path) if a == labels else a for a in argv]) == 0
            results.append((*capsys.readouterr(), [p.read_bytes() for p in outputs]))
        (out, err, written), (extra_out, extra_err, extra_written) = results
        assert extra_out == out and extra_written == written
        assert extra_err == (
            f"orthomask: warning: {extra}: ignoring 2 label row(s) "
            f"whose sample is not in {expr}\n" + err
        )

    @pytest.mark.parametrize("mode, effect", [
        ("hard", "the network reads 0 for them"), ("soft", "only off-support weights feed them"),
    ])
    def test_orphan_targets_are_reported(self, clf_files, capsys, mode, effect):
        graph = clf_files / "orphans.tsv"
        graph.write_text("target_gene\tsource_gene\nt2\ts2\n")
        argv = clf_conversion_args(clf_files, clf_files / "base_labels.tsv")
        argv[argv.index("--graph") + 1] = str(graph)
        argv[argv.index("--mode") + 1] = mode
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().err.startswith(
            f"orthomask: warning: 1 of 2 target genes have no ortholog in {graph}; {effect}\n"
        )
        if mode == "hard":
            _, conv = load_model(clf_files / "m.json")
            assert not conv.to_dense()[0].any()


@pytest.fixture(scope="module")
def score_tables(bundle_dir, tmp_path_factory):
    """Both directions' score tables over the bundle's genes."""
    out = tmp_path_factory.mktemp("scores")
    rng = np.random.default_rng(31)
    targets = read_gene_list(bundle_dir / "target_genes.tsv")
    sources = read_gene_list(bundle_dir / "source_genes.tsv")
    for name, queries, subjects in (("tq", targets, sources), ("qt", sources, targets)):
        entries = [(q, s, float(rng.uniform())) for q in queries for s in subjects if rng.uniform() < 0.6]
        write_score_table(ScoreTable("a", "b", entries), out / f"{name}.tsv")
    return out / "tq.tsv", out / "qt.tsv"


@pytest.fixture(scope="module")
def soft_model(bundle_dir, tmp_path_factory):
    """A soft conversion layer trained on the bundle, saved with its frozen network."""
    out = tmp_path_factory.mktemp("soft")
    argv = conversion_args(bundle_dir, out / "soft.json", out / "soft.tsv", extra=["--steps", "20"])
    argv[argv.index("--mode") + 1] = "soft"
    assert run(argv) == 0
    assert load_model(out / "soft.json")[1].mode == "soft"
    return out / "soft.json"


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def array_flags(value):
    """The dtype, shape and flags of every array reachable from ``value``."""
    if isinstance(value, np.ndarray):
        return [(value.dtype.str, value.shape, value.flags.writeable, value.flags.c_contiguous)]
    if isinstance(value, (tuple, list)):
        return [flags for item in value for flags in array_flags(item)]
    if hasattr(value, "__dict__"):
        return [(name, *flags) for name, item in sorted(vars(value).items())
                for flags in array_flags(item)]
    return []


class TestWorker:
    """``build-graph``, ``eval``, ``predict`` and ``train-conversion`` read one
    of their two inputs in a forked worker when both are large enough and
    the process may use two CPUs, and do so as if they read in turn."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Commands start their worker whatever the files' sizes and the
        CPUs; the pids of the forks made, as the parent sees them."""
        pids = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(cli, "WORKER_MIN_BYTES", 0)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", counted)
        return pids

    @staticmethod
    def commands(bundle, tables):
        """The argv of each command that reads two inputs; outputs are relative paths."""
        tq, qt = tables
        genes = ["--target-genes", str(bundle / "target_genes.tsv"),
                 "--source-genes", str(bundle / "source_genes.tsv")]
        model, expr = str(bundle / "oracle_model.json"), str(bundle / "test_expr.tsv")
        return {
            "build-graph": ["build-graph", "--scores-tq", str(tq), "--scores-qt", str(qt), *genes,
                            "--threshold", "0.2", "--tie-tol", "0.1", "--out", "graph.tsv"],
            "train-conversion": conversion_args(bundle, "m.json", "r.tsv", extra=["--steps", "20"]),
            "eval": ["eval", "--model", model, "--expr", expr, "--labels", str(bundle / "test_labels.tsv")],
            "predict": ["predict", "--model", model, "--expr", expr, "--out", "pred.tsv"],
        }

    @staticmethod
    def outcome(argv, directory, monkeypatch, capsys):
        """Exit code, stdout, stderr and written files of ``argv`` run in
        ``directory``; no descriptor is left open and no child unreaped."""
        directory.mkdir()
        monkeypatch.chdir(directory)
        fds = open_fds()
        capsys.readouterr()
        code = run(argv)
        out, err = capsys.readouterr()
        assert open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return code, out, err, files_under(directory)

    @pytest.mark.parametrize("command", ["build-graph", "train-conversion", "eval", "predict"])
    def test_same_outputs_as_in_turn(self, bundle_dir, score_tables, tmp_path, monkeypatch, capsys,
                                     forks, command):
        argv = self.commands(bundle_dir, score_tables)[command]
        with monkeypatch.context() as m:
            m.setattr(cli, "WORKER_MIN_BYTES", 2**62)
            in_turn = self.outcome(argv, tmp_path / "in_turn", monkeypatch, capsys)
        assert forks == []
        beside = self.outcome(argv, tmp_path / "beside", monkeypatch, capsys)
        assert len(forks) == 1
        assert beside == in_turn
        assert in_turn[0] == 0

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_a_soft_model_reads_as_in_turn(self, bundle_dir, score_tables, soft_model, tmp_path,
                                           monkeypatch, capsys, forks, command):
        # the worker sends back a soft layer's dense weights and mask
        argv = self.commands(bundle_dir, score_tables)[command]
        argv[argv.index("--model") + 1] = str(soft_model)
        with monkeypatch.context() as m:
            m.setattr(cli, "WORKER_MIN_BYTES", 2**62)
            in_turn = self.outcome(argv, tmp_path / "in_turn", monkeypatch, capsys)
        beside = self.outcome(argv, tmp_path / "beside", monkeypatch, capsys)
        assert len(forks) == 1
        assert beside == in_turn
        assert in_turn[0] == 0

    def test_a_failed_fork_reads_in_turn(self, bundle_dir, score_tables, tmp_path, monkeypatch, capsys):
        argv = self.commands(bundle_dir, score_tables)["build-graph"]
        in_turn = self.outcome(argv, tmp_path / "in_turn", monkeypatch, capsys)
        monkeypatch.setattr(cli, "WORKER_MIN_BYTES", 0)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        refusals = []
        for name, error in (("pipe", OSError(24, "Too many open files")),
                            ("fork", BlockingIOError(11, "Resource temporarily unavailable"))):
            def refused(name=name, error=error):
                refusals.append(name)
                raise error

            with monkeypatch.context() as m:
                m.setattr(os, name, refused)
                assert self.outcome(argv, tmp_path / name, monkeypatch, capsys) == in_turn
        assert refusals == ["pipe", "fork"]

    BAD = {
        "bad_tq.tsv": "wrong\theader\n",
        "bad_qt.tsv": "wrong\theader\n",
        "bad_model.json": "[",
        "bad_expr.tsv": "gene\tS0000\n",
        "bad_graph.tsv": "wrong\theader\n",
        "bad_genes.tsv": "wrong\n",
    }

    # the inputs replaced by bad files, and the one the error names: the
    # first of them read in turn
    @pytest.mark.parametrize("command, bad, named", [
        ("build-graph", ["--scores-tq", "--scores-qt"], "bad_tq.tsv"),
        ("build-graph", ["--scores-qt"], "bad_qt.tsv"),
        ("eval", ["--model", "--expr"], "bad_expr.tsv"),
        ("eval", ["--model"], "bad_model.json"),
        ("eval", ["--expr"], "bad_expr.tsv"),
        ("predict", ["--model", "--expr"], "bad_expr.tsv"),
        ("predict", ["--expr"], "bad_expr.tsv"),
        ("train-conversion", ["--model", "--expr"], "bad_model.json"),
        ("train-conversion", ["--source-genes", "--expr"], "bad_genes.tsv"),
        ("train-conversion", ["--graph", "--expr"], "bad_graph.tsv"),
        ("train-conversion", ["--expr"], "bad_expr.tsv"),
        ("train-conversion", ["--labels", "--expr"], "bad_expr.tsv"),
    ])
    def test_errors_come_in_the_order_of_reading_in_turn(self, bundle_dir, score_tables, tmp_path,
                                                         monkeypatch, capsys, forks, command, bad, named):
        files = {"--scores-tq": "bad_tq.tsv", "--scores-qt": "bad_qt.tsv", "--model": "bad_model.json",
                 "--expr": "bad_expr.tsv", "--graph": "bad_graph.tsv", "--target-genes": "bad_genes.tsv",
                 "--source-genes": "bad_genes.tsv", "--labels": "bad_genes.tsv"}
        for name, text in self.BAD.items():
            (tmp_path / name).write_text(text)
        argv = self.commands(bundle_dir, score_tables)[command]
        for flag in bad:
            argv[argv.index(flag) + 1] = str(tmp_path / files[flag])
        with monkeypatch.context() as m:
            m.setattr(cli, "WORKER_MIN_BYTES", 2**62)
            in_turn = self.outcome(argv, tmp_path / "in_turn", monkeypatch, capsys)
        beside = self.outcome(argv, tmp_path / "beside", monkeypatch, capsys)
        assert len(forks) == 1
        assert beside == in_turn
        code, out, err, _ = in_turn
        assert (code, out) == (2, "")
        assert err.startswith(f"orthomask: error: {tmp_path / named}") and err.count("\n") == 1, err

    def test_a_missing_input_reads_in_turn(self, bundle_dir, score_tables, tmp_path, monkeypatch,
                                           capsys, forks):
        argv = self.commands(bundle_dir, score_tables)["eval"]
        argv[argv.index("--model") + 1] = str(tmp_path / "missing.json")
        code, out, err, _ = self.outcome(argv, tmp_path / "run", monkeypatch, capsys)
        assert forks == []
        assert (code, out) == (2, "")
        assert err == f"orthomask: error: [Errno 2] No such file or directory: '{tmp_path / 'missing.json'}'\n"

    # the worker's read, by module and function, and the flag of its file
    KILLED = {
        "build-graph": ("orthograph", "read_score_table", "--scores-qt"),
        "eval": ("modelio", "load_model", "--model"),
        "predict": ("modelio", "load_model", "--model"),
        "train-conversion": ("dataio", "read_expression_tsv", "--expr"),
    }

    @pytest.mark.parametrize("command", sorted(KILLED))
    def test_a_killed_worker_exits_2_naming_its_file(self, bundle_dir, score_tables, tmp_path,
                                                     monkeypatch, capsys, forks, command):
        module, name, flag = self.KILLED[command]
        module = importlib.import_module(f"orthomask.{module}")
        read, parent = getattr(module, name), os.getpid()

        def killed(path, *args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return read(path, *args)

        monkeypatch.setattr(module, name, killed)
        argv = self.commands(bundle_dir, score_tables)[command]
        code, out, err, _ = self.outcome(argv, tmp_path / "run", monkeypatch, capsys)
        assert len(forks) == 1
        assert (code, out) == (2, "")
        path = argv[argv.index(flag) + 1]
        assert err == f"orthomask: error: the worker process reading {path} was killed by signal 9\n"

    def test_a_worker_out_of_memory_exits_as_in_turn(self, bundle_dir, score_tables, tmp_path,
                                                      monkeypatch, capsys, forks):
        # the second score table's read is refused; beside, only the worker reads it
        module = importlib.import_module("orthomask.orthograph")
        read, refused_here = module.read_score_table, []
        qt = str(score_tables[1])

        def out_of_memory(path, *args):
            if str(path) == qt:
                refused_here.append(os.getpid())
                raise MemoryError("Unable to allocate 1.00 TiB for an array with shape (2, 2**39)")
            return read(path, *args)

        monkeypatch.setattr(module, "read_score_table", out_of_memory)
        argv = self.commands(bundle_dir, score_tables)["build-graph"]
        with monkeypatch.context() as m:
            m.setattr(cli, "WORKER_MIN_BYTES", 2**62)
            in_turn = self.outcome(argv, tmp_path / "in_turn", monkeypatch, capsys)
        assert refused_here == [os.getpid()] and forks == []
        beside = self.outcome(argv, tmp_path / "beside", monkeypatch, capsys)
        assert refused_here == [os.getpid()] and len(forks) == 1
        assert beside == in_turn
        assert in_turn[:3] == (2, "", "orthomask: error: out of memory: Unable to allocate 1.00 TiB "
                                      "for an array with shape (2, 2**39)\n")

    def test_a_worker_that_cannot_send_exits_2_naming_its_file(self, bundle_dir, score_tables, tmp_path,
                                                              monkeypatch, capsys, forks):
        # in the worker the read returns a lambda, which pickle refuses, so
        # the worker exits with code 1 before it sends anything
        module = importlib.import_module("orthomask.orthograph")
        read, parent = module.read_score_table, os.getpid()

        def unpicklable(path, *args):
            table = read(path, *args)
            return table if os.getpid() == parent else lambda: table

        monkeypatch.setattr(module, "read_score_table", unpicklable)
        argv = self.commands(bundle_dir, score_tables)["build-graph"]
        code, out, err, _ = self.outcome(argv, tmp_path / "run", monkeypatch, capsys)
        assert len(forks) == 1
        assert (code, out) == (2, "")
        path = argv[argv.index("--scores-qt") + 1]
        assert err == f"orthomask: error: the worker process reading {path} exited with code 1\n"

    def test_an_exception_in_the_command_kills_and_reaps_the_worker(self, bundle_dir, score_tables,
                                                                    monkeypatch, forks):
        parent = os.getpid()

        def stuck_or_failing(path, *args):
            if os.getpid() != parent:
                time.sleep(60)
            raise RuntimeError("boom")

        monkeypatch.setattr(importlib.import_module("orthomask.orthograph"), "read_score_table",
                            stuck_or_failing)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^boom$"):
            run(self.commands(bundle_dir, score_tables)["build-graph"])
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_results_keep_their_arrays_flags(self, bundle_dir, score_tables, soft_model, forks):
        tq, _ = score_tables
        targets = read_gene_list(bundle_dir / "target_genes.tsv")
        sources = read_gene_list(bundle_dir / "source_genes.tsv")
        reads = [
            (importlib.import_module("orthomask.orthograph").read_score_table, tq, targets, sources),
            (load_model, bundle_dir / "oracle_model.json"),
            (load_model, soft_model),
            (read_expression_tsv, bundle_dir / "test_expr.tsv"),
        ]
        sent = []
        for read, path, *args in reads:
            sent.append(cli._beside(lambda: None, read, path, *args, beside=path)[1])
            assert array_flags(sent[-1]) == array_flags(read(path, *args)) != []
        assert len(forks) == len(reads)
        table = sent[0]
        assert not any(a.flags.writeable for a in (table.queries.codes, table.subjects.codes, table.scores))

    def test_the_size_and_cpu_rule(self, bundle_dir, monkeypatch, forks):
        model, expr = bundle_dir / "oracle_model.json", bundle_dir / "test_expr.tsv"
        smaller = min(model.stat().st_size, expr.stat().st_size)

        def started(**patches):
            del forks[:]
            with monkeypatch.context() as m:
                for name, value in patches.items():
                    m.setattr(cli, name, value)
                cli._beside(lambda: None, load_model, model, beside=expr)
            return len(forks)

        assert started(WORKER_MIN_BYTES=smaller) == 1
        assert started(WORKER_MIN_BYTES=smaller + 1) == 0
        assert started(_cpus=lambda: 1) == 0
        monkeypatch.delattr(os, "fork")
        assert started() == 0

    def test_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli._cpus() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("threads", [None, "1"], ids=["blas-default", "blas-1"])
    def test_the_executable_prints_nothing_more(self, bundle_dir, score_tables, tmp_path, monkeypatch,
                                                capsys, threads):
        # from Python 3.12 os.fork() warns in a process with other threads,
        # such as OpenBLAS's pool; here the warning would be an error
        argv = self.commands(bundle_dir, score_tables)["eval"]
        capsys.readouterr()
        assert run(argv) == 0
        expected = capsys.readouterr().out
        script = ("import sys\nfrom orthomask import cli\ncli.WORKER_MIN_BYTES = 0\n"
                  "cli._cpus = lambda: 2\nsys.exit(cli.console_main())")
        env = dict(os.environ, PYTHONPATH=str(Path(orthomask.__file__).resolve().parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", script, *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")
