"""No package module imports a name it never uses. ``__init__.py`` imports
none of the package's modules: each public name is loaded from its module
on first use. So each command loads only the modules it runs, checked here
in a fresh interpreter per command; and none loads ``numpy.ma``, which
costs several milliseconds to import."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orthomask
from orthomask import cli
from orthomask.orthograph import ScoreTable, write_score_table

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orthomask"


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_guard_finds_an_unused_import():
    # listing a name in __all__ is not a use: nothing is re-exported
    tree = ast.parse("import math\nfrom os import path, sep\n__all__ = ['sep']\n")
    assert unused_imports(tree) == ["line 1: math", "line 2: path", "line 2: sep"]


RUN = "from orthomask import cli\nstatus = cli.main(sys.argv[1:])\n"


def _loaded_modules(argv=(), code=RUN, status=0):
    """The ``orthomask`` modules, and ``numpy.ma`` if loaded, that a fresh
    interpreter holds after ``code``, run with ``argv`` as its arguments,
    sets ``status``."""
    report = (
        f"import sys\n{code}"
        "print(*sorted(m for m in sys.modules if m.startswith('orthomask.') or m == 'numpy.ma'),"
        " file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", report, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == status, done.stderr
    return {name.removeprefix("orthomask.") for name in done.stderr.splitlines()[-1].split()}


def test_importing_the_package_loads_no_module():
    assert _loaded_modules(code="import orthomask\nstatus = 0\n") == set()


def test_every_exported_name_is_its_modules_object():
    for name in orthomask.__all__:
        value = getattr(orthomask, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        orthomask.nothing


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny ``synth`` bundle, class labels for its training samples and
    two score tables on its genes."""
    out = tmp_path_factory.mktemp("imports")
    bundle = out / "bundle"
    assert cli.main([
        "synth", "--n-s", "4", "--n-t", "3", "--density", "0.5", "--samples", "10",
        "--noise", "0.1", "--hidden", "2", "--seed", "1", "--out-dir", str(bundle),
    ]) == 0
    samples = [line.split("\t")[0] for line in (bundle / "train_labels.tsv").read_text().splitlines()[1:]]
    (out / "classes.tsv").write_text(
        "sample_id\tlabel\n" + "".join(f"{sample}\t{k % 2}\n" for k, sample in enumerate(samples)))
    pairs = [(f"T000{i}", f"S000{j}") for i in range(3) for j in range(4)]
    write_score_table(ScoreTable("t", "s", [(t, s, 1.0 + k) for k, (t, s) in enumerate(pairs)]),
                      out / "tq.tsv")
    write_score_table(ScoreTable("s", "t", [(s, t, 1.0 + k) for k, (t, s) in enumerate(pairs)]),
                      out / "qt.tsv")
    return out


def _commands(out):
    bundle = out / "bundle"
    genes = ["--target-genes", str(bundle / "target_genes.tsv"),
             "--source-genes", str(bundle / "source_genes.tsv")]
    trainer = ["--expr", str(bundle / "train_expr.tsv"), "--lr", "0.01", "--steps", "2", "--seed", "1"]
    model = str(bundle / "oracle_model.json")
    return {
        "build-graph": ["--scores-tq", str(out / "tq.tsv"), "--scores-qt", str(out / "qt.tsv"), *genes,
                        "--threshold", "0", "--out", str(out / "graph.tsv")],
        "synth": ["--n-s", "4", "--n-t", "3", "--density", "0.5", "--samples", "10", "--noise", "0.1",
                  "--hidden", "2", "--seed", "2", "--out-dir", str(out / "bundle2")],
        # classes, whose count is checked
        "train-base": [*trainer, "--labels", str(out / "classes.tsv"), "--hidden", "2", "--loss", "ce",
                       "--out", str(out / "base.json")],
        "train-conversion": [*trainer, "--labels", str(bundle / "train_labels.tsv"),
                             "--model", str(bundle / "base_model.json"),
                             "--graph", str(bundle / "graph.tsv"), *genes, "--mode", "soft",
                             "--out", str(out / "model.json"), "--report", str(out / "report.tsv")],
        "eval": ["--model", model, "--expr", str(bundle / "test_expr.tsv"),
                 "--labels", str(bundle / "test_labels.tsv")],
        "predict": ["--model", model, "--expr", str(bundle / "test_expr.tsv"),
                    "--out", str(out / "pred.tsv")],
        "inspect-weights": ["--model", model, "--out", str(out / "weights.tsv")],
    }


BUILD_GRAPH = {"cli", "errors", "tsv", "orthograph"}
MODEL = BUILD_GRAPH | {"modelio", "netcore", "kernels"}
TRAINER = MODEL | {"dataio", "training"}
LOADED = {
    "build-graph": BUILD_GRAPH,
    "inspect-weights": MODEL | {"interpret"},
    "predict": MODEL | {"dataio"},
    "eval": TRAINER,
    "train-base": TRAINER,
    "train-conversion": TRAINER,
    "synth": TRAINER | {"synth"},
}


@pytest.mark.parametrize("command", sorted(LOADED))
def test_each_command_loads_only_the_modules_it_runs(inputs, command):
    assert _loaded_modules([command, *_commands(inputs)[command]]) == LOADED[command]


def test_a_parse_error_loads_no_command_module():
    # the parser names no option of a module it would have to load
    assert _loaded_modules(["train-conversion", "--mode", "medium"], status=1) == {"cli", "errors"}
