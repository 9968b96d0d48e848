"""The benchmark's set-up still runs against the package.

``orthobench/workloads.py`` writes each workload's inputs with the
package's own constructors and writers, several called positionally, so a
signature change under ``src/`` breaks the benchmark before it times
anything. This runs every workload's set-up at tiny scale, and the
``train-conversion`` command of the two that start from a saved frozen
network; the full benchmark smoke test (``python3 -m pytest orthobench``)
takes far longer.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from orthomask import cli
from orthomask.modelio import load_model, model_document

BENCH = Path(__file__).resolve().parents[1] / "orthobench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports its sibling as a top-level ``reference``
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    _load("reference", monkeypatch)
    return _load("workloads", monkeypatch)


def test_every_workload_sets_up(workloads, tmp_path):
    for name, shape in workloads.WORKLOADS.items():
        tiny = workloads.tiny(shape)
        paths, planted = workloads.setup(tiny, 7, str(tmp_path / name))
        assert all(Path(path).stat().st_size > 0 for path in paths.values()), name
        assert planted.edge_rows.size == tiny.n_edges, name


@pytest.mark.parametrize("name", ["hard_genome", "soft_dense"])
def test_train_conversion_keeps_the_base_network_bytes(workloads, tmp_path, name, capsys):
    # the trained document's network part has the base model's bytes, and
    # rendering the loaded trained model again gives the same text
    shape = workloads.tiny(workloads.WORKLOADS[name])
    paths, _ = workloads.setup(shape, 7, str(tmp_path / "inputs"))
    genes = ["--target-genes", paths["target_genes.tsv"], "--source-genes", paths["source_genes.tsv"]]
    graph, out = tmp_path / "graph.tsv", tmp_path / "model.json"
    assert cli.main([
        "build-graph", "--scores-tq", paths["scores_tq.tsv"], "--scores-qt", paths["scores_qt.tsv"],
        *genes, "--threshold", repr(workloads.THRESHOLD), "--tie-tol", repr(workloads.TIE_TOL),
        "--out", str(graph),
    ]) == 0
    (conv,) = shape.conversions
    assert cli.main([
        "train-conversion", "--model", paths["base_model.json"], "--graph", str(graph), *genes,
        "--expr", paths["train_expr.tsv"], "--labels", paths["train_labels.tsv"],
        "--mode", conv.mode, "--alpha", repr(conv.alpha), "--lr", repr(conv.lr),
        "--steps", str(conv.steps), "--seed", "7", "--out", str(out),
        "--report", str(tmp_path / "report.tsv"),
    ]) == 0
    capsys.readouterr()

    def network_part(document):
        return document[: document.index(b',"conversion":')]

    base, trained = Path(paths["base_model.json"]).read_bytes(), out.read_bytes()
    assert network_part(trained) == network_part(base)
    assert model_document(*load_model(out)) == trained
