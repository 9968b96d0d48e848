"""The benchmark's set-up still runs against the package.

``orthobench/workloads.py`` writes each workload's inputs with the
package's own constructors and writers, several called positionally, so a
signature change under ``src/`` breaks the benchmark before it times
anything. This runs every workload's set-up at tiny scale; the full
benchmark smoke test (``python3 -m pytest orthobench``) takes far longer.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
