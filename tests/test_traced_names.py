"""Every function the benchmark tracer wraps still exists in the package,
and the tracer still reads what it counts from their arguments.

``orthobench/tracer.py`` skips a name it cannot find without a word, so a
rename under ``src/`` would silently drop that layer's timings.
"""

import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np

from orthomask import cli
from orthomask.interpret import export_weight_table
from orthomask.netcore import MaskedLinearLayer
from orthomask.orthograph import BiadjacencyMatrix

from _helpers import read_weight_rows

TRACER = Path(__file__).resolve().parents[1] / "orthobench" / "tracer.py"

# gone from the package; the benchmark still lists them
STALE = [
    "interpret.top_contributors",
    "kernels.csr_backward_batch",
    "netcore.backward_conversion_batch",
]

# the parameters each counter reads by name (the tracer matches positional
# arguments to the wrapped function's parameter names)
COUNTED_ARGUMENTS = {
    "kernels.csr_matvec_batch": {"indptr", "data", "xs"},
    "netcore.forward_conversion_batch": {"layer", "xs"},
    "orthograph.read_score_table": {"path"},
    "dataio.read_expression_tsv": {"path"},
    "modelio.save_model": {"path"},
    "training.train_conversion": {"cfg"},
    "training.train_base": {"cfg"},
}
# counters that read only the result
COUNTED_RESULTS = {"interpret.export_weight_table"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("orthobench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolve(module, attr):
    obj = importlib.import_module(f"orthomask.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj if callable(obj) else None


def test_wrapped_names_resolve():
    tracer = _tracer_module()
    missing = [f"{m}.{a}" for m, a, _, _ in tracer.WRAPPED if _resolve(m, a) is None]
    assert sorted(missing) == STALE


def test_counted_arguments_keep_their_names():
    # a renamed parameter would make a counter fail with KeyError, after
    # the traced call has already run
    tracer = _tracer_module()
    counted = {}
    for module, attr, _, counter in tracer.WRAPPED:
        fn = _resolve(module, attr)
        if counter is not None and fn is not None:
            counted[f"{module}.{attr}"] = set(inspect.signature(fn).parameters)
    assert set(counted) == set(COUNTED_ARGUMENTS) | COUNTED_RESULTS
    for name, needed in COUNTED_ARGUMENTS.items():
        assert needed <= counted[name], name


def test_row_counter_reads_the_rows_written(tmp_path):
    # the counter takes len() of export_weight_table's result, whatever
    # Python runs the benchmark
    rows = _tracer_module()._rows
    mask = BiadjacencyMatrix(["t2", "t1"], ["s1", "s2", "s3"], [(0, 1), (1, 0), (1, 2)])
    for layer in (
        MaskedLinearLayer(mask, "hard", [0.5, -1.0, 2.0]),
        MaskedLinearLayer(mask, "soft", np.arange(6.0).reshape(2, 3)),
    ):
        path = tmp_path / f"{layer.mode}.tsv"
        counts = defaultdict(int)
        rows(counts, {"layer": layer, "path": path}, export_weight_table(layer, path))
        assert counts["interpret.export_weight_table.rows"] == len(read_weight_rows(path))


def test_tracer_times_and_counts_score_table_reads(tmp_path):
    # the byte counter reads the argument named ``path``
    files = {
        "tq.tsv": "query\tsubject\tscore\nt1\ts1\t0.9\nt2\ts1\t0.4\n",
        "qt.tsv": "query\tsubject\tscore\ns1\tt1\t0.9\n",
        "targets.tsv": "gene_id\nt1\nt2\n",
        "sources.tsv": "gene_id\ns1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        code = cli.main([
            "build-graph", "--scores-tq", str(tmp_path / "tq.tsv"), "--scores-qt", str(tmp_path / "qt.tsv"),
            "--target-genes", str(tmp_path / "targets.tsv"), "--source-genes", str(tmp_path / "sources.tsv"),
            "--threshold", "0.5", "--out", str(tmp_path / "graph.tsv"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    summary = tracer.summary()
    assert summary["orthograph.read_score_table.calls"] == 2
    assert summary["orthograph.read_score_table.s"] > 0
    sizes = (tmp_path / "tq.tsv").stat().st_size + (tmp_path / "qt.tsv").stat().st_size
    assert summary["orthograph.read_score_table.bytes"] == sizes
    assert summary["orthograph.read_gene_list.calls"] == 2
