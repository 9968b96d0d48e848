"""Every function the benchmark tracer wraps still exists in the package,
and the tracer still reads what it counts from their arguments.

``orthobench/tracer.py`` skips a name it cannot find without a word, so a
rename under ``src/`` would silently drop that layer's timings.
"""

import importlib
import importlib.util
from pathlib import Path

from orthomask import cli

TRACER = Path(__file__).resolve().parents[1] / "orthobench" / "tracer.py"

# gone from the package; the benchmark still lists them
STALE = ["kernels.csr_backward_batch", "netcore.backward_conversion_batch"]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("orthobench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_wrapped_names_resolve():
    tracer = _tracer_module()
    missing = []
    for module, attr, _, _ in tracer.WRAPPED:
        obj = importlib.import_module(f"orthomask.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert sorted(missing) == STALE


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
