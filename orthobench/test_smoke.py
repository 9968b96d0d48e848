"""Smoke test of the benchmark: every workload's pipeline at tiny scale.

Checks the structure of the result line and that every output check
passed; it never asserts a timing. Run from the repository root with::

    python3 -m pytest orthobench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# soft_dense is not in BENCHMARK.json but stays runnable and checked
WORKLOADS = ["hard_genome", "soft_dense", "small_sweep"]


def run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(cwd / "orthobench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: result_of(run(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_result(workload):
    proc = run(workload, 0)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert "error_rate [ratio]: 0 " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_result(workload, traced):
    result = traced[workload]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    assert values["training.steps"] > 0 and values["modelio.load_model.calls"] > 0
    if workload == "soft_dense":
        assert values["kernels.csr_matvec_batch.calls"] == 0
        assert values["kernels.csr_backward_batch.calls"] == 0
        assert values["netcore.dense_flops_computed"] > 0
    else:
        assert values["kernels.flops_computed"] > 0
    if workload == "hard_genome":
        assert values["training.regularization_penalty.calls"] == 0
        assert values["netcore.dense_flops_computed"] == 0


def test_computed_counts_repeat_exactly(traced):
    again = result_of(run("small_sweep", 1))["metrics"]
    for name, metric in traced["small_sweep"]["metrics"].items():
        if not (name.endswith(".s") or name.endswith("_s")):
            assert again[name]["value"] == metric["value"], name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "orthobench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("small_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
