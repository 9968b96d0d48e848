"""orthomask benchmark: the CLI pipeline on seeded workloads, with output checks.

Run from the repository root::

    python3 orthobench/run.py --workload hard_genome --seed 1 --seconds 45 --trace 0

One run generates the workload's input files from ``--seed`` (several
times, reporting the median as ``setup_s``), then runs the pipeline's CLI
commands as child processes, one after another (closed loop, one client),
again and again until ``--seconds`` have passed. The first pipeline's
outputs are checked against the planted model and an independent numpy
reference; later pipelines must write byte-identical outputs. Every failed
command or check counts as a failed operation.

Timings are wall seconds at reference speed. A shared machine's processor
speed changes by up to 1.6x from one minute to the next, with other
tenants' load, so a fixed reference computation (``reference_time``) is
timed in this process before the first command and after each one, and
each command's wall time is multiplied by ``REFERENCE_S`` over the mean
of the reference times around it. That estimates the command's time at the
speed where the reference takes ``REFERENCE_S`` seconds. A change in the
program moves these timings as it moves wall time; a change in the
machine's momentary speed mostly does not. The set-ups are
scaled the same way. Each timing is the median, over the run's pipelines,
of each command's scaled wall time, summed over the stage's commands. The
raw wall times are printed and kept with the results too.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
command once untraced and once under ``tracer.py`` and reports the
per-layer metrics and the tracing overhead. Progress lines, the machine
and provenance block and tail percentiles go to stdout before the last
line, which is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The full result is also written to
``.orthobench/results/``.

``--scale tiny`` runs the same pipelines on tiny inputs for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# one BLAS and OpenMP thread in this process (set-up, reference timing)
# and in every child process; one thread keeps the timings of a shared
# machine steady
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# a command still running this long after the benchmark started is killed
# and counted failed, so that a run always ends within three minutes
DEADLINE_S = 170.0
# end-to-end runs time at least three pipelines, so that each command's
# timing is the median of several; a traced run needs one round
MIN_PIPELINES = 3
# set-ups per run; setup_s is their median
SETUP_REPEATS = 3

# the end-to-end timing metric each command's wall time adds to
STAGE_OF = {
    "train-base": "train_base_s",
    "build-graph": "build_graph_s",
    "train-conversion": "train_conversion_s",
    "eval": "score_s",
    "predict": "score_s",
    "inspect-weights": "inspect_s",
}


# the reference computation's time at reference speed; it took 0.017-0.031 s
# on a shared 2-vCPU Intel Xeon VM
REFERENCE_S = 0.02
# reference computations timed between two commands; their median counts
REFERENCE_REPEATS = 5
_REF_TEXT = "\t".join(f"{k * 0.37:.6f}" for k in range(40_000))
_REF_VALUES = np.random.default_rng(0).random(1 << 20)
_REF_ORDER = np.random.default_rng(1).permutation(1 << 20)
_REF_MATRIX = np.random.default_rng(2).random((96, 96))


def reference_time() -> float:
    """Median seconds of a fixed computation with the mix of work the CLI
    does: text parsing, dict building, gathers beyond the cache and small
    matrix products."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        fields = _REF_TEXT.split("\t")
        index = {field: k for k, field in enumerate(fields[:20_000])}
        sum(float(field) for field in fields) + len(index)
        _REF_VALUES[_REF_ORDER].sum()
        _REF_VALUES[_REF_ORDER[::-1]].sum()
        for _ in range(16):
            _REF_MATRIX @ _REF_MATRIX
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Command:
    name: str  # the subcommand
    argv: list[str]
    outputs: list[str] = field(default_factory=list)  # files it must write


@dataclass
class Outcome:
    command: Command
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    trace: dict | None = None
    reference_s: float = REFERENCE_S  # the reference time around the command

    @property
    def scaled_s(self) -> float:
        """Wall seconds at reference speed."""
        return self.wall_s * REFERENCE_S / self.reference_s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def run_child(argv, env, cwd, timeout) -> tuple[int, float, float, str, str]:
    """Run one child to completion; return code, wall s, max RSS MB, output."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def pipeline(shape: workloads.Shape, paths: dict[str, str], out: Path, seed: int,
             queries: list[str]) -> list[Command]:
    """The workload's CLI commands, in order; output paths live under ``out``."""
    common_graph = ["--target-genes", paths["target_genes.tsv"],
                    "--source-genes", paths["source_genes.tsv"]]
    cmds = []
    model = paths.get("base_model.json")
    if shape.base_steps:
        model = str(out / "base_model.json")
        argv = ["train-base", "--expr", paths["base_expr.tsv"], "--labels", paths["base_labels.tsv"],
                "--hidden", str(shape.hidden), "--loss", shape.loss, "--lr", repr(shape.base_lr),
                "--steps", str(shape.base_steps), "--seed", str(seed), "--out", model]
        if shape.base_batch:
            argv += ["--batch-size", str(shape.base_batch)]
        cmds.append(Command("train-base", argv, [model]))
    graph = str(out / "graph.tsv")
    cmds.append(Command("build-graph", [
        "build-graph", "--scores-tq", paths["scores_tq.tsv"], "--scores-qt", paths["scores_qt.tsv"],
        *common_graph, "--threshold", repr(workloads.THRESHOLD), "--tie-tol", repr(workloads.TIE_TOL),
        "--out", graph], [graph]))
    base = model
    for k, conv in enumerate(shape.conversions):
        trained, report = str(out / f"model_{k}.json"), str(out / f"report_{k}.tsv")
        argv = ["train-conversion", "--model", model if conv.warm else base, "--graph", graph,
                *common_graph, "--expr", paths["train_expr.tsv"], "--labels", paths["train_labels.tsv"],
                "--mode", conv.mode, "--alpha", repr(conv.alpha), "--beta", repr(conv.beta),
                "--lr", repr(conv.lr), "--steps", str(conv.steps), "--seed", str(seed),
                "--out", trained, "--report", report]
        if conv.batch:
            argv += ["--batch-size", str(conv.batch)]
        cmds.append(Command("train-conversion", argv, [trained, report]))
        model = trained
    cmds.append(Command("eval", ["eval", "--model", model, "--expr", paths["test_expr.tsv"],
                                 "--labels", paths["test_labels.tsv"]]))
    pred = str(out / "predictions.tsv")
    cmds.append(Command("predict", ["predict", "--model", model, "--expr", paths["test_expr.tsv"],
                                    "--out", pred], [pred]))
    table = str(out / "weights.tsv")
    cmds.append(Command("inspect-weights", ["inspect-weights", "--model", model, "--out", table], [table]))
    for gene in queries:
        top = str(out / f"top_{gene}.tsv")
        cmds.append(Command("inspect-weights", [
            "inspect-weights", "--model", model, "--target-gene", gene, "--top", str(shape.top),
            "--out", top], [top]))
    return cmds


def digest(outcome: Outcome) -> str:
    h = hashlib.sha256(outcome.stdout.encode())
    for path in outcome.command.outputs:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Bench:
    def __init__(self, args):
        self.args = args
        shape = workloads.WORKLOADS[args.workload]
        self.shape = workloads.tiny(shape) if args.scale == "tiny" else shape
        self.env = child_env()
        self.deadline = time.perf_counter() + DEADLINE_S
        self.work = ROOT / ".orthobench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] | None = None
        self.pipelines: list[dict[str, float]] = []
        self.names: list[str] = []  # the pipeline's commands, in order
        self.walls: list[list[float]] = []  # per pipeline, each command's wall s
        self.scaled: list[list[float]] = []  # the same at reference speed
        self.layers: list[dict[str, float]] = []
        self.overheads: list[float] = []
        self.eval_loss = math.nan

    # -- one command and one pipeline ---------------------------------------

    def run_command(self, cmd: Command, traced: bool, cwd: Path) -> Outcome:
        if traced:
            trace_path = cwd / ".trace.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "orthomask.cli", *cmd.argv]
        code, wall, rss, out, err = run_child(argv, self.env, cwd, self.time_left())
        trace = None
        if traced and code == 0:
            trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        return Outcome(cmd, code, wall, rss, out, err, trace)

    def time_left(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def fail(self, what: str):
        self.failed += 1
        self.failures.append(what)
        print(f"FAILED: {what}", flush=True)

    def run_pipeline(self, traced: bool) -> list[Outcome] | None:
        """Run every command once and check it; None if an operation failed."""
        # one path for every pipeline, so that output bytes can be compared
        out = self.work / "out"
        out.mkdir()
        cmds = pipeline(self.shape, self.paths, out, self.args.seed, self.queries)
        outcomes = []
        before = reference_time()
        for k, cmd in enumerate(cmds):
            self.attempted += 1
            outcome = self.run_command(cmd, traced, out)
            after = reference_time()
            outcome.reference_s, before = (before + after) / 2, after
            if outcome.code != 0:
                self.fail(f"{cmd.name} exited {outcome.code}: {outcome.stderr.strip()[-500:]}")
                # later commands need this one's outputs
                self.attempted += len(cmds) - k - 1
                self.failed += len(cmds) - k - 1
                return None
            outcomes.append(outcome)
        if not self.check(outcomes):
            return None
        shutil.rmtree(out)
        return outcomes

    def check(self, outcomes: list[Outcome]) -> bool:
        """First pipeline: full output checks. Later ones: identical bytes."""
        ok = True
        if self.digests is None:
            for outcome in outcomes:
                problem = reference.check(outcome, self.planted)
                if problem:
                    self.fail(f"{outcome.command.name}: {problem}")
                    ok = False
                elif outcome.command.name == "eval":
                    self.eval_loss = float(outcome.stdout.split()[-1])
            reference.load_doc.cache_clear()
            self.digests = [digest(o) for o in outcomes]
            return ok
        for outcome, expected in zip(outcomes, self.digests):
            if digest(outcome) != expected:
                self.fail(f"{outcome.command.name}: output differs from the first pipeline's")
                ok = False
        return ok

    # -- set-up and measurement ---------------------------------------------

    def setup(self) -> tuple[list[float], list[float]]:
        """Write the inputs ``SETUP_REPEATS`` times; keep the first copy.

        Returns each set-up's wall seconds and its seconds at reference speed.
        """
        tracer = Tracer() if self.args.trace else None
        times, scaled, writes = [], [], []
        before = reference_time()
        for k in range(SETUP_REPEATS):
            target = self.work / f"inputs-{k}"
            if tracer is not None:
                tracer.install()
            try:
                start = time.perf_counter()
                paths, planted = workloads.setup(self.shape, self.args.seed, str(target))
                times.append(time.perf_counter() - start)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            after = reference_time()
            scaled.append(times[-1] * REFERENCE_S / ((before + after) / 2))
            before = after
            if tracer is not None:
                writes.append(tracer.summary().get("dataio.write_expression_tsv.s", 0.0))
                tracer.spans.clear()
            if k == 0:
                self.paths, self.planted = paths, planted
            else:
                shutil.rmtree(target)
        step = self.shape.n_targets // self.shape.queries
        self.queries = [self.planted.target_ids[k * step] for k in range(self.shape.queries)]
        self.setup_writes = writes
        return times, scaled

    def warm_up(self):
        """Import once so that byte-compilation is not timed."""
        code, _, _, _, err = run_child([sys.executable, "-c", "import orthomask.cli"],
                                       self.env, self.work, self.time_left())
        if code != 0:
            raise RuntimeError(f"cannot import orthomask: {err.strip()}")

    def measure(self):
        """Run pipelines until the next one would end after ``--seconds``.

        With ``--trace 1`` each round is an untraced pipeline followed by a
        traced one; their difference is the tracing overhead.
        """
        start = time.perf_counter()
        rounds = []
        while True:
            t0 = time.perf_counter()
            plain = self.run_pipeline(traced=False)
            if plain is None:
                return
            stages = stage_times(plain)
            self.names = [o.command.name for o in plain]
            self.walls.append([o.wall_s for o in plain])
            self.scaled.append([o.scaled_s for o in plain])
            if self.args.trace:
                traced = self.run_pipeline(traced=True)
                if traced is None:
                    return
                self.overheads.append(stage_times(traced)["pipeline_s"] - stages["pipeline_s"])
                self.layers.append(layer_totals(traced))
            self.pipelines.append(stages)
            rounds.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            enough = len(self.pipelines) >= (1 if self.args.trace else MIN_PIPELINES)
            if enough and elapsed + statistics.median(rounds) > self.args.seconds:
                return


def median_stages(names: list[str], times: list[list[float]]) -> dict[str, float]:
    """Each command's median time over the pipelines, summed per stage and
    over the pipeline."""
    typical = [statistics.median(column) for column in zip(*times)]
    stages = dict.fromkeys(STAGE_OF.values(), 0.0)
    for name, seconds in zip(names, typical):
        stages[STAGE_OF[name]] += seconds
    stages["pipeline_s"] = sum(typical)
    return stages


def stage_times(outcomes: list[Outcome]) -> dict[str, float]:
    """One pipeline's stage times at reference speed, its wall time and peak RSS."""
    stages = median_stages([o.command.name for o in outcomes], [[o.scaled_s for o in outcomes]])
    stages["pipeline_wall_s"] = sum(o.wall_s for o in outcomes)
    stages["peak_rss_mb"] = max(o.rss_mb for o in outcomes)
    return stages


def layer_totals(outcomes: list[Outcome]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for o in outcomes:
        for key, value in o.trace.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def tail(values: list[float]) -> str:
    """Min, median, and the highest percentile with ten samples beyond it."""
    n = len(values)
    text = f"min {min(values):.6g}, median {statistics.median(values):.6g} (n={n})"
    if n >= 20:
        text += f", p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6g}"
    return text


def machine_block(seed: int) -> dict:
    import orthomask

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        from orthomask import kernels
        backend = kernels.active_backend()
    except (ImportError, AttributeError):
        backend = "none"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend,
        "orthomask": getattr(orthomask, "__version__", "unknown"),
        "git_commit": commit,
        "seed": seed,
        "child_threads": {var: str(THREADS) for var in THREAD_VARS},
    }


def summarize(values) -> float:
    """The median of a metric's finite samples; 0 when nothing was measured."""
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    args.seed %= 2**64
    if not (SRC / "orthomask" / "cli.py").is_file():
        print(f"orthobench: no orthomask sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # turn a termination request into an exception, so that the running
    # child is killed and waited for on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench = Bench(args)
    machine = machine_block(args.seed)
    print("machine:", json.dumps(machine), flush=True)
    bench.work.mkdir(parents=True)
    try:
        setup_walls, setup_times = bench.setup()
        bench.warm_up()
        bench.measure()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    # per set-up or per pipeline; timings at reference speed except the *_wall_s
    samples = {"setup_s": setup_times, "setup_wall_s": setup_walls}
    for name in ("pipeline_s", "pipeline_wall_s", *STAGE_OF.values(), "peak_rss_mb"):
        if name != "train_base_s" or bench.shape.base_steps:
            samples[name] = [p[name] for p in bench.pipelines]
    samples["loss_ratio"] = [bench.eval_loss / reference.planted_loss(bench.planted)]
    units = {"train_base_s": "s", "setup_wall_s": "s", "pipeline_wall_s": "s",
             **{m["name"]: m["unit"] for m in spec["end_to_end"]}}
    for name, values in samples.items():
        if values:
            print(f"{name} [{units[name]}]: {tail(values)}")
    print(f"error_rate [ratio]: {bench.failed / max(bench.attempted, 1):.6g} "
          f"({bench.failed} of {bench.attempted} operations)")

    if args.trace:
        chosen = spec["per_layer"]
        samples["trace.overhead_s"] = bench.overheads
        samples["dataio.write_expression_tsv.s"] = bench.setup_writes
        for m in chosen:
            samples.setdefault(m["name"], [layer.get(m["name"], 0) for layer in bench.layers])
    else:
        chosen = spec["end_to_end"]
    values = {m["name"]: summarize(samples[m["name"]]) for m in chosen}
    if not args.trace and bench.scaled:
        typical = median_stages(bench.names, bench.scaled)
        print("reported, each command's median summed:",
              ", ".join(f"{k} {v:.6g}" for k, v in typical.items() if k in values))
        values.update((k, v) for k, v in typical.items() if k in values)
    result = {
        "correct": bench.failed == 0 and bool(bench.pipelines),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }
    results = ROOT / ".orthobench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    full = {"workload": args.workload, "scale": args.scale, "machine": machine,
            "samples": samples, "commands": bench.names, "walls": bench.walls,
            "scaled": bench.scaled,
            "failures": bench.failures, **result}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
