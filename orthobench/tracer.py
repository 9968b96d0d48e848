"""Per-layer tracing of the orthomask modules, from outside the package.

``Tracer.install`` wraps the public functions at which one module calls into
the next and patches each wrapper into every ``orthomask`` module that
holds the original under that name, which is where callers look it up.
Nothing under ``src/`` is edited. Each wrapped call records a span (name,
start, end, parent span) in memory; :meth:`Tracer.summary` turns the spans
into busy time, call counts and self time (span minus its direct child
spans) per name. Counters record work derived from argument shapes
("computed" flops and bytes), never from timing, so they repeat exactly.

Run as a script, it executes one CLI command under the tracer and writes
the summary as JSON::

    python3 orthobench/tracer.py TRACE.json -- build-graph --scores-tq ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# float64 and int64 elements are both 8 bytes
ITEM = 8


def _csr_forward(counts, a, result):
    b, e, rows = a["xs"].shape[0], a["data"].shape[0], a["indptr"].shape[0] - 1
    counts["kernels.flops_computed"] += 2 * b * e
    # gathered xs, data, indices, indptr, output
    counts["kernels.bytes_computed"] += ITEM * (b * e + 2 * e + rows + 1 + b * rows)


def _csr_backward(counts, a, result):
    b, e, rows = a["xs"].shape[0], a["data"].shape[0], a["indptr"].shape[0] - 1
    cols = a["xs"].shape[1]
    counts["kernels.flops_computed"] += 4 * b * e
    # gathered xs and scattered grad_xs, upstream, data/indices/grad_data,
    # indptr, grad_xs initialisation
    counts["kernels.bytes_computed"] += ITEM * (2 * b * e + b * rows + 3 * e + rows + 1 + b * cols)


def _dense_forward(counts, a, result):
    layer = a["layer"]
    if layer.mode != "soft":
        return
    b, n_t, n_s = a["xs"].shape[0], layer.n_targets, layer.n_sources
    counts["netcore.dense_flops_computed"] += 2 * b * n_t * n_s
    counts["netcore.dense_bytes_computed"] += ITEM * (b * n_s + n_t * n_s + b * n_t)


def _dense_backward(counts, a, result):
    layer = a["layer"]
    if layer.mode != "soft":
        return
    b, n_t, n_s = a["xs"].shape[0], layer.n_targets, layer.n_sources
    # grad_w = up.T @ xs and grad_xs = up @ W
    counts["netcore.dense_flops_computed"] += 4 * b * n_t * n_s
    counts["netcore.dense_bytes_computed"] += ITEM * (2 * b * n_t + 2 * b * n_s + 2 * n_t * n_s)


def _file_bytes(key, arg):
    def count(counts, a, result):
        counts[key] += os.path.getsize(a[arg])
    return count


def _rows(counts, a, result):
    counts["interpret.export_weight_table.rows"] += len(result)


def _steps(counts, a, result):
    counts["training.steps"] += a["cfg"].steps


# (module, attribute, span name, counter); a missing module or attribute is
# skipped, so the trace keeps working when a layer is removed or renamed
WRAPPED = [
    ("cli", "main", "cli.main", None),
    ("orthograph", "read_score_table", None, _file_bytes("orthograph.read_score_table.bytes", "path")),
    ("orthograph", "build_rbh_graph", None, None),
    ("orthograph", "graph_to_tsv", None, None),
    ("orthograph", "tsv_to_graph", None, None),
    ("orthograph", "read_gene_list", None, None),
    ("dataio", "read_expression_tsv", None, _file_bytes("dataio.read_expression_tsv.bytes", "path")),
    ("dataio", "attach_labels", None, None),
    ("dataio", "align_to_genes", None, None),
    ("dataio", "write_expression_tsv", None, None),
    ("netcore", "forward_conversion_batch", None, _dense_forward),
    ("netcore", "backward_conversion_batch", None, _dense_backward),
    ("netcore", "mlp_forward_batch", None, None),
    ("netcore", "mlp_backward_batch", None, None),
    ("netcore", "loss_mse_batch", "netcore.loss", None),
    ("netcore", "loss_cross_entropy_batch", "netcore.loss", None),
    ("kernels", "csr_matvec_batch", None, _csr_forward),
    ("kernels", "csr_backward_batch", None, _csr_backward),
    ("training", "train_conversion", None, _steps),
    ("training", "train_base", None, _steps),
    ("training", "evaluate", None, None),
    ("training", "regularization_penalty", None, None),
    ("training", "_Adam.step", "training.optimizer_step", None),
    ("training", "_Sgd.step", "training.optimizer_step", None),
    ("modelio", "save_model", None, _file_bytes("modelio.save_model.bytes", "path")),
    ("modelio", "load_model", None, None),
    ("interpret", "export_weight_table", None, _rows),
    ("interpret", "top_contributors", None, None),
]

# spans whose self time is reported: the command, and the training loops
SELF_TIMES = {"cli.main": "cli.self_s", "training.train_conversion": "training.self_s",
              "training.train_base": "training.self_s"}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        names = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if counter is not None:
                # arguments by name, whether passed by position or keyword
                counter(counts, dict(zip(names, args), **kwargs), result)
            return result

        return traced

    def install(self):
        modules = {}
        for short, attr, name, counter in WRAPPED:
            try:
                modules[short] = modules.get(short) or importlib.import_module(f"orthomask.{short}")
            except ImportError:
                continue
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(modules[short], owner, None)
                if cls is not None and hasattr(cls, method):
                    self._patch(cls, method, self.wrap(name, getattr(cls, method), counter))
                continue
            original = getattr(modules[short], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name or f"{short}.{attr}", original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "orthomask" or mod_name.startswith("orthomask."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def summary(self) -> dict[str, float]:
        """Busy seconds and calls per span name, self times, and counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.s"] += end - start
            out[f"{name}.calls"] += 1
            if name in SELF_TIMES:
                out[SELF_TIMES[name]] += end - start - child_time[k]
        out.update(self.counts)
        return dict(out)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <orthomask arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install()
    from orthomask import cli

    try:
        code = cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
