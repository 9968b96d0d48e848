"""Output checks against the planted model and an independent reference.

The reference reads saved model documents with the ``json`` module and
computes predictions with an edge-list scatter (hard mode) or one matmul
(soft mode) followed by plain matmuls through the network. It uses none of
``orthomask``'s code, so a fast path in the package is checked against
arithmetic it does not share.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

# the reference sums in another order than the package does
RTOL = 1e-9


@functools.lru_cache(maxsize=4)
def load_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _layers(doc):
    return [
        (np.array(lay["weights"], dtype=np.float64).reshape(lay["rows"], lay["cols"]),
         np.array(lay["bias"], dtype=np.float64), lay["activation"])
        for lay in doc["network"]["layers"]
    ]


def convert(rows, cols, weights, xs, n_t):
    """Edge-list scatter: out[:, rows[e]] += weights[e] * xs[:, cols[e]]."""
    out = np.zeros((xs.shape[0], n_t))
    np.add.at(out.T, rows, (xs[:, cols] * weights).T)
    return out


def network(layers, a):
    """Plain matmuls through (weights, bias, activation) layers."""
    for w, b, act in layers:
        a = a @ w.T + b
        if act == "relu":
            a = np.maximum(a, 0.0)
        elif act == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-a))
    return a


def predict(doc: dict, xs: np.ndarray) -> np.ndarray:
    conv = doc["conversion"]
    n_t = len(conv["target_gene_ids"])
    if conv["mode"] == "hard":
        edges = np.array(conv["edges"], dtype=np.float64).reshape(-1, 3)
        rows, cols = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
        xt = convert(rows, cols, edges[:, 2], xs, n_t)
    else:
        w = np.array(conv["weights"], dtype=np.float64).reshape(n_t, len(conv["source_gene_ids"]))
        xt = xs @ w.T
    return network(_layers(doc), xt)


def loss(pred: np.ndarray, labels: np.ndarray) -> float:
    if labels.ndim == 2:
        return float(np.mean((pred - labels) ** 2))
    shifted = pred - pred.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def planted_loss(planted) -> float:
    """Held-out loss of the generating model itself."""
    xt = convert(planted.edge_rows, planted.edge_cols, planted.conv_weights,
                  planted.test_x, len(planted.target_ids))
    return loss(network(planted.layers, xt), planted.test_labels)


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _read_rows(path, header):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad header in {path}")
    return [line.split("\t") for line in lines[1:]]


def _close(a, b) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= RTOL * np.maximum(np.abs(a), np.abs(b)) + 1e-300))


def check(outcome, planted) -> str | None:
    """Return what is wrong with one command's output, or None."""
    argv, name = outcome.command.argv, outcome.command.name
    try:
        if name == "build-graph":
            return _check_graph(_arg(argv, "--out"), planted)
        if name in ("train-base", "train-conversion"):
            return _check_training(argv, name)
        doc = load_doc(_arg(argv, "--model"))
        ref = predict(doc, planted.test_x)
        if name == "eval":
            value = float(outcome.stdout.split()[-1])
            expected = loss(ref, planted.test_labels)
            return None if _close(value, expected) else f"loss {value!r} != reference {expected!r}"
        if name == "predict":
            return _check_predictions(_arg(argv, "--out"), ref, planted)
        if "--target-gene" in argv:
            return _check_top(argv, doc)
        return _check_table(_arg(argv, "--out"), doc, planted)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc}"
    return f"no check for {name}"


def _check_graph(path, planted):
    rows = _read_rows(path, "target_gene\tsource_gene")
    expected = [[planted.target_ids[i], planted.source_ids[j]]
                for i, j in zip(planted.edge_rows.tolist(), planted.edge_cols.tolist())]
    if rows != expected:
        return f"{len(rows)} edges differ from the {len(expected)} planted ones"
    return None


def _check_training(argv, name):
    doc = load_doc(_arg(argv, "--out"))
    if not doc["network"]["frozen"] and name == "train-base":
        return "base model is not saved frozen"
    if name == "train-conversion":
        steps = int(_arg(argv, "--steps"))
        rows = _read_rows(_arg(argv, "--report"), "step\tloss")
        losses = [float(r[1]) for r in rows[:-1]]
        if len(losses) != steps or not all(math.isfinite(v) for v in losses):
            return f"report has {len(losses)} finite losses for {steps} steps"
        # a full batch at these small learning rates always descends; a
        # wrong gradient does not
        if "--batch-size" not in argv and not losses[-1] < losses[0]:
            return f"full-batch training raised the loss from {losses[0]!r} to {losses[-1]!r}"
    return None


def _check_predictions(path, ref, planted):
    rows = _read_rows(path, "sample_id\tprediction")
    if [r[0] for r in rows] != list(planted.test_ids):
        return "prediction rows do not match the test samples"
    if ref.shape[1] == 1:
        got = np.array([float(r[1]) for r in rows])
        if not np.all(np.isfinite(got)):
            return "non-finite prediction"
        return None if _close(got, ref[:, 0]) else "predictions differ from the reference"
    got = np.array([int(r[1]) for r in rows])
    return None if np.array_equal(got, ref.argmax(axis=1)) else "classes differ from the reference"


def _row_weights(conv, t_index):
    """(source index, weight, on support) for one target gene's stored weights."""
    if conv["mode"] == "hard":
        return [(int(j), float(w), True) for i, j, w in conv["edges"] if int(i) == t_index]
    n_s = len(conv["source_gene_ids"])
    support = {int(j) for i, j in conv["edges"] if int(i) == t_index}
    row = conv["weights"][t_index * n_s:(t_index + 1) * n_s]
    return [(j, float(w), j in support) for j, w in enumerate(row)]


def _check_table(path, doc, planted):
    rows = _read_rows(path, "target_gene\tsource_gene\tweight\ton_support")
    conv = doc["conversion"]
    n_edges = len(planted.edge_rows)
    expected_rows = n_edges if conv["mode"] == "hard" else len(planted.target_ids) * len(planted.source_ids)
    flags = sum(r[3] == "true" for r in rows)
    if len(rows) != expected_rows or flags != n_edges:
        return f"{len(rows)} rows with {flags} true flags; expected {expected_rows} and {n_edges}"
    return None


def _check_top(argv, doc):
    conv = doc["conversion"]
    gene, top = _arg(argv, "--target-gene"), int(_arg(argv, "--top"))
    s_ids = conv["source_gene_ids"]
    entries = [(s_ids[j], w, on) for j, w, on in _row_weights(conv, conv["target_gene_ids"].index(gene))]
    entries.sort(key=lambda e: (-abs(e[1]), e[0]))
    expected = [[gene, s, repr(w), "true" if on else "false"] for s, w, on in entries[:top]]
    rows = _read_rows(_arg(argv, "--out"), "target_gene\tsource_gene\tweight\ton_support")
    return None if rows == expected else f"top contributors of {gene} differ from the reference"
