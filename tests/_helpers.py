"""Shared test utilities: independent oracles, random instance builders and
a stand-in sequence scorer.

The oracles here deliberately avoid the library's own code paths: the RBH
oracle is a direct double loop over the best-hit definition, gradient
checks use central finite differences, the table oracle reads a file
line by line, and the weight-table oracle loops over the dense matrix.
"""

import hashlib
import json
from operator import itemgetter

import numpy as np

from orthomask.errors import ParseError
from orthomask.interpret import WEIGHT_TABLE_HEADER
from orthomask.netcore import (
    ACT_IDENTITY,
    ACTIVATIONS,
    FeedforwardNetwork,
    Layer,
)
from orthomask.orthograph import BiadjacencyMatrix
from orthomask.tsv import read_table


def fd_gradient(fn, x, step=1e-5):
    """Central finite differences of a scalar function, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[k] += step
        xm.flat[k] -= step
        grad.flat[k] = (fn(xp) - fn(xm)) / (2.0 * step)
    return grad


def rel_err(analytic, numeric):
    """Per-coordinate error relative to gradient size, floored at 1 so
    near-zero coordinates are judged on absolute error."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return np.abs(analytic - numeric) / denom


def earlier_layout(doc, hashed):
    """A parsed model document in the layout earlier versions wrote: the
    json module's compact text (``repr`` floats such as ``1e-05``, ``\\u``
    escapes) with ``network_sha256``, the SHA-256 of the compact text of the
    network ``hashed``, between the network and the conversion layer."""

    def compact(value):
        return json.dumps(value, separators=(",", ":"))

    digest = hashlib.sha256(compact(hashed).encode()).hexdigest()
    return (
        '{"network":' + compact(doc["network"]) + ',"network_sha256":"' + digest
        + '","conversion":' + compact(doc["conversion"]) + "}\n"
    )


def random_mask(rng, n_t, n_s, density=0.4, force_edge=False):
    bern = rng.uniform(0.0, 1.0, (n_t, n_s)) < density
    if force_edge and not bern.any():
        bern[rng.integers(0, n_t), rng.integers(0, n_s)] = True
    rows, cols = np.nonzero(bern)
    return BiadjacencyMatrix(
        [f"t{i}" for i in range(n_t)],
        [f"s{j}" for j in range(n_s)],
        zip(rows.tolist(), cols.tolist()),
    )


def random_network(rng, dims, frozen=False, activations=None):
    """Random MLP through the given dims, identity on the last layer."""
    layers = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        if activations is not None:
            act = activations[k]
        elif k == len(dims) - 2:
            act = ACT_IDENTITY
        else:
            act = ACTIVATIONS[rng.integers(0, len(ACTIVATIONS))]
        layers.append(
            Layer(rng.normal(0.0, 1.0, (fan_out, fan_in)), rng.normal(0.0, 0.5, fan_out), act)
        )
    return FeedforwardNetwork(layers, frozen=frozen)


# plain elementwise activations and their derivatives, for the dense reference
_DENSE_ACTS = {
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0) * 1.0),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)), lambda z: np.exp(-z) / (1.0 + np.exp(-z)) ** 2),
}


def dense_conversion_grad(layer, net, xs, labels, loss_kind):
    """Gradient of the mean batch loss of ``net(xs @ C.T)`` w.r.t. the
    conversion weights, by backpropagation through the dense matrix ``C``
    with plain matmuls; hard mode keeps the support entries in edge order."""
    dense = layer.to_dense()
    a, pres = xs @ dense.T, []
    for lay in net.layers:
        pres.append(a @ lay.weights.T + lay.bias)
        a = _DENSE_ACTS[lay.activation][0](pres[-1])
    if loss_kind == "mse":
        delta = 2.0 * (a - labels) / a.size
    else:
        probs = np.exp(a - a.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(len(labels)), labels] -= 1.0
        delta = probs / len(labels)
    for lay, z in zip(reversed(net.layers), reversed(pres)):
        delta = (delta * _DENSE_ACTS[lay.activation][1](z)) @ lay.weights
    grad = delta.T @ xs
    if layer.mode == "soft":
        return grad
    return grad[layer.mask.edge_rows, layer.mask.edge_cols]


def edge_set(mask):
    """A mask's edges as a set of ``(target index, source index)`` pairs."""
    return set(zip(mask.edge_rows.tolist(), mask.edge_cols.tolist()))


def read_weight_rows(path):
    """A weight table's ``(target_gene, source_gene, weight, on_support)``
    rows, in file order, read with ``float()`` and an exact flag lookup."""
    table = read_table(path, WEIGHT_TABLE_HEADER, key_fields=2)
    flags = map({"true": True, "false": False}.__getitem__, table.column(3))
    return list(zip(table.column(0), table.column(1), map(float, table.column(2)), flags))


def weight_table_oracle(layer):
    """The weight table by plain loops over the dense matrix and the edge
    set: every entry in soft mode, only the edges in hard mode, sorted by
    (target ID, source ID) as ``str``."""
    dense, edges = layer.to_dense(), edge_set(layer.mask)
    rows = []
    for i, t_gene in enumerate(layer.mask.target_gene_ids):
        for j, s_gene in enumerate(layer.mask.source_gene_ids):
            if layer.mode == "soft" or (i, j) in edges:
                rows.append((t_gene, s_gene, float(dense[i, j]), (i, j) in edges))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def kmer_similarity(seq_a: str, seq_b: str, k: int) -> float:
    """Jaccard similarity of the two sequences' k-mer sets, a stand-in scorer
    for making fixtures.

    Identical sequences score 1.0; if either sequence is shorter than k and
    the sequences differ, the score is 0.0. Symmetric in its arguments.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not seq_a or not seq_b:
        raise ValueError("sequences must be non-empty")
    if seq_a == seq_b:
        return 1.0
    kmers_a = {seq_a[i : i + k] for i in range(len(seq_a) - k + 1)}
    kmers_b = {seq_b[i : i + k] for i in range(len(seq_b) - k + 1)}
    if not kmers_a or not kmers_b:
        return 0.0
    return len(kmers_a & kmers_b) / len(kmers_a | kmers_b)


# ---------------------------------------------------------------------------
# reciprocal-best-hit oracle
# ---------------------------------------------------------------------------

def rbh_brute_force(entries_tq, entries_qt, threshold, tie_tol, target_genes, source_genes):
    """Edge set by directly testing the reciprocal best-hit definition for
    every (target, source) pair."""
    score_tq = {(q, s): v for q, s, v in entries_tq}
    score_qt = {(q, s): v for q, s, v in entries_qt}
    max_tq = {}
    for (q, _), v in score_tq.items():
        max_tq[q] = max(max_tq.get(q, -np.inf), v)
    max_qt = {}
    for (q, _), v in score_qt.items():
        max_qt[q] = max(max_qt.get(q, -np.inf), v)

    edges = set()
    for i, t in enumerate(target_genes):
        for j, s in enumerate(source_genes):
            fwd = score_tq.get((t, s))
            rev = score_qt.get((s, t))
            if fwd is None or rev is None:
                continue
            if (
                fwd >= threshold
                and fwd >= max_tq[t] - tie_tol
                and rev >= threshold
                and rev >= max_qt[s] - tie_tol
            ):
                edges.add((i, j))
    return edges


def random_score_instance(rng, max_targets=20, max_sources=30):
    """Random directed score tables plus thresholds, with deliberate exact
    ties (quantized scores) about half the time."""
    n_t = int(rng.integers(1, max_targets + 1))
    n_s = int(rng.integers(1, max_sources + 1))
    target_genes = [f"t{i}" for i in range(n_t)]
    source_genes = [f"s{j}" for j in range(n_s)]
    pair_prob = rng.uniform(0.05, 0.6)
    quantize = rng.uniform() < 0.5

    def make_entries(queries, subjects):
        take = rng.uniform(0.0, 1.0, (len(queries), len(subjects))) < pair_prob
        scores = rng.uniform(0.0, 1.0, take.shape)
        if quantize:
            scores = np.round(scores, 1)  # coarse grid forces exact ties
        return [
            (queries[i], subjects[j], float(scores[i, j]))
            for i, j in zip(*np.nonzero(take))
        ]

    entries_tq = make_entries(target_genes, source_genes)
    entries_qt = make_entries(source_genes, target_genes)
    threshold = rng.uniform(0.0, 0.8)
    tie_tol = 0.0 if rng.uniform() < 0.5 else rng.uniform(0.0, 0.3)
    return entries_tq, entries_qt, threshold, tie_tol, target_genes, source_genes


# ---------------------------------------------------------------------------
# line-by-line table reader oracle
# ---------------------------------------------------------------------------

def read_table_per_line(path, header=None, key_fields=1):
    """The table rules checked one line at a time: returns the header's
    names and ``(lineno, fields)`` for each record, or raises the
    ParseError of the first bad line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        line = fh.readline().rstrip("\n")
        expected = line if header is None else "\t".join(header)
        if line != expected:
            raise ParseError(f"expected header {expected!r}, got {line!r}", path, 1)
        names = line.split("\t")
        if len(set(names)) != len(names):
            raise ParseError("duplicate column name in header", path, 1)

        width, key_of, seen = len(names), itemgetter(*range(key_fields)), set()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise ParseError(f"expected {width} fields, got {len(fields)}", path, lineno)
            key = key_of(fields)
            if key in seen:
                raise ParseError(f"duplicate {'/'.join(names[:key_fields])} {key!r}", path, lineno)
            seen.add(key)
            records.append((lineno, fields))
    return names, records
