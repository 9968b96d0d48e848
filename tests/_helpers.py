"""Shared test utilities: independent oracles, random instance builders and
a stand-in sequence scorer.

The oracles here deliberately avoid the library's own code paths: the RBH
oracle is a direct double loop over the best-hit definition, and gradient
checks use central finite differences.
"""

import numpy as np

from orthomask.netcore import (
    ACT_IDENTITY,
    ACTIVATIONS,
    FeedforwardNetwork,
    Layer,
)
from orthomask.orthograph import BiadjacencyMatrix


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
