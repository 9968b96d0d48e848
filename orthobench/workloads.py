"""Workload shapes and their seeded input files.

Every workload plants a known transfer problem and writes it as the files a
user of the ``orthomask`` CLI would hold:

* two directed score tables (target->source and source->target queries)
  whose reciprocal best hits are exactly the planted orthology graph, plus
  about ``decoys`` lower-scoring decoy hits per query;
* the two gene universe files;
* source-species expression and labels, split into train and test files;
* for ``hard_genome`` and ``soft_dense``, the planted frozen predictor as
  ``base_model.json``; for ``small_sweep``, target-species expression and
  labels from which the pipeline trains its own predictor.

The planted model is a hard conversion layer on the graph feeding a
one-hidden-layer relu network. Regression labels are its output plus
Gaussian noise; class labels are drawn from the softmax of its logits.
All draws come from one ``numpy.random.default_rng(seed)`` in a fixed
order, so a seed pins every input byte for byte. The files are written
with the package's own writers, so set-up time follows their speed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from reference import convert, network

THRESHOLD = 0.5
# planted hits score in [0.9, 1.0] and decoys below 0.8, so with this
# tolerance a query's best hits are exactly its planted partners
TIE_TOL = 0.1


@dataclass(frozen=True)
class Conversion:
    """One ``train-conversion`` command of a pipeline."""

    mode: str
    steps: int
    lr: float
    alpha: float = 1.0
    beta: float = 0.0
    batch: int | None = None  # None is full batch
    warm: bool = False  # start from the previous conversion's model


@dataclass(frozen=True)
class Shape:
    n_targets: int
    n_sources: int
    second_share: float  # share of target genes with two planted orthologs
    decoys: int  # decoy hits per query in each score table
    n_train: int
    n_test: int
    hidden: int
    loss: str  # "mse" or "ce"
    noise: float  # label noise sigma (mse) or logit standard deviation (ce)
    conversions: tuple[Conversion, ...]
    queries: int  # inspect-weights --target-gene commands
    top: int = 5
    base_steps: int = 0  # > 0: the pipeline starts with train-base
    base_samples: int = 0
    base_lr: float = 0.01
    base_batch: int | None = None
    classes: int = 1

    @property
    def n_edges(self) -> int:
        return self.n_targets + round(self.second_share * self.n_targets)


WORKLOADS = {
    # paper-like genome scale in hard mode: CSR kernels, the expression
    # parser and RBH construction carry the work; the soft penalty, dense
    # Adam and the dense model document never run
    "hard_genome": Shape(
        n_targets=20_000, n_sources=20_000, second_share=0.3, decoys=10,
        n_train=32, n_test=48, hidden=16, loss="mse", noise=1.0,
        conversions=(Conversion("hard", steps=3, lr=0.01),),
        queries=2,
    ),
    # soft mode on a dense n_t x n_s weight matrix: dense products, the
    # penalty, Adam, the dense model document and the n_t*n_s weight table
    # carry the work; the CSR kernels are never called. Not in BENCHMARK.json:
    # with a third workload each timed run is too short to be steady within
    # the total time the benchmark may take, and small_sweep runs the same
    # soft-mode layers at 200 x 300
    "soft_dense": Shape(
        n_targets=400, n_sources=600, second_share=0.3, decoys=10,
        n_train=400, n_test=200, hidden=16, loss="mse", noise=1.0,
        conversions=(Conversion("soft", steps=20, lr=1e-4, alpha=10.0),),
        queries=2,
    ),
    # small genomes and thousands of minibatch steps: per-call overhead
    # dominates; the only workload that trains a base predictor, whose
    # parameter gradients are actually used
    "small_sweep": Shape(
        n_targets=200, n_sources=300, second_share=0.3, decoys=10,
        n_train=400, n_test=400, hidden=4, loss="ce", noise=1.0,
        conversions=(
            Conversion("hard", steps=150, lr=0.001, batch=32),
            Conversion("soft", steps=150, lr=0.001, batch=32, warm=True),
        ),
        queries=3, base_steps=500, base_samples=2000, base_lr=0.003, base_batch=32,
        classes=3,
    ),
}


def tiny(shape: Shape) -> Shape:
    """The same pipeline at a scale that runs in about a second."""
    return replace(
        shape,
        n_targets=12, n_sources=15, decoys=3, n_train=24, n_test=12, hidden=4,
        conversions=tuple(replace(c, steps=min(c.steps, 5)) for c in shape.conversions),
        queries=2, top=3,
        base_steps=min(shape.base_steps, 5), base_samples=min(shape.base_samples, 24),
    )


@dataclass
class Planted:
    """The generating model, kept in memory for the output checks."""

    target_ids: list[str]
    source_ids: list[str]
    edge_rows: np.ndarray  # canonical row-major edge order
    edge_cols: np.ndarray
    conv_weights: np.ndarray  # one per edge
    layers: list[tuple[np.ndarray, np.ndarray, str]]  # (weights, bias, activation)
    test_x: np.ndarray
    test_labels: np.ndarray  # (n, 1) float or (n,) int
    test_ids: list[str]


def _planted_graph(rng, n_t, n_s, n_second):
    """1-2 planted orthologs per target gene, exactly ``n_t + n_second`` edges.

    Needs ``n_s >= n_t``: the first partners are distinct source genes.
    """
    first = rng.permutation(n_s)[:n_t]
    doubled = np.sort(rng.choice(n_t, size=n_second, replace=False))
    # a second partner distinct from the first: draw from n_s - 1 and skip it
    draw = rng.integers(0, n_s - 1, n_second)
    second = draw + (draw >= first[doubled])
    rows = np.concatenate([np.arange(n_t), doubled])
    cols = np.concatenate([first, second])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def _score_entries(rng, queries, subjects, n_queries, n_subjects, decoys, q_ids, s_ids):
    """Planted hits in [0.9, 1.0] plus up to ``decoys`` distinct decoys below 0.8."""
    planted_key = queries * n_subjects + subjects
    cand_q = np.repeat(np.arange(n_queries), decoys)
    cand_s = rng.integers(0, n_subjects, cand_q.size)
    keys = np.unique(cand_q * n_subjects + cand_s)
    keys = keys[~np.isin(keys, planted_key)]
    all_keys = np.concatenate([planted_key, keys])
    scores = np.concatenate(
        [rng.uniform(0.9, 1.0, planted_key.size), rng.uniform(0.1, 0.8, keys.size)]
    )
    order = np.argsort(all_keys, kind="stable")
    all_keys, scores = all_keys[order], np.round(scores[order], 6)
    qs, ss = np.divmod(all_keys, n_subjects)
    return [(q_ids[q], s_ids[s], float(v)) for q, s, v in zip(qs.tolist(), ss.tolist(), scores)]


def _unit_rows(w):
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _labels(rng, shape, logits, split):
    """Noisy regression targets or classes drawn from the softmax of the logits.

    Regression noise is rescaled to root mean square ``shape.noise`` within
    each part of ``split``, so the planted model's loss on it is exactly
    ``noise**2`` whatever the seed.
    """
    if shape.loss == "mse":
        noise = rng.normal(0.0, 1.0, logits.shape)
        for part in split:
            noise[part] *= shape.noise / np.sqrt(np.mean(noise[part] ** 2))
        return logits + noise
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    u = rng.uniform(0.0, 1.0, (logits.shape[0], 1))
    return np.minimum((p.cumsum(axis=1) < u).sum(axis=1), shape.classes - 1).astype(np.int64)


def setup(shape: Shape, seed: int, out_dir: str) -> tuple[dict[str, str], Planted]:
    """Generate and write one workload's input files; return paths and the plant."""
    from orthomask import dataio, modelio, netcore, orthograph

    rng = np.random.default_rng(seed)
    n_t, n_s = shape.n_targets, shape.n_sources
    t_ids = [f"T{i:05d}" for i in range(n_t)]
    s_ids = [f"S{j:05d}" for j in range(n_s)]
    rows, cols = _planted_graph(rng, n_t, n_s, shape.n_edges - n_t)
    degree = np.bincount(rows, minlength=n_t)
    conv = rng.uniform(0.8, 1.2, rows.size) / degree[rows]

    out_dim = 1 if shape.loss == "mse" else shape.classes
    # unit-norm weight rows fix the scale of every activation, so that the
    # loss of a fitted model relative to the planted one varies little by seed
    layers = [
        (_unit_rows(rng.normal(0.0, 1.0, (shape.hidden, n_t))),
         rng.normal(0.0, 0.1, shape.hidden), "relu"),
        (_unit_rows(rng.normal(0.0, 1.0, (out_dim, shape.hidden))),
         rng.normal(0.0, 0.1, out_dim), "identity"),
    ]

    tq = _score_entries(rng, rows, cols, n_t, n_s, shape.decoys, t_ids, s_ids)
    qt = _score_entries(rng, cols, rows, n_s, n_t, shape.decoys, s_ids, t_ids)

    n = shape.n_train + shape.n_test
    xs = rng.standard_normal((n, n_s))
    split = {"train": slice(0, shape.n_train), "test": slice(shape.n_train, n)}
    outputs = network(layers, convert(rows, cols, conv, xs, n_t))
    if shape.loss == "ce":
        # scale the head so that centred logits have standard deviation
        # ``shape.noise``: every seed's labels are then about as noisy
        scale = shape.noise / (outputs - outputs.mean(axis=1, keepdims=True)).std()
        w, b, act = layers[-1]
        layers[-1] = (w * scale, b * scale, act)
        outputs = network(layers, convert(rows, cols, conv, xs, n_t))
    labels = _labels(rng, shape, outputs, split.values())
    sample_ids = [f"sample_{k:05d}" for k in range(n)]

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        name: os.path.join(out_dir, name)
        for name in (
            "scores_tq.tsv", "scores_qt.tsv", "target_genes.tsv", "source_genes.tsv",
            "train_expr.tsv", "train_labels.tsv", "test_expr.tsv", "test_labels.tsv",
        )
    }
    orthograph.write_score_table(orthograph.ScoreTable("target", "source", tq), paths["scores_tq.tsv"])
    orthograph.write_score_table(orthograph.ScoreTable("source", "target", qt), paths["scores_qt.tsv"])
    orthograph.write_gene_list(t_ids, paths["target_genes.tsv"])
    orthograph.write_gene_list(s_ids, paths["source_genes.tsv"])
    for part, sl in split.items():
        ds = dataio.ExpressionDataset("source", s_ids, sample_ids[sl], xs[sl])
        dataio.write_expression_tsv(ds, paths[f"{part}_expr.tsv"])
        dataio.write_labels_tsv(sample_ids[sl], labels[sl], paths[f"{part}_labels.tsv"])

    net = netcore.FeedforwardNetwork([netcore.Layer(*lay) for lay in layers], frozen=True)
    if shape.base_steps:
        # target-species data labelled by the planted predictor
        xb = convert(rows, cols, conv, rng.standard_normal((shape.base_samples, n_s)), n_t)
        base_labels = _labels(rng, shape, network(layers, xb), [slice(None)])
        base_ids = [f"base_{k:05d}" for k in range(shape.base_samples)]
        paths["base_expr.tsv"] = os.path.join(out_dir, "base_expr.tsv")
        paths["base_labels.tsv"] = os.path.join(out_dir, "base_labels.tsv")
        dataio.write_expression_tsv(
            dataio.ExpressionDataset("target", t_ids, base_ids, xb), paths["base_expr.tsv"]
        )
        dataio.write_labels_tsv(base_ids, base_labels, paths["base_labels.tsv"])
    else:
        paths["base_model.json"] = os.path.join(out_dir, "base_model.json")
        modelio.save_model(net, None, paths["base_model.json"])

    planted = Planted(
        t_ids, s_ids, rows, cols, conv, layers,
        xs[split["test"]], labels[split["test"]], sample_ids[split["test"]],
    )
    return paths, planted
