"""Seeded synthetic transfer problems with known ground truth.

The generator builds a full transfer problem: an orthology mask, true
on-support conversion weights, a frozen random predictor, and noisy
labels. All sampling comes from a single seeded PCG64 generator
(``numpy.random.default_rng``) in a fixed draw order, so a seed pins the
bundle byte-for-byte. :func:`write_bundle` writes it as the files the CLI
reads.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .dataio import ExpressionDataset, write_expression_tsv, write_labels_tsv
from .errors import integer_field, real_field
from .modelio import save_model
from .netcore import (
    ACT_IDENTITY,
    ACT_RELU,
    MODE_HARD,
    FeedforwardNetwork,
    Layer,
    MaskedLinearLayer,
    model_forward,
)
from .orthograph import BiadjacencyMatrix, graph_to_tsv, write_gene_list
from .training import evaluate


@dataclass
class SyntheticSpec:
    n_sources: int
    n_targets: int
    orthology_density: float
    num_samples: int
    noise_sigma: float
    hidden_dim: int
    seed: int

    def __post_init__(self):
        for name in ("n_sources", "n_targets", "num_samples", "hidden_dim", "seed"):
            setattr(self, name, integer_field(name, getattr(self, name)))
        for name in ("orthology_density", "noise_sigma"):
            setattr(self, name, real_field(name, getattr(self, name)))
        # two samples at least: one on each side of the train/test split
        for name, least in (("n_sources", 1), ("n_targets", 1), ("num_samples", 2), ("hidden_dim", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0.0 < self.orthology_density <= 1.0:
            raise ValueError(f"orthology_density must be in (0, 1], got {self.orthology_density}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass
class SyntheticBundle:
    graph: BiadjacencyMatrix
    true_conversion: MaskedLinearLayer
    frozen_net: FeedforwardNetwork
    train: ExpressionDataset
    test: ExpressionDataset
    oracle_loss: float


def generate_synthetic(spec: SyntheticSpec) -> SyntheticBundle:
    """Build a seeded transfer problem with known generating parameters.

    Draw order (single generator): orthology mask, per-empty-row fix-ups,
    true conversion weights, network parameters, expression matrix, label
    noise, train/test permutation. ``oracle_loss`` is the test MSE of the
    generating parameters themselves (exactly 0 when noise_sigma is 0).
    """
    rng = np.random.default_rng(spec.seed)
    n_t, n_s = spec.n_targets, spec.n_sources

    # mask: independent Bernoulli entries, then guarantee every target row
    # keeps at least one ortholog
    mask_draw = rng.uniform(0.0, 1.0, (n_t, n_s)) < spec.orthology_density
    for i in range(n_t):
        if not mask_draw[i].any():
            mask_draw[i, int(rng.integers(0, n_s))] = True
    rows, cols = np.nonzero(mask_draw)
    graph = BiadjacencyMatrix(
        [f"T{i:04d}" for i in range(n_t)],
        [f"S{j:04d}" for j in range(n_s)],
        np.column_stack((rows, cols)),
    )

    true_weights = rng.uniform(-1.0, 1.0, graph.n_edges)
    true_conversion = MaskedLinearLayer(graph, MODE_HARD, true_weights)

    hidden = Layer(
        rng.normal(0.0, 1.0, (spec.hidden_dim, n_t)) / math.sqrt(n_t),
        rng.normal(0.0, 0.1, spec.hidden_dim),
        ACT_RELU,
    )
    head = Layer(
        rng.normal(0.0, 1.0, (1, spec.hidden_dim)) / math.sqrt(spec.hidden_dim),
        rng.normal(0.0, 0.1, 1),
        ACT_IDENTITY,
    )
    frozen_net = FeedforwardNetwork([hidden, head], frozen=True)

    xs = rng.standard_normal((spec.num_samples, n_s))
    noise = rng.normal(0.0, 1.0, (spec.num_samples, 1)) * spec.noise_sigma
    perm = rng.permutation(spec.num_samples)
    n_train = max(1, (4 * spec.num_samples) // 5)
    ids = [f"sample_{k:05d}" for k in range(spec.num_samples)]

    def subset(indices):
        # labels are produced per split by model_forward, the forward that
        # evaluate() runs, so the zero-noise oracle loss is exactly 0
        indices = np.sort(indices)
        x_split = xs[indices]
        clean = model_forward(frozen_net, true_conversion, x_split)
        return ExpressionDataset(
            "synthetic_source",
            graph.source_gene_ids,
            [ids[k] for k in indices],
            x_split,
            clean + noise[indices],
        )

    train = subset(perm[:n_train])
    test = subset(perm[n_train:])
    oracle_loss = evaluate(frozen_net, true_conversion, test)
    return SyntheticBundle(graph, true_conversion, frozen_net, train, test, oracle_loss)


BUNDLE_FILES = {
    "graph": "graph.tsv",
    "target_genes": "target_genes.tsv",
    "source_genes": "source_genes.tsv",
    "base_model": "base_model.json",
    "oracle_model": "oracle_model.json",
    "train_expr": "train_expr.tsv",
    "train_labels": "train_labels.tsv",
    "test_expr": "test_expr.tsv",
    "test_labels": "test_labels.tsv",
    "meta": "meta.json",
}


def write_bundle(bundle: SyntheticBundle, spec: SyntheticSpec, out_dir) -> dict[str, str]:
    """Write a synthetic bundle as the on-disk files the CLI consumes.

    ``base_model.json`` holds the frozen predictor alone (the trainee's
    starting point); ``oracle_model.json`` additionally carries the
    generating conversion weights.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {key: os.path.join(out_dir, name) for key, name in BUNDLE_FILES.items()}

    graph_to_tsv(bundle.graph, paths["graph"])
    write_gene_list(bundle.graph.target_gene_ids, paths["target_genes"])
    write_gene_list(bundle.graph.source_gene_ids, paths["source_genes"])
    save_model(bundle.frozen_net, None, paths["base_model"])
    save_model(bundle.frozen_net, bundle.true_conversion, paths["oracle_model"])
    write_expression_tsv(bundle.train, paths["train_expr"])
    write_labels_tsv(bundle.train.sample_ids, bundle.train.labels, paths["train_labels"])
    write_expression_tsv(bundle.test, paths["test_expr"])
    write_labels_tsv(bundle.test.sample_ids, bundle.test.labels, paths["test_labels"])
    meta = {
        "seed": spec.seed,
        "oracle_loss": bundle.oracle_loss,
        "n_sources": spec.n_sources,
        "n_targets": spec.n_targets,
        "orthology_density": spec.orthology_density,
        "num_samples": spec.num_samples,
        "noise_sigma": spec.noise_sigma,
        "hidden_dim": spec.hidden_dim,
    }
    with open(paths["meta"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(meta, indent=2) + "\n")
    return paths
