"""Expression/phenotype file handling and synthetic data generation.

Expression files are samples-by-genes TSVs with gene IDs in the header;
phenotype labels live in a separate TSV keyed by sample ID so one
expression matrix can serve several phenotypes. Inputs are assumed
already normalized; values are taken as plain reals.

The synthetic generator builds a full transfer problem with known ground
truth: an orthology mask, true on-support conversion weights, a frozen
random predictor, and noisy labels. All sampling comes from a single
seeded PCG64 generator (``numpy.random.default_rng``) in a fixed draw
order, so a seed pins the bundle byte-for-byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, UnknownGeneError, integer_field, real_field
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
from .tsv import (
    factorize,
    first_true,
    id_column,
    parse_floats,
    parse_numbers,
    read_table,
    write_table,
)

LABEL_HEADER = ("sample_id", "label")
KIND_REGRESSION = "regression"
KIND_CLASSIFICATION = "classification"


@dataclass
class ExpressionDataset:
    """Samples-by-genes expression matrix plus optional phenotype labels.

    ``labels`` is a float64 (n_samples, label_dim) matrix for regression,
    an int64 (n_samples,) class-index vector for classification, or None.
    """

    species: str
    gene_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]
    samples: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.gene_ids = tuple(self.gene_ids)
        self.sample_ids = tuple(self.sample_ids)
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if len(set(self.gene_ids)) != len(self.gene_ids):
            raise ValueError("duplicate gene IDs")
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise ValueError("duplicate sample IDs")
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {self.samples.shape}")
        if self.samples.shape != (len(self.sample_ids), len(self.gene_ids)):
            raise ValueError(
                f"samples shape {self.samples.shape} does not match "
                f"{len(self.sample_ids)} sample IDs x {len(self.gene_ids)} gene IDs"
            )
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("expression values must be finite")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape[0] != self.n_samples:
                raise ValueError(
                    f"{self.labels.shape[0]} labels for {self.n_samples} samples"
                )
            if np.issubdtype(self.labels.dtype, np.floating):
                if self.labels.ndim != 2:
                    raise ValueError("regression labels must be 2-D (samples x label dim)")
                if self.labels.size and not np.all(np.isfinite(self.labels)):
                    raise ValueError("labels must be finite")
            elif np.issubdtype(self.labels.dtype, np.integer):
                if self.labels.ndim != 1:
                    raise ValueError("class labels must be 1-D")
                if self.labels.size and self.labels.min() < 0:
                    raise ValueError("class labels must be non-negative")
            else:
                raise ValueError(f"unsupported label dtype {self.labels.dtype}")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_genes(self) -> int:
        return self.samples.shape[1]


def read_expression_tsv(path) -> ExpressionDataset:
    """Parse an expression TSV (``sample_id`` then one column per gene)."""
    table = read_table(path)
    if table.names[0] != "sample_id":
        raise ParseError("header must start with 'sample_id'", path, 1)
    gene_ids = table.names[1:]

    sample_ids: list[str] = []
    samples = np.zeros((len(table), len(gene_ids)))
    # one record at a time: the whole file's fields as strings would
    # take several times the file's size
    for k, record in enumerate(table.records):
        sample_id, _, text = record.partition("\t")
        if gene_ids:
            row, stop = parse_floats(text)
            if stop is not None:
                table.fail(k, "non-numeric expression value")
            if not np.isfinite(row).all():
                table.fail(k, "non-finite expression value")
            samples[k] = row
        sample_ids.append(sample_id)
    return ExpressionDataset("", gene_ids, sample_ids, samples)


def write_expression_tsv(dataset: ExpressionDataset, path) -> None:
    write_table(path, ("sample_id", *dataset.gene_ids), [(id_column(dataset.sample_ids), dataset.samples)])


def read_labels_tsv(path, kind: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Parse a phenotype TSV; ``kind`` selects decimal vs class-index labels."""
    if kind not in (KIND_REGRESSION, KIND_CLASSIFICATION):
        raise ValueError(f"kind must be regression or classification, got {kind!r}")
    table = read_table(path, LABEL_HEADER)
    texts = table.column(1)
    if kind == KIND_REGRESSION:
        values, stop = table.floats(1)
        table.raise_first(
            (stop, lambda k: f"non-numeric label {texts[k]!r}"),
            (first_true(~np.isfinite(values)), lambda k: "non-finite label"),
        )
        values = values.reshape(-1, 1)
    else:
        values, stop = parse_numbers(texts, np.int64)
        table.raise_first(
            (stop, lambda k: f"non-integer class label {texts[k]!r}"),
            (first_true(values < 0), lambda k: f"negative class label {values[k]}"),
        )
    return tuple(table.column(0)), values


def write_labels_tsv(sample_ids, labels, path) -> None:
    labels = np.asarray(labels)
    if labels.ndim == 2:
        if labels.shape[1] != 1:
            raise ValueError("label TSV supports exactly one label column")
        labels = labels[:, 0]
    if np.issubdtype(labels.dtype, np.integer):
        labels = id_column(map(str, labels.tolist()))
    write_table(path, LABEL_HEADER, [(id_column(sample_ids), labels)])


def attach_labels(dataset: ExpressionDataset, path, kind: str) -> ExpressionDataset:
    """Join a phenotype file onto a dataset by sample ID."""
    label_ids, values = read_labels_tsv(path, kind)
    rows = factorize(dataset.sample_ids, label_ids).codes
    missing = first_true(rows >= len(label_ids))
    if missing is not None:
        raise ValueError(f"no label for sample {dataset.sample_ids[missing]!r} in {path}")
    # one row per sample; a (n, 1) or (n,) array keeps its shape
    return replace(dataset, labels=values[rows])


def align_to_genes(dataset: ExpressionDataset, required_gene_ids) -> tuple[ExpressionDataset, int]:
    """Reorder columns to the required gene order, dropping extras.

    Returns the aligned dataset and the number of dropped genes. Missing
    required genes raise UnknownGeneError.
    """
    required = list(required_gene_ids)
    take = factorize(required, dataset.gene_ids).codes
    missing = first_true(take >= dataset.n_genes)
    if missing is not None:
        raise UnknownGeneError(f"dataset is missing required gene {required[missing]!r}")
    dropped = dataset.n_genes - len(required)
    return replace(dataset, gene_ids=required, samples=dataset.samples[:, take]), dropped


# ---------------------------------------------------------------------------
# synthetic ground-truth bundles
# ---------------------------------------------------------------------------

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
