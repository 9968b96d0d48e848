"""Expression and phenotype file handling.

Expression files are samples-by-genes TSVs with gene IDs in the header;
phenotype labels live in a separate TSV keyed by sample ID so one
expression matrix can serve several phenotypes. Inputs are assumed
already normalized; values are taken as plain reals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, UnknownGeneError
from .tsv import (
    Factorized,
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


def write_labels_tsv(sample_ids, labels, path, header=LABEL_HEADER) -> None:
    """Write each sample's label, a float or an integer class, under ``header``."""
    labels = np.asarray(labels)
    if labels.ndim == 2:
        if labels.shape[1] != 1:
            raise ValueError("label TSV supports exactly one label column")
        labels = labels[:, 0]
    if np.issubdtype(labels.dtype, np.integer):
        classes, codes = np.unique(labels, return_inverse=True)
        labels = Factorized(tuple(map(str, classes.tolist())), codes)
    write_table(path, header, [(id_column(sample_ids), labels)])


def attach_labels(dataset: ExpressionDataset, path, kind: str) -> tuple[ExpressionDataset, int]:
    """Join a phenotype file onto a dataset by sample ID.

    Returns the labelled dataset and the number of ignored label rows,
    whose sample is not in the dataset. A sample without a label raises
    ValueError.
    """
    label_ids, values = read_labels_tsv(path, kind)
    rows = factorize(dataset.sample_ids, label_ids).codes
    missing = first_true(rows >= len(label_ids))
    if missing is not None:
        raise ValueError(f"no label for sample {dataset.sample_ids[missing]!r} in {path}")
    # one row per sample; a (n, 1) or (n,) array keeps its shape. Sample
    # and label IDs are distinct, so each sample takes a label of its own
    return replace(dataset, labels=values[rows]), len(label_ids) - dataset.n_samples


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
