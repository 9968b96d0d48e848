"""Training loops: pre-train the base network, then fit only the
conversion layer against the frozen network.

Hard mode optimizes the loss on the masked support directly; soft mode
optimizes a dense weight matrix under quadratic penalties that pull
off-orthology weights toward zero (strength ``alpha``) and optionally
shrink on-orthology weights (strength ``beta``).

Everything is deterministic given the config seed: one PCG64 generator
(``numpy.random.default_rng``) drives initialization and batch shuffling,
and gradient reductions run in fixed sample order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError, NumericalError
from .netcore import (
    MODE_HARD,
    MODE_SOFT,
    MODES,
    FeedforwardNetwork,
    MaskedLinearLayer,
    fold_conversion,
    fold_conversion_grad,
    forward_conversion_batch,
    loss_cross_entropy_batch,
    loss_mse_batch,
    mlp_backward_batch,
    mlp_forward_batch,
)
from .orthograph import BiadjacencyMatrix
from .tsv import float_repr, write_table

LOSS_MSE = "mse"
LOSS_CE = "ce"
LOSSES = (LOSS_MSE, LOSS_CE)

OPT_SGD = "sgd"
OPT_ADAM = "adam"
OPTIMIZERS = (OPT_SGD, OPT_ADAM)

INIT_ROW_UNIFORM = "row_uniform"
INIT_SCALED_RANDOM = "scaled_random"
INITS = (INIT_ROW_UNIFORM, INIT_SCALED_RANDOM)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# any batch_size >= dataset size means full-batch; this default always does
FULL_BATCH = 2**31 - 1


@dataclass
class TrainConfig:
    """Knobs for both training entry points.

    Defaults are full-batch adam at 0.01 for 2000 steps; plain SGD is kept
    for the closed-form regularizer analyses where its update rule matters.
    """

    mode: str = MODE_HARD
    learning_rate: float = 0.01
    steps: int = 2000
    batch_size: int = FULL_BATCH
    alpha: float = 1.0
    beta: float = 0.0
    loss_kind: str = LOSS_MSE
    optimizer: str = OPT_ADAM
    seed: int = 0
    init: str = INIT_ROW_UNIFORM

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.loss_kind not in LOSSES:
            raise ValueError(f"loss_kind must be one of {LOSSES}, got {self.loss_kind!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}, got {self.init!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    final_eval: float = math.nan
    wall_time: float = 0.0
    seed: int = 0


def write_report_tsv(report: TrainReport, path) -> None:
    """Per-step losses plus a final-eval footer; bytes depend only on the run."""
    records = [(str(step), float_repr(value)) for step, value in enumerate(report.losses, start=1)]
    records.append(("# final_eval", float_repr(report.final_eval)))
    write_table(path, ("step", "loss"), records)


# ---------------------------------------------------------------------------
# regularization (soft orthology constraint)
# ---------------------------------------------------------------------------

def _support(mask: BiadjacencyMatrix, shape) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the mask's edges; the mask must have shape
    ``shape``."""
    mask_shape = (mask.n_targets, mask.n_sources)
    if shape != mask_shape:
        raise ValueError(f"weights shape {shape} != mask shape {mask_shape}")
    return mask.edge_rows, mask.edge_cols


def regularization_penalty(weights, mask: BiadjacencyMatrix, alpha: float, beta: float) -> float:
    """alpha * sum of squared off-support weights + beta * same on-support."""
    w = np.asarray(weights, dtype=np.float64)
    rows, cols = _support(mask, w.shape)
    sq = w * w
    on = sq[rows, cols]
    sq[rows, cols] = 0.0
    return float(alpha * sq.sum() + beta * on.sum())


def regularization_grad(weights, mask: BiadjacencyMatrix, alpha: float, beta: float) -> np.ndarray:
    """Entrywise derivative: 2*alpha*W off the support, 2*beta*W on it."""
    w = np.asarray(weights, dtype=np.float64)
    rows, cols = _support(mask, w.shape)
    grad = (2.0 * alpha) * w
    grad[rows, cols] = (2.0 * beta) * w[rows, cols]
    return grad


# ---------------------------------------------------------------------------
# initialization and optimizers
# ---------------------------------------------------------------------------

def initialize_conversion_layer(
    mask: BiadjacencyMatrix, mode: str, init: str, rng: np.random.Generator
) -> MaskedLinearLayer:
    """Fresh conversion weights on the mask support.

    row_uniform sets each on-support weight of row i to 1/deg(i), so the
    layer starts as an ortholog-averaging map (exact identity for
    one-to-one orthology). scaled_random draws uniformly in +-1/sqrt(deg(i)).
    Soft mode starts with off-support entries at exactly zero.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if init not in INITS:
        raise ValueError(f"init must be one of {INITS}, got {init!r}")
    degrees = mask.row_degrees().astype(np.float64)
    edge_deg = degrees[mask.edge_rows]
    if init == INIT_ROW_UNIFORM:
        support = 1.0 / edge_deg
    else:
        draws = rng.uniform(-1.0, 1.0, mask.n_edges)
        support = draws / np.sqrt(edge_deg)
    if mode == MODE_HARD:
        return MaskedLinearLayer(mask, MODE_HARD, support)
    dense = np.zeros((mask.n_targets, mask.n_sources))
    dense[mask.edge_rows, mask.edge_cols] = support
    return MaskedLinearLayer(mask, MODE_SOFT, dense)


class _Sgd:
    def __init__(self, params, learning_rate):
        self.params = params
        self.learning_rate = learning_rate

    def step(self, grads):
        for p, g in zip(self.params, grads):
            p -= self.learning_rate * g


class _Adam:
    def __init__(self, params, learning_rate):
        self.params = params
        self.learning_rate = learning_rate
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _make_optimizer(cfg: TrainConfig, params):
    if cfg.optimizer == OPT_SGD:
        return _Sgd(params, cfg.learning_rate)
    return _Adam(params, cfg.learning_rate)


def _batch_indices(n: int, batch_size: int, steps: int, rng: np.random.Generator):
    """Yield one index array per step; reshuffle at each epoch boundary."""
    batch = min(batch_size, n)
    perm = rng.permutation(n)
    pos = 0
    for _ in range(steps):
        if pos >= n:
            perm = rng.permutation(n)
            pos = 0
        yield perm[pos : pos + batch]
        pos += batch


def _batch_loss(loss_kind, pred, labels):
    if loss_kind == LOSS_MSE:
        return loss_mse_batch(pred, labels)
    return loss_cross_entropy_batch(pred, labels)


def _check_labels(loss_kind: str, labels, output_dim: int):
    if labels is None:
        raise ValueError("dataset has no labels")
    if loss_kind == LOSS_MSE:
        if not np.issubdtype(labels.dtype, np.floating):
            raise ValueError("mse loss needs real-valued labels")
        if labels.ndim != 2 or labels.shape[1] != output_dim:
            raise ValueError(
                f"labels of shape {labels.shape} do not match output dim {output_dim}"
            )
    else:
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("cross-entropy loss needs class-index labels")
        if labels.ndim != 1:
            raise ValueError(f"class labels must be 1-D, got shape {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= output_dim):
            raise ValueError(f"class index out of range for {output_dim} logits")


def train_base(
    net: FeedforwardNetwork, data, cfg: TrainConfig
) -> tuple[FeedforwardNetwork, TrainReport]:
    """Fit the phenotype predictor on its own species' expression data.

    Returns a trained copy; the input network is untouched. Raises
    InvalidStateError on a frozen network.
    """
    if net.frozen:
        raise InvalidStateError("cannot train a frozen network")
    if data.n_genes != net.input_dim:
        raise ValueError(
            f"dataset has {data.n_genes} genes but network expects {net.input_dim}"
        )
    _check_labels(cfg.loss_kind, data.labels, net.output_dim)
    if data.n_samples == 0:
        raise ValueError("dataset is empty")

    start = time.perf_counter()
    trained = net.copy()
    params = [arr for lay in trained.layers for arr in (lay.weights, lay.bias)]
    optimizer = _make_optimizer(cfg, params)
    rng = np.random.default_rng(cfg.seed)

    report = TrainReport(seed=cfg.seed)
    for idx in _batch_indices(data.n_samples, cfg.batch_size, cfg.steps, rng):
        xs = data.samples[idx]
        pred, cache = mlp_forward_batch(trained, xs)
        value, dpred = _batch_loss(cfg.loss_kind, pred, data.labels[idx])
        if not math.isfinite(value):
            raise NumericalError(f"non-finite training loss at step {len(report.losses) + 1}")
        report.losses.append(value)
        param_grads = mlp_backward_batch(trained, cache, dpred)
        optimizer.step([g for gw_gb in param_grads for g in gw_gb])

    report.final_eval = evaluate(trained, None, data)
    report.wall_time = time.perf_counter() - start
    return trained, report


def conversion_step(
    layer: MaskedLinearLayer,
    frozen_net: FeedforwardNetwork,
    folded: FeedforwardNetwork,
    xs: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
) -> tuple[float, float, np.ndarray]:
    """One batch's base loss, penalty and gradient w.r.t. ``layer.weights``.

    The frozen first layer is affine, so the batch runs through ``folded``,
    a working copy of ``frozen_net`` (``frozen_net.copy()``) whose
    first-layer weights this call sets to the fold ``M = W1 @ C``
    (h x n_sources); the converted batch is never formed. The gradient
    w.r.t. ``C`` is read off that layer's weight gradient ``G`` as
    ``W1.T @ G`` (on the support only in hard mode), plus the penalty's
    gradient in soft mode. The training loss is ``base_loss + penalty``;
    hard mode's penalty is -0.0, which leaves every base loss unchanged
    bit for bit.
    """
    first_weights = frozen_net.layers[0].weights
    folded.layers[0].weights = fold_conversion(layer, first_weights)
    pred, cache = mlp_forward_batch(folded, xs)
    base_loss, dpred = _batch_loss(cfg.loss_kind, pred, labels)
    param_grads = mlp_backward_batch(folded, cache, dpred)
    grad = fold_conversion_grad(layer, first_weights, param_grads[0][0])
    penalty = -0.0
    if layer.mode == MODE_SOFT:
        penalty = regularization_penalty(layer.weights, layer.mask, cfg.alpha, cfg.beta)
        grad += regularization_grad(layer.weights, layer.mask, cfg.alpha, cfg.beta)
    return base_loss, penalty, grad


def train_conversion(
    layer: MaskedLinearLayer,
    frozen_net: FeedforwardNetwork,
    data,
    cfg: TrainConfig,
) -> tuple[MaskedLinearLayer, TrainReport]:
    """Fit only the conversion weights against the frozen predictor.

    Per step: y = f(C @ x_s), loss = batch loss (plus the quadratic
    orthology penalty in soft mode), computed by :func:`conversion_step`.
    ``frozen_net`` is never written; its weights are bit-identical before
    and after.
    """
    if not frozen_net.frozen:
        raise InvalidStateError("conversion training requires a frozen network")
    if layer.mode != cfg.mode:
        raise ValueError(f"layer mode {layer.mode!r} does not match config mode {cfg.mode!r}")
    if data.n_genes != layer.n_sources:
        raise ValueError(
            f"dataset has {data.n_genes} genes but conversion layer expects {layer.n_sources}"
        )
    if frozen_net.input_dim != layer.n_targets:
        raise ValueError(
            f"network input dim {frozen_net.input_dim} does not match "
            f"conversion output dim {layer.n_targets}"
        )
    _check_labels(cfg.loss_kind, data.labels, frozen_net.output_dim)
    if data.n_samples == 0:
        raise ValueError("dataset is empty")

    start = time.perf_counter()
    trained = layer.copy()
    optimizer = _make_optimizer(cfg, [trained.weights])
    rng = np.random.default_rng(cfg.seed)
    folded = frozen_net.copy()

    report = TrainReport(seed=cfg.seed)
    for idx in _batch_indices(data.n_samples, cfg.batch_size, cfg.steps, rng):
        base_loss, penalty, grad = conversion_step(
            trained, frozen_net, folded, data.samples[idx], data.labels[idx], cfg
        )
        value = base_loss + penalty
        if not math.isfinite(value):
            raise NumericalError(f"non-finite training loss at step {len(report.losses) + 1}")
        report.losses.append(value)
        optimizer.step([grad])

    report.final_eval = evaluate(frozen_net, trained, data)
    report.wall_time = time.perf_counter() - start
    return trained, report


def evaluate(net: FeedforwardNetwork, layer: MaskedLinearLayer | None, data) -> float:
    """Mean base loss over all samples; pure, no parameter mutation.

    The loss kind follows the label dtype: real labels score MSE, integer
    class labels score cross-entropy. Labels are checked against the
    network's output as in training. ``layer=None`` feeds expression
    straight into the network.
    """
    if data.n_samples == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    labels = data.labels
    is_class = labels is not None and np.issubdtype(labels.dtype, np.integer)
    loss_kind = LOSS_CE if is_class else LOSS_MSE
    _check_labels(loss_kind, labels, net.output_dim)
    xs = data.samples
    if layer is not None:
        xs = forward_conversion_batch(layer, xs)
    pred, _ = mlp_forward_batch(net, xs)
    value, _ = _batch_loss(loss_kind, pred, labels)
    if not math.isfinite(value):
        raise NumericalError("non-finite evaluation loss")
    return value
