"""Training loops: pre-train the base network, then fit only the
conversion layer against the frozen network.

Hard mode optimizes the loss on the masked support directly; soft mode
optimizes a dense weight matrix under quadratic penalties that pull
off-orthology weights toward zero (strength ``alpha``) and optionally
shrink on-orthology weights (strength ``beta``).

Everything is deterministic given the config seed: one PCG64 generator
(``numpy.random.default_rng``) drives batch shuffling, and gradient
reductions run in fixed sample order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError, NumericalError, integer_field, real_field
from .netcore import (
    MODE_HARD,
    MODE_SOFT,
    MODES,
    FeedforwardNetwork,
    MaskedLinearLayer,
    fold_conversion,
    fold_conversion_grad,
    loss_cross_entropy_batch,
    loss_mse_batch,
    mlp_backward_batch,
    mlp_forward_batch,
    model_forward,
)
from .orthograph import BiadjacencyMatrix
from .tsv import id_column, write_table

OPT_SGD = "sgd"
OPT_ADAM = "adam"
OPTIMIZERS = (OPT_SGD, OPT_ADAM)

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
    ``alpha`` and ``beta`` weigh the soft-mode penalty. What the inputs
    already fix is not set here: the loss follows the labels' dtype and
    the conversion mode is the layer's.
    """

    learning_rate: float = 0.01
    steps: int = 2000
    batch_size: int = FULL_BATCH
    alpha: float = 1.0
    beta: float = 0.0
    optimizer: str = OPT_ADAM
    seed: int = 0

    def __post_init__(self):
        for name in ("steps", "batch_size", "seed"):
            setattr(self, name, integer_field(name, getattr(self, name)))
        for name in ("learning_rate", "alpha", "beta"):
            setattr(self, name, real_field(name, getattr(self, name)))
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    final_eval: float = math.nan


def write_report_tsv(report: TrainReport, path) -> None:
    """Per-step losses plus a final-eval footer; bytes depend only on the run."""
    steps = id_column([*map(str, range(1, len(report.losses) + 1)), "# final_eval"])
    write_table(path, ("step", "loss"), [(steps, [*report.losses, report.final_eval])])


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
    mask: BiadjacencyMatrix, mode: str, warm: MaskedLinearLayer | None = None
) -> MaskedLinearLayer:
    """The layer a conversion run starts from.

    Without ``warm`` each on-support weight of row i is 1/deg(i), so the
    layer starts as an ortholog-averaging map (exact identity for
    one-to-one orthology); soft mode starts with off-support entries at
    exactly zero. With ``warm`` (a saved layer on the same mask) the run
    continues from it: same mode as is, hard into soft densified; a soft
    layer cannot restart hard.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if warm is None:
        warm = MaskedLinearLayer(mask, MODE_HARD, 1.0 / mask.row_degrees()[mask.edge_rows])
    elif warm.mask != mask:
        raise ValueError("saved conversion layer does not match the supplied graph")
    if warm.mode == mode:
        return warm
    if mode == MODE_SOFT:
        return MaskedLinearLayer(mask, MODE_SOFT, warm.to_dense())
    raise ValueError("cannot warm-start a hard layer from a soft one")


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
        self.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0

    def step(self, grads):
        """``p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)`` in the textbook's
        operation order, into arrays allocated once."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v, (a, b) in zip(self.params, grads, self.m, self.v, self.scratch):
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(g, g, out=a), 1.0 - ADAM_BETA2, out=a)
            np.add(np.sqrt(np.divide(v, bc2, out=a), out=a), ADAM_EPS, out=a)
            np.multiply(np.divide(m, bc1, out=b), self.learning_rate, out=b)
            p -= np.divide(b, a, out=b)


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


def _batch_loss(pred, labels):
    """Cross-entropy for integer class indices, MSE for real labels."""
    if np.issubdtype(labels.dtype, np.integer):
        return loss_cross_entropy_batch(pred, labels)
    return loss_mse_batch(pred, labels)


def constant_loss(labels: np.ndarray) -> float:
    """The lowest mean loss a constant prediction reaches on ``labels``:
    ``mean((y - ȳ)²)`` for real labels, whose column means are then
    predicted, and the class frequencies' entropy ``-Σ f_c·log f_c`` for
    class indices, whose logs are then predicted as logits."""
    if np.issubdtype(labels.dtype, np.integer):
        freqs = np.bincount(labels) / labels.size
        freqs = freqs[freqs > 0]
        return float(-(freqs * np.log(freqs)).sum())
    return float(np.mean((labels - labels.mean(axis=0)) ** 2))


def _check_data(data, n_genes: int, reader: str, output_dim: int):
    """Refuse data that ``reader`` (``n_genes`` inputs, ``output_dim`` outputs
    behind it) cannot fit or score: wrong gene count, bad labels, no samples."""
    if data.n_genes != n_genes:
        raise ValueError(f"dataset has {data.n_genes} genes but {reader} expects {n_genes}")
    labels = data.labels
    if labels is None:
        raise ValueError("dataset has no labels")
    # ExpressionDataset has checked the labels' shape and sign
    if np.issubdtype(labels.dtype, np.integer):
        if labels.size and labels.max() >= output_dim:
            raise ValueError(f"class index out of range for {output_dim} logits")
    elif labels.shape[1] != output_dim:
        raise ValueError(f"labels of shape {labels.shape} do not match output dim {output_dim}")
    if data.n_samples == 0:
        raise ValueError("dataset is empty")


def _fit(params, step, data, cfg: TrainConfig) -> TrainReport:
    """Minibatch descent on ``params``, updated in place.

    ``step(xs, labels)`` returns one batch's loss and its gradient w.r.t.
    each of ``params``. Batches are drawn from ``cfg.seed``; a non-finite
    loss raises before any parameter moves on it.
    """
    optimizer = _make_optimizer(cfg, params)
    rng = np.random.default_rng(cfg.seed)
    report = TrainReport()
    for idx in _batch_indices(data.n_samples, cfg.batch_size, cfg.steps, rng):
        value, grads = step(data.samples[idx], data.labels[idx])
        if not math.isfinite(value):
            raise NumericalError(f"non-finite training loss at step {len(report.losses) + 1}")
        report.losses.append(value)
        optimizer.step(grads)
    return report


def train_base(
    net: FeedforwardNetwork, data, cfg: TrainConfig
) -> tuple[FeedforwardNetwork, TrainReport]:
    """Fit the phenotype predictor on its own species' expression data.

    Returns a trained copy; the input network is untouched. Raises
    InvalidStateError on a frozen network.
    """
    if net.frozen:
        raise InvalidStateError("cannot train a frozen network")
    _check_data(data, net.input_dim, "network", net.output_dim)

    trained = net.copy()

    def step(xs, labels):
        pred, values = mlp_forward_batch(trained, xs)
        value, dpred = _batch_loss(pred, labels)
        param_grads = mlp_backward_batch(trained, values, dpred)
        return value, [g for gw_gb in param_grads for g in gw_gb]

    params = [arr for lay in trained.layers for arr in (lay.weights, lay.bias)]
    report = _fit(params, step, data, cfg)
    report.final_eval = evaluate(trained, None, data)
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
    pred, values = mlp_forward_batch(folded, xs)
    base_loss, dpred = _batch_loss(pred, labels)
    param_grads = mlp_backward_batch(folded, values, dpred)
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

    Trains ``layer`` in its own mode. Per step: y = f(C @ x_s), loss =
    batch loss (plus the quadratic orthology penalty in soft mode),
    computed by :func:`conversion_step`. ``frozen_net`` is never written;
    its weights are bit-identical before and after.
    """
    if not frozen_net.frozen:
        raise InvalidStateError("conversion training requires a frozen network")
    if frozen_net.input_dim != layer.n_targets:
        raise ValueError(
            f"network input dim {frozen_net.input_dim} does not match "
            f"conversion output dim {layer.n_targets}"
        )
    _check_data(data, layer.n_sources, "conversion layer", frozen_net.output_dim)

    trained = layer.copy()
    folded = frozen_net.copy()

    def step(xs, labels):
        base_loss, penalty, grad = conversion_step(trained, frozen_net, folded, xs, labels, cfg)
        return base_loss + penalty, [grad]

    report = _fit([trained.weights], step, data, cfg)
    report.final_eval = evaluate(frozen_net, trained, data)
    return trained, report


def evaluate(net: FeedforwardNetwork, layer: MaskedLinearLayer | None, data) -> float:
    """Mean base loss over all samples; pure, no parameter mutation.

    The loss follows the labels as in training: integer class labels score
    cross-entropy, real labels score MSE. ``layer=None`` feeds expression
    straight into the network.
    """
    if layer is None:
        _check_data(data, net.input_dim, "network", net.output_dim)
    else:
        _check_data(data, layer.n_sources, "conversion layer", net.output_dim)
    value, _ = _batch_loss(model_forward(net, layer, data.samples), data.labels)
    if not math.isfinite(value):
        raise NumericalError("non-finite evaluation loss")
    return value
