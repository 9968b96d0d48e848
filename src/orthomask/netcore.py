"""Differentiable compute core: masked conversion layer, feedforward
network, and losses, with hand-written backward passes.

The conversion layer maps source-species expression to target-species
gene space. In ``hard`` mode the weights live on the orthology support
only (CSR storage, off-support entries are structurally zero); in
``soft`` mode the weight matrix is dense and the mask enters through the
regularizer instead of the forward pass, so non-orthologous connections
may earn nonzero weight.

All arithmetic is float64. Inputs are batches: rows are samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .orthograph import BiadjacencyMatrix

MODE_HARD = "hard"
MODE_SOFT = "soft"
MODES = (MODE_HARD, MODE_SOFT)

ACT_IDENTITY = "identity"
ACT_RELU = "relu"
ACT_SIGMOID = "sigmoid"
ACTIVATIONS = (ACT_IDENTITY, ACT_RELU, ACT_SIGMOID)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activate(name, z):
    if name == ACT_IDENTITY:
        return z
    if name == ACT_RELU:
        return np.maximum(z, 0.0)
    if name == ACT_SIGMOID:
        return _sigmoid(z)
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name, pre, post):
    """d(activation)/d(pre-activation), elementwise."""
    if name == ACT_IDENTITY:
        return np.ones_like(pre)
    if name == ACT_RELU:
        return (pre > 0.0).astype(np.float64)
    if name == ACT_SIGMOID:
        return post * (1.0 - post)
    raise ValueError(f"unknown activation {name!r}")


class MaskedLinearLayer:
    """Learnable species-conversion map with an orthology mask.

    hard mode: ``weights`` is a (n_edges,) vector aligned with the mask's
    canonical row-major edge order; the implied dense matrix is zero
    everywhere off-support.

    soft mode: ``weights`` is a dense (n_targets, n_sources) matrix applied
    without masking; the mask only classifies entries as on/off-support for
    regularization and reporting.
    """

    def __init__(self, mask: BiadjacencyMatrix, mode: str, weights):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        weights = np.asarray(weights, dtype=np.float64)
        if mode == MODE_HARD:
            if weights.shape != (mask.n_edges,):
                raise ValueError(
                    f"hard-mode weights must have shape ({mask.n_edges},), got {weights.shape}"
                )
        else:
            if weights.shape != (mask.n_targets, mask.n_sources):
                raise ValueError(
                    f"soft-mode weights must have shape "
                    f"({mask.n_targets}, {mask.n_sources}), got {weights.shape}"
                )
        if weights.size and not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        self.mask = mask
        self.mode = mode
        self.weights = weights.copy()

    @property
    def n_targets(self) -> int:
        return self.mask.n_targets

    @property
    def n_sources(self) -> int:
        return self.mask.n_sources

    def copy(self) -> "MaskedLinearLayer":
        return MaskedLinearLayer(self.mask, self.mode, self.weights)

    def to_dense(self) -> np.ndarray:
        """Dense weight matrix; hard mode scatters onto the support."""
        if self.mode == MODE_SOFT:
            return self.weights.copy()
        out = np.zeros((self.n_targets, self.n_sources))
        out[self.mask.edge_rows, self.mask.edge_cols] = self.weights
        return out


def forward_conversion_batch(layer: MaskedLinearLayer, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != layer.n_sources:
        raise ValueError(
            f"expected input of shape (n, {layer.n_sources}), got {xs.shape}"
        )
    if layer.mode == MODE_HARD:
        mask = layer.mask
        return kernels.csr_matvec_batch(mask.indptr, mask.edge_cols, layer.weights, xs)
    return xs @ layer.weights.T


def fold_conversion(layer: MaskedLinearLayer, first_weights: np.ndarray) -> np.ndarray:
    """``first_weights @ layer.to_dense()``, shape (h, n_sources).

    An affine first layer absorbs the conversion map: ``W1 @ (C @ x)`` equals
    ``fold_conversion(layer, W1) @ x``. Hard mode scatters over the edges and
    never forms the dense matrix.
    """
    if layer.mode == MODE_HARD:
        mask = layer.mask
        return kernels.dense_times_csr(
            mask.indptr, mask.edge_cols, layer.weights, first_weights, layer.n_sources
        )
    return first_weights @ layer.weights


def fold_conversion_grad(
    layer: MaskedLinearLayer, first_weights: np.ndarray, grad_folded: np.ndarray
) -> np.ndarray:
    """Gradient w.r.t. ``layer.weights`` from the gradient w.r.t. the folded
    weights: ``first_weights.T @ grad_folded``, read on the support only in
    hard mode."""
    if layer.mode == MODE_HARD:
        mask = layer.mask
        return kernels.edge_dot(mask.indptr, mask.edge_cols, first_weights, grad_folded)
    return first_weights.T @ grad_folded


@dataclass
class Layer:
    """One affine-then-activation stage: weights (out, in), bias (out,)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"layer weights must be 2-D, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match {self.weights.shape[0]} outputs"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")

    def copy(self) -> "Layer":
        return Layer(self.weights.copy(), self.bias.copy(), self.activation)


class FeedforwardNetwork:
    """Plain MLP phenotype predictor with a freeze flag."""

    def __init__(self, layers, frozen: bool = False):
        layers = [lay.copy() for lay in layers]
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ValueError(
                    f"layer input dim {nxt.weights.shape[1]} does not chain with "
                    f"previous output dim {prev.weights.shape[0]}"
                )
        self.layers = layers
        self.frozen = bool(frozen)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    def copy(self, frozen=None) -> "FeedforwardNetwork":
        return FeedforwardNetwork(self.layers, self.frozen if frozen is None else frozen)


@dataclass
class ForwardCache:
    """Per-layer pre/post activations retained for the backward pass."""

    x: np.ndarray
    pre: list[np.ndarray]
    post: list[np.ndarray]

    def matches(self, net: FeedforwardNetwork) -> bool:
        if len(self.pre) != len(net.layers):
            return False
        if self.x.shape[1] != net.input_dim:
            return False
        return all(
            p.shape[1] == lay.weights.shape[0] for p, lay in zip(self.pre, net.layers)
        )


def mlp_forward_batch(net: FeedforwardNetwork, xs) -> tuple[np.ndarray, ForwardCache]:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ValueError(f"expected input of shape (n, {net.input_dim}), got {xs.shape}")
    pre, post = [], []
    a = xs
    for layer in net.layers:
        z = a @ layer.weights.T + layer.bias
        a = _activate(layer.activation, z)
        pre.append(z)
        post.append(a)
    return post[-1], ForwardCache(xs, pre, post)


def mlp_backward_batch(net, cache: ForwardCache, dldy):
    """Backpropagate a loss gradient through the network.

    Returns per-layer ``(grad_weights, grad_bias)`` pairs. Parameter
    gradients are computed even for a frozen network; callers of a frozen
    network must not apply them.
    """
    dldy = np.asarray(dldy, dtype=np.float64)
    if not cache.matches(net):
        raise ValueError("forward cache does not match this network")
    if dldy.shape != cache.post[-1].shape:
        raise ValueError(
            f"expected upstream of shape {cache.post[-1].shape}, got {dldy.shape}"
        )
    param_grads = [None] * len(net.layers)
    delta = dldy
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        dz = delta * _activation_grad(layer.activation, cache.pre[k], cache.post[k])
        a_prev = cache.post[k - 1] if k > 0 else cache.x
        param_grads[k] = (dz.T @ a_prev, dz.sum(axis=0))
        if k > 0:
            delta = dz @ layer.weights
    return param_grads


# ---------------------------------------------------------------------------
# losses (value plus gradient w.r.t. predictions)
# ---------------------------------------------------------------------------

def loss_mse_batch(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared error over every component of the batch; gradient
    2(pred-target)/size."""
    if np.ndim(pred) != 2:
        raise ValueError(f"batch predictions must be 2-D, got shape {np.shape(pred)}")
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    value = float(np.mean(diff * diff))
    return value, 2.0 * diff / diff.size


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def loss_cross_entropy_batch(logits, classes) -> tuple[float, np.ndarray]:
    """Batch mean of the true class's negative log softmax, max-shifted for
    stability."""
    logits = np.asarray(logits, dtype=np.float64)
    classes = np.asarray(classes)
    n = logits.shape[0]
    if logits.ndim != 2 or classes.shape != (n,):
        raise ValueError(f"logits shape {logits.shape} incompatible with classes shape {classes.shape}")
    if classes.size and (classes.min() < 0 or classes.max() >= logits.shape[1]):
        raise ValueError("class index out of range")
    logp = _log_softmax(logits)
    rows = np.arange(n)
    value = float(-logp[rows, classes].mean())
    grad = np.exp(logp)
    grad[rows, classes] -= 1.0
    return value, grad / n
