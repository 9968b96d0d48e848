"""Model document (JSON) serialization.

One document holds the feedforward network and, optionally, the
conversion layer. Floats round-trip value-exactly (shortest-repr
encoding via the json module) and documents are byte-stable: same model
in, same bytes out.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError
from .netcore import (
    ACTIVATIONS,
    MODE_HARD,
    MODE_SOFT,
    MODES,
    FeedforwardNetwork,
    Layer,
    MaskedLinearLayer,
)
from .orthograph import BiadjacencyMatrix


def model_document(net: FeedforwardNetwork, conversion: MaskedLinearLayer | None = None) -> str:
    """Render the model as canonical JSON text."""
    doc = {
        "network": {
            "frozen": net.frozen,
            "layers": [
                {
                    "rows": lay.weights.shape[0],
                    "cols": lay.weights.shape[1],
                    "weights": lay.weights.ravel().tolist(),
                    "bias": lay.bias.tolist(),
                    "activation": lay.activation,
                }
                for lay in net.layers
            ],
        },
        "conversion": None,
    }
    if conversion is not None:
        mask = conversion.mask
        conv = {
            "mode": conversion.mode,
            "target_gene_ids": list(mask.target_gene_ids),
            "source_gene_ids": list(mask.source_gene_ids),
        }
        rows = mask.edge_rows.tolist()
        cols = mask.edge_cols.tolist()
        if conversion.mode == MODE_HARD:
            conv["edges"] = [
                [i, j, w] for i, j, w in zip(rows, cols, conversion.weights.tolist())
            ]
        else:
            # soft mode keeps the mask alongside the dense weights so
            # on/off-support reporting survives a reload
            conv["edges"] = [[i, j] for i, j in zip(rows, cols)]
            conv["weights"] = conversion.weights.ravel().tolist()
        doc["conversion"] = conv
    return json.dumps(doc, indent=2) + "\n"


def save_model(net, conversion, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_document(net, conversion))


def _finite_floats(values, what, path):
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ParseError(f"non-finite value in {what}", path)
    return arr


def load_model(path) -> tuple[FeedforwardNetwork, MaskedLinearLayer | None]:
    """Parse a model document back into network and conversion layer."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", path) from None

    try:
        net_doc = doc["network"]
        layers = []
        for k, lay in enumerate(net_doc["layers"]):
            rows, cols = int(lay["rows"]), int(lay["cols"])
            weights = _finite_floats(lay["weights"], f"layer {k} weights", path)
            bias = _finite_floats(lay["bias"], f"layer {k} bias", path)
            if weights.shape != (rows * cols,):
                raise ParseError(
                    f"layer {k}: expected {rows * cols} weights, got {weights.shape[0]}", path
                )
            activation = lay["activation"]
            if activation not in ACTIVATIONS:
                raise ParseError(f"layer {k}: unknown activation {activation!r}", path)
            layers.append(Layer(weights.reshape(rows, cols), bias, activation))
        net = FeedforwardNetwork(layers, frozen=bool(net_doc["frozen"]))

        conv_doc = doc["conversion"]
        if conv_doc is None:
            return net, None

        mode = conv_doc["mode"]
        if mode not in MODES:
            raise ParseError(f"unknown conversion mode {mode!r}", path)
        targets = [str(g) for g in conv_doc["target_gene_ids"]]
        sources = [str(g) for g in conv_doc["source_gene_ids"]]
        edges = conv_doc["edges"]
        if mode == MODE_HARD:
            width, form = 3, "[target, source, weight] triples"
        else:
            width, form = 2, "[target, source] pairs"
        for e in edges:
            if len(e) != width:
                raise ParseError(f"{mode}-mode edges must be {form}", path)
            # exact type: int() would load 1.9 or true as a different edge
            if type(e[0]) is not int or type(e[1]) is not int:
                raise ParseError(f"non-integer edge index in {json.dumps(e)}", path)
        mask = BiadjacencyMatrix(targets, sources, [(e[0], e[1]) for e in edges])
        if mode == MODE_HARD:
            # reorder weights into the mask's canonical edge order
            by_pair = {(e[0], e[1]): float(e[2]) for e in edges}
            weights = np.array(
                [by_pair[(i, j)] for i, j in zip(mask.edge_rows.tolist(), mask.edge_cols.tolist())]
            )
            if weights.size and not np.all(np.isfinite(weights)):
                raise ParseError("non-finite conversion weight", path)
            layer = MaskedLinearLayer(mask, MODE_HARD, weights)
        else:
            weights = _finite_floats(conv_doc["weights"], "conversion weights", path)
            if weights.shape != (mask.n_targets * mask.n_sources,):
                raise ParseError(
                    f"expected {mask.n_targets * mask.n_sources} conversion weights, "
                    f"got {weights.shape[0]}",
                    path,
                )
            layer = MaskedLinearLayer(mask, MODE_SOFT, weights.reshape(mask.n_targets, mask.n_sources))
        return net, layer
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model document: {exc}", path) from None


def float_repr(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite value {x}")
    return repr(float(x))
