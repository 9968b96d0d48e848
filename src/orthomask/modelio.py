"""Model document (JSON) serialization.

One document holds the feedforward network and, optionally, the
conversion layer. Floats round-trip value-exactly (shortest-repr
encoding via the json module) and documents are byte-stable: same model
in, same bytes out. Documents are written as compact one-line JSON, the
layout the json module's C encoder produces; any JSON layout of the same
fields loads.
"""

from __future__ import annotations

import json

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
    # no indent: json runs its C encoder only when indent is None
    return json.dumps(doc, separators=(",", ":")) + "\n"


def save_model(net, conversion, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_document(net, conversion))


def _json_list(values, types, what, path):
    # exact types: np.asarray would also take "2.5" or true as a number,
    # and str() would take 1 as a gene ID
    if type(values) is not list or not set(map(type, values)) <= types:
        names = " or ".join(sorted(t.__name__ for t in types))
        raise ParseError(f"{what} must be a list of {names}", path)
    return values


def _finite_floats(values, what, path):
    arr = np.asarray(_json_list(values, {int, float}, what, path), dtype=np.float64)
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
            rows, cols = lay["rows"], lay["cols"]
            if type(rows) is not int or type(cols) is not int:
                raise ParseError(f"layer {k}: rows and cols must be integers", path)
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
        frozen = net_doc["frozen"]
        if type(frozen) is not bool:
            raise ParseError(f"frozen must be true or false, got {json.dumps(frozen)}", path)
        net = FeedforwardNetwork(layers, frozen=frozen)

        conv_doc = doc["conversion"]
        if conv_doc is None:
            return net, None

        mode = conv_doc["mode"]
        if mode not in MODES:
            raise ParseError(f"unknown conversion mode {mode!r}", path)
        targets = _json_list(conv_doc["target_gene_ids"], {str}, "target_gene_ids", path)
        sources = _json_list(conv_doc["source_gene_ids"], {str}, "source_gene_ids", path)
        edges = conv_doc["edges"]
        if mode == MODE_HARD:
            width, form = 3, "[target, source, weight] triples"
        else:
            width, form = 2, "[target, source] pairs"
        if not (
            type(edges) is list
            and set(map(type, edges)) <= {list}
            and set(map(len, edges)) <= {width}
        ):
            raise ParseError(f"{mode}-mode edges must be {form}", path)
        fields = list(zip(*edges)) or [()] * width
        # exact type: int() would load 1.9 or true as a different edge
        if not set(map(type, fields[0])) | set(map(type, fields[1])) <= {int}:
            bad = next(e for e in edges if type(e[0]) is not int or type(e[1]) is not int)
            raise ParseError(f"non-integer edge index in {json.dumps(bad)}", path)
        rows = np.array(fields[0], dtype=np.int64)
        cols = np.array(fields[1], dtype=np.int64)
        mask = BiadjacencyMatrix(targets, sources, np.column_stack((rows, cols)))
        if mode == MODE_HARD:
            weights = _finite_floats(list(fields[2]), "conversion weights", path)
            # reorder weights into the mask's canonical (row-major) edge order
            layer = MaskedLinearLayer(mask, MODE_HARD, weights[np.lexsort((cols, rows))])
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed model document: {exc}", path) from None
