"""Model document (JSON) serialization.

One document holds the feedforward network and, optionally, the
conversion layer. Documents are written by orjson as compact one-line
JSON with UTF-8 text and shortest round-trip floats, so floats load back
bit for bit and the same model gives the same bytes. Any JSON layout of
the same fields loads, and so do documents of earlier versions: their
``network_sha256`` key is ignored.

orjson is the reader: :func:`load_model` parses each document once and
checks what it parsed. Text orjson refuses (NaN or Infinity, which
earlier versions wrote, ``1e400``, a lone surrogate) is invalid JSON.
Every command, ``inspect-weights`` included, loads the whole document.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np
import orjson

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
from .tsv import read_text


def _network_fields(net: FeedforwardNetwork) -> dict:
    # a network changed in place is checked again as its constructor
    # checks it (finite values, shapes, activations, layers that chain),
    # so that no document load_model refuses is written
    if type(net.frozen) is not bool:
        raise ValueError(f"frozen must be True or False, got {net.frozen!r}")
    checked = FeedforwardNetwork(net.layers)
    return {
        "frozen": net.frozen,
        "layers": [
            {
                "rows": lay.weights.shape[0],
                "cols": lay.weights.shape[1],
                "weights": lay.weights.ravel().tolist(),
                "bias": lay.bias.tolist(),
                "activation": lay.activation,
            }
            for lay in checked.layers
        ],
    }


def _conversion_fields(conversion: MaskedLinearLayer) -> dict:
    mask = conversion.mask
    conv = {
        "mode": conversion.mode,
        "target_gene_ids": list(mask.target_gene_ids),
        "source_gene_ids": list(mask.source_gene_ids),
    }
    rows = mask.edge_rows.tolist()
    cols = mask.edge_cols.tolist()
    if conversion.mode == MODE_HARD:
        conv["edges"] = [[i, j, w] for i, j, w in zip(rows, cols, conversion.weights.tolist())]
    else:
        # soft mode keeps the mask alongside the dense weights so
        # on/off-support reporting survives a reload
        conv["edges"] = [[i, j] for i, j in zip(rows, cols)]
        conv["weights"] = conversion.weights.ravel().tolist()
    return conv


def model_document(net: FeedforwardNetwork, conversion: MaskedLinearLayer | None = None) -> str:
    """Render the model as canonical JSON text; raise ValueError for a
    model :func:`load_model` would refuse, such as a non-finite weight."""
    doc = {"network": _network_fields(net), "conversion": None}
    if conversion is not None:
        if conversion.n_targets != net.input_dim:
            raise ValueError(
                f"conversion layer has {conversion.n_targets} target genes "
                f"but the network's first layer reads {net.input_dim}"
            )
        # checked again as its constructor checks it: a weight array of the
        # wrong shape would lose edges, and orjson writes NaN as null
        checked = MaskedLinearLayer(conversion.mask, conversion.mode, conversion.weights)
        doc["conversion"] = _conversion_fields(checked)
    try:
        return orjson.dumps(doc).decode() + "\n"
    except orjson.JSONEncodeError as exc:  # a TypeError, e.g. for a lone surrogate
        raise ValueError(f"model cannot be written as JSON: {exc}") from None


def save_model(net, conversion, path) -> None:
    # rendered first: a refused model leaves an existing file as it was
    text = model_document(net, conversion)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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


@contextmanager
def _malformed(path):
    """Report a field of the wrong type or shape as a ParseError."""
    try:
        yield
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed model document: {exc}", path) from None


def _shown(value, form=json.dumps) -> str:
    """``form(value)`` for a message. A value nested deeper than orjson
    writes (255 levels) is named by its type: json.dumps and repr would
    recurse through it past Python's limit."""
    try:
        orjson.dumps(value)
    except orjson.JSONEncodeError:
        return f"a {type(value).__name__} nested too deep to show"
    return form(value)


def load_model(path) -> tuple[FeedforwardNetwork, MaskedLinearLayer | None]:
    """Parse a model document back into network and conversion layer."""
    text = read_text(path)
    try:
        doc = orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path) from None
    with _malformed(path):
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
                raise ParseError(f"layer {k}: unknown activation {_shown(activation, repr)}", path)
            layers.append(Layer(weights.reshape(rows, cols), bias, activation))
        frozen = net_doc["frozen"]
        if type(frozen) is not bool:
            raise ParseError(f"frozen must be true or false, got {_shown(frozen)}", path)
        net = FeedforwardNetwork(layers, frozen=frozen)
        return net, _conversion(doc["conversion"], net.input_dim, path)


def _conversion(conv_doc, n_inputs: int, path) -> MaskedLinearLayer | None:
    """The conversion layer from its part of a document, for a network
    whose first layer reads ``n_inputs`` values."""
    if conv_doc is None:
        return None
    mode = conv_doc["mode"]
    if mode not in MODES:
        raise ParseError(f"unknown conversion mode {_shown(mode, repr)}", path)
    targets = _json_list(conv_doc["target_gene_ids"], {str}, "target_gene_ids", path)
    if len(targets) != n_inputs:
        raise ParseError(
            f"conversion layer has {len(targets)} target genes "
            f"but the network's first layer reads {n_inputs}",
            path,
        )
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
        raise ParseError(f"non-integer edge index in {_shown(bad)}", path)
    rows = np.array(fields[0], dtype=np.int64)
    cols = np.array(fields[1], dtype=np.int64)
    mask = BiadjacencyMatrix(targets, sources, np.column_stack((rows, cols)))
    if mode == MODE_HARD:
        weights = _finite_floats(list(fields[2]), "conversion weights", path)
        # reorder weights into the mask's canonical (row-major) edge order
        return MaskedLinearLayer(mask, MODE_HARD, weights[np.lexsort((cols, rows))])
    weights = _finite_floats(conv_doc["weights"], "conversion weights", path)
    if weights.shape != (mask.n_targets * mask.n_sources,):
        raise ParseError(
            f"expected {mask.n_targets * mask.n_sources} conversion weights, "
            f"got {weights.shape[0]}",
            path,
        )
    return MaskedLinearLayer(mask, MODE_SOFT, weights.reshape(mask.n_targets, mask.n_sources))
