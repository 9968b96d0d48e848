import hashlib
import json

import numpy as np
import orjson
import pytest

from orthomask.errors import ParseError
from orthomask.modelio import load_model, model_document, save_model
from orthomask.netcore import ACT_IDENTITY, FeedforwardNetwork, Layer, MaskedLinearLayer

from _helpers import earlier_layout, random_mask, random_network


def assert_same_network(a, b):
    assert a.frozen == b.frozen
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        assert la.activation == lb.activation
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_network_only_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    net = random_network(rng, [5, 3, 2], frozen=True)
    path = tmp_path / "model.json"
    save_model(net, None, path)
    loaded_net, loaded_conv = load_model(path)
    assert loaded_conv is None
    assert_same_network(net, loaded_net)
    save_model(loaded_net, None, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_conversion_round_trip(tmp_path, mode):
    rng = np.random.default_rng(2)
    mask = random_mask(rng, 4, 6, 0.4, force_edge=True)
    shape = (mask.n_edges,) if mode == "hard" else (4, 6)
    layer = MaskedLinearLayer(mask, mode, rng.normal(0, 1, shape))
    net = random_network(rng, [4, 3, 1], frozen=True)
    path = tmp_path / "model.json"
    save_model(net, layer, path)
    loaded_net, loaded = load_model(path)
    assert_same_network(net, loaded_net)
    assert loaded.mode == mode
    assert loaded.mask == mask
    assert np.array_equal(loaded.weights, layer.weights)
    save_model(loaded_net, loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_value_exact_floats(tmp_path):
    # awkward doubles must survive the text round trip bit-for-bit
    values = np.array([0.1, 1.0 / 3.0, 1e-300, 1.7976931348623157e308, -2.2250738585072014e-308])
    net = FeedforwardNetwork([Layer(values[None, :], [np.pi], ACT_IDENTITY)], frozen=True)
    path = tmp_path / "model.json"
    save_model(net, None, path)
    loaded, _ = load_model(path)
    assert np.array_equal(loaded.layers[0].weights, values[None, :])
    assert loaded.layers[0].bias[0] == np.pi


def test_soft_mode_mask_survives_reload(tmp_path):
    rng = np.random.default_rng(3)
    mask = random_mask(rng, 3, 5, 0.4, force_edge=True)
    layer = MaskedLinearLayer(mask, "soft", rng.normal(0, 1, (3, 5)))
    net = random_network(rng, [3, 1], frozen=True)
    path = tmp_path / "model.json"
    save_model(net, layer, path)
    _, loaded = load_model(path)
    assert loaded.mask.edge_set() == mask.edge_set()


def _malformed_documents():
    """Documents load_model refuses, each for one reason."""
    docs = [
        "{not json",
        '{"network": {"frozen": true, "layers": []}, "conversion": null}',
        '{"network": {"frozen": true, "layers": ['
        '{"rows": 1, "cols": 2, "weights": [1.0], "bias": [0.0], "activation": "identity"}'
        ']}, "conversion": null}',
        '{"network": {"frozen": true, "layers": ['
        '{"rows": 1, "cols": 1, "weights": [1.0], "bias": [0.0], "activation": "tanh"}'
        ']}, "conversion": null}',
    ]

    # edge indices must be JSON integers: int() would turn 1.9 and true into 1
    network = (
        '{"network": {"frozen": true, "layers": ['
        '{"rows": 1, "cols": 2, "weights": [1.0, 1.0], "bias": [0.0], "activation": "identity"}]},'
    )
    genes = '"target_gene_ids": ["t1", "t2"], "source_gene_ids": ["s1", "s2"]'
    for conversion in (
        '{"mode": "hard", ' + genes + ', "edges": [[1.9, 0, 3.0], [true, 1, 2.0]]}',
        '{"mode": "hard", ' + genes + ', "edges": [[0, 1.0, 3.0]]}',
        '{"mode": "soft", ' + genes + ', "edges": [[0, 1.0]], "weights": [0.0, 1.0, 0.0, 0.0]}',
        '{"mode": "soft", ' + genes + ', "edges": [[false, 1]], "weights": [0.0, 1.0, 0.0, 0.0]}',
    ):
        docs.append(network + ' "conversion": ' + conversion + "}")

    # every other field must have its JSON type too: bool(), int(), float()
    # and str() would load each of these as a different, valid model
    layer = '"rows": 1, "cols": 2, "weights": [1.0, 1.0], "bias": [0.0]'
    for bad_network in (
        '"frozen": "no", "layers": [{' + layer + ', "activation": "identity"}]',
        '"frozen": 1, "layers": [{' + layer + ', "activation": "identity"}]',
        '"frozen": true, "layers": [{"rows": 1.7, "cols": 2, "weights": [1.0, 1.0],'
        ' "bias": [0.0], "activation": "identity"}]',
        '"frozen": true, "layers": [{"rows": true, "cols": 2, "weights": [1.0, 1.0],'
        ' "bias": [0.0], "activation": "identity"}]',
        '"frozen": true, "layers": [{"rows": 1, "cols": 2, "weights": ["2.5", 1.0],'
        ' "bias": [0.0], "activation": "identity"}]',
        '"frozen": true, "layers": [{"rows": 1, "cols": 2, "weights": [1.0, 1.0],'
        ' "bias": [true], "activation": "identity"}]',
        '"frozen": true, "layers": [{"rows": 1, "cols": 2, "weights": "12",'
        ' "bias": [0.0], "activation": "identity"}]',
        '"frozen": true, "layers": [{"rows": 1, "cols": 2, "weights": [1.0, 1' + "0" * 400 + '],'
        ' "bias": [0.0], "activation": "identity"}]',
    ):
        docs.append('{"network": {' + bad_network + '}, "conversion": null}')
    for conversion in (
        '{"mode": "hard", ' + genes + ', "edges": [[0, 0, "2.5"], [1, 1, true]]}',
        '{"mode": "hard", ' + genes + ', "edges": [[0, 0, 2.5], [1, 1, true]]}',
        '{"mode": "soft", ' + genes + ', "edges": [[0, 1]], "weights": [0.0, "1.0", 0.0, 0.0]}',
        '{"mode": "hard", "target_gene_ids": [1, "t2"], "source_gene_ids": ["s1", "s2"],'
        ' "edges": [[0, 0, 1.0]]}',
        '{"mode": "hard", "target_gene_ids": ["t1", "t2"], "source_gene_ids": ["s1", null],'
        ' "edges": [[0, 0, 1.0]]}',
        # one target gene per input of the first layer, which reads two
        '{"mode": "hard", "target_gene_ids": ["t1"], "source_gene_ids": ["s1", "s2"],'
        ' "edges": [[0, 0, 1.0]]}',
        # a soft layer one weight short of its 2 x 2 matrix
        '{"mode": "soft", ' + genes + ', "edges": [[0, 1]], "weights": [0.0, 1.0, 0.0]}',
    ):
        docs.append(network + ' "conversion": ' + conversion + "}")
    return docs


MALFORMED = _malformed_documents()


def test_malformed_documents(tmp_path):
    path = tmp_path / "bad.json"
    for doc in MALFORMED:
        path.write_text(doc)
        with pytest.raises(ParseError):
            load_model(path)


def test_hard_edges_reordered_canonically(tmp_path):
    # edge triples listed out of order must land in canonical order
    doc = (
        '{"network": {"frozen": true, "layers": ['
        '{"rows": 2, "cols": 2, "weights": [1.0, 0.0, 0.0, 1.0], "bias": [0.0, 0.0],'
        ' "activation": "identity"}]},'
        ' "conversion": {"mode": "hard", "target_gene_ids": ["t1", "t2"],'
        ' "source_gene_ids": ["s1", "s2"],'
        ' "edges": [[1, 0, 3.0], [0, 1, 2.0]]}}'
    )
    path = tmp_path / "model.json"
    path.write_text(doc)
    _, layer = load_model(path)
    assert layer.mask.edge_set() == {(0, 1), (1, 0)}
    assert layer.weights.tolist() == [2.0, 3.0]


def test_document_is_deterministic():
    rng = np.random.default_rng(4)
    net = random_network(rng, [3, 2], frozen=True)
    assert model_document(net, None) == model_document(net, None)


@pytest.mark.parametrize("mode", [None, "hard", "soft"])
def test_compact_layout_and_indented_documents(tmp_path, mode):
    rng = np.random.default_rng(5)
    net = random_network(rng, [4, 3, 1], frozen=True)
    layer = None
    if mode is not None:
        mask = random_mask(rng, 4, 6, 0.4, force_edge=True)
        shape = (mask.n_edges,) if mode == "hard" else (4, 6)
        layer = MaskedLinearLayer(mask, mode, rng.normal(0, 1, shape))
    text = model_document(net, layer)
    # compact separators and no indent: the layout orjson writes
    assert text == orjson.dumps(orjson.loads(text)).decode() + "\n"

    # documents written with the earlier indented layout still load, and
    # saving them again gives the compact bytes
    path = tmp_path / "indented.json"
    path.write_text(json.dumps(json.loads(text), indent=2) + "\n")
    loaded_net, loaded = load_model(path)
    assert_same_network(net, loaded_net)
    if mode is None:
        assert loaded is None
    else:
        assert loaded.mode == mode
        assert loaded.mask == mask
        assert np.array_equal(loaded.weights, layer.weights)
    assert model_document(loaded_net, loaded) == text


def _network_part(text):
    """The text between ``{"network":`` and ``,"network_sha256":"``."""
    return text[len('{"network":') : text.index(',"network_sha256":"')]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _saved_model(tmp_path, mode, seed=6):
    """A saved model's path and text, and the model as loaded from it."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, [4, 3, 1], frozen=True)
    layer = None
    if mode is not None:
        mask = random_mask(rng, 4, 6, 0.4, force_edge=True)
        shape = (mask.n_edges,) if mode == "hard" else (4, 6)
        layer = MaskedLinearLayer(mask, mode, rng.normal(0, 1, shape))
    path = tmp_path / f"{mode}.json"
    save_model(net, layer, path)
    return path, path.read_text(), *load_model(path)


def _awkward(rng, shape):
    """float64 values of the given shape: random bit patterns over the whole
    exponent range (NaN and Infinity patterns made finite), subnormals, and
    as many as fit of ±0, ±max, the extreme subnormals and normals, and the
    neighbours of the powers of ten where shortest spellings change form."""
    size = int(np.prod(shape))
    bits = np.frombuffer(rng.bytes(8 * size), dtype=np.uint64).copy()
    # every fourth value subnormal: exponent bits cleared
    bits[::4] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 1.5
    powers = np.array([1e-7, 1e-5, 1e-4, 1e15, 1e16, 1e17, 1e21, 1e22])
    special = np.concatenate([
        [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308],
        np.nextafter(powers, 0.0),
        powers,
        np.nextafter(powers, np.inf),
    ])
    special = np.concatenate([special, -special])
    at = rng.permutation(size)[: len(special)]
    values[at] = special[: len(at)]
    return values.reshape(shape)


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_writer_round_trips_every_float_bit_pattern(tmp_path, mode):
    # orjson spells some floats unlike repr did (0.00001, 1e16); every
    # parser must still read back the bits that were written
    rng = np.random.default_rng(8)
    n_t, n_s, hidden = 16, 12, 60
    mask = random_mask(rng, n_t, n_s, 0.5)
    net = FeedforwardNetwork([
        Layer(_awkward(rng, (hidden, n_t)), _awkward(rng, hidden), "relu"),
        Layer(_awkward(rng, (1, hidden)), _awkward(rng, 1), ACT_IDENTITY),
    ], frozen=True)
    shape = (mask.n_edges,) if mode == "hard" else (n_t, n_s)
    layer = MaskedLinearLayer(mask, mode, _awkward(rng, shape))
    written = [
        *(a.ravel().tobytes() for lay in net.layers for a in (lay.weights, lay.bias)),
        layer.weights.ravel().tobytes(),
    ]
    assert mask.n_edges >= 58  # every special value is in every large array

    text = model_document(net, layer)
    assert text == orjson.dumps(orjson.loads(text)).decode() + "\n"
    for doc in (json.loads(text), orjson.loads(text)):
        conv = doc["conversion"]
        parsed = [
            *(lay[key] for lay in doc["network"]["layers"] for key in ("weights", "bias")),
            [edge[2] for edge in conv["edges"]] if mode == "hard" else conv["weights"],
        ]
        assert [np.array(a, dtype=np.float64).tobytes() for a in parsed] == written
    path = tmp_path / "model.json"
    save_model(net, layer, path)
    loaded_net, loaded = load_model(path)
    assert [
        *(a.ravel().tobytes() for lay in loaded_net.layers for a in (lay.weights, lay.bias)),
        loaded.weights.ravel().tobytes(),
    ] == written


def test_signed_zero_change_is_formatted_again(tmp_path):
    # -0.0 == 0.0, but they are written differently
    net = FeedforwardNetwork([Layer([[-0.0, 1.0]], [0.0], ACT_IDENTITY)], frozen=True)
    path = tmp_path / "model.json"
    save_model(net, None, path)
    loaded, _ = load_model(path)
    loaded.layers[0].weights[0, 0] = 0.0
    text = model_document(loaded)
    assert text == model_document(loaded.copy()) != path.read_text()
    assert '"weights":[0.0,1.0]' in text


def test_non_utf8_model_names_its_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(ParseError, match=r"model\.json:1: not UTF-8 text: byte 0xff"):
        load_model(path)


def _make_unwritable(change, net, layer):
    """Change a loaded model in place into one load_model would refuse."""
    if change == "NaN network weight":
        net.layers[0].weights[0, 0] = np.nan
    elif change == "infinite network bias":
        net.layers[-1].bias[0] = -np.inf
    elif change == "NaN conversion weight":
        layer.weights.flat[0] = np.nan
    elif change == "infinite conversion weight":
        layer.weights.flat[0] = np.inf
    elif change == "unknown activation":
        net.layers[0].activation = "tanh"
    elif change == "layers that do not chain":
        net.layers[-1] = Layer(np.ones((1, 5)), np.zeros(1), ACT_IDENTITY)
    elif change == "frozen not a boolean":
        net.frozen = 1
    elif change == "too few target genes":
        net.layers.insert(0, Layer(np.ones((4, 5)), np.zeros(4), ACT_IDENTITY))
    else:
        raise AssertionError(change)


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("change", [
    "NaN network weight", "infinite network bias", "NaN conversion weight",
    "infinite conversion weight", "unknown activation", "layers that do not chain",
    "frozen not a boolean", "too few target genes",
])
def test_writer_refuses_what_the_reader_refuses(tmp_path, mode, change):
    path, text, net, layer = _saved_model(tmp_path, mode)
    _make_unwritable(change, net, layer)
    with pytest.raises(ValueError):
        model_document(net, layer)
    # rendered before the file is opened: a refused save leaves it as it was
    with pytest.raises(ValueError):
        save_model(net, layer, path)
    assert path.read_text() == text


@pytest.mark.parametrize("mode, change", [
    ("hard", "lone surrogate"), ("hard", "weights of another shape"),
    ("soft", "weights of another shape"),
])
def test_writer_refuses_models_it_cannot_write(tmp_path, mode, change):
    path, text, net, layer = _saved_model(tmp_path, mode)
    if change == "lone surrogate":
        # documents are UTF-8 text, which cannot hold a lone surrogate; the
        # earlier writer escaped it as \\ud800, which loading refuses
        mask = layer.mask
        ids = ["\ud800" + gene for gene in mask.target_gene_ids]
        mask = type(mask)(ids, mask.source_gene_ids, zip(mask.edge_rows, mask.edge_cols))
        layer = MaskedLinearLayer(mask, mode, layer.weights)
    else:
        # one hard weight short would drop an edge; a soft column short
        # would write a document that loading refuses
        layer.weights = layer.weights[..., :-1]
    with pytest.raises(ValueError):
        model_document(net, layer)
    with pytest.raises(ValueError):
        save_model(net, layer, path)
    assert path.read_text() == text


def _outcome(path):
    """What load_model gives for a document: the bits of the network and of
    the conversion layer, or the exception's type and message."""
    try:
        net, layer = load_model(path)
    except ValueError as exc:  # ParseError is a ValueError
        return type(exc), str(exc)
    network = [
        (lay.activation, lay.weights.shape, lay.weights.tobytes(), lay.bias.tobytes())
        for lay in net.layers
    ]
    if layer is None:
        return net.frozen, network, None
    mask = layer.mask
    return net.frozen, network, (
        layer.mode,
        mask.target_gene_ids,
        mask.source_gene_ids,
        mask.edge_rows.tobytes(),
        mask.edge_cols.tobytes(),
        layer.weights.shape,
        layer.weights.tobytes(),
    )


def _random_documents(seed):
    """A seeded random model's documents, each with the bytes that saving
    what it loads must give: this writer's text; the earlier writer's, as it
    stands, indented and without the digest; and the earlier text with a
    weight edited under the old digest and under a digest of its own."""
    rng = np.random.default_rng(seed)
    n_t, n_s = int(rng.integers(1, 6)), int(rng.integers(1, 7))
    # density 0 gives graphs without edges; sparse ones leave targets
    # without orthologs
    mask = random_mask(rng, n_t, n_s, [0.0, 0.2, 0.5][seed // 3 % 3])
    if seed % 4 == 1:
        # the earlier writer escaped a non-ASCII gene ID (\\u00e9); orjson
        # writes it as UTF-8
        ids = list(mask.target_gene_ids)
        ids[0] = 't"\u00e9\u2603'
        mask = type(mask)(ids, mask.source_gene_ids, zip(mask.edge_rows, mask.edge_cols))
    net = random_network(rng, [n_t, int(rng.integers(1, 4)), 1], frozen=bool(seed % 2))
    # magnitudes from 1e-12 to 1e17: below 1e-4 and from 1e16 up, the
    # earlier writer spelled floats differently (1e-05, 1e+16)
    for lay in net.layers:
        lay.weights *= 10.0 ** rng.integers(-12, 18, lay.weights.shape)
    layer = {
        0: None,
        1: MaskedLinearLayer(mask, "hard", rng.normal(0, 1, mask.n_edges)),
        2: MaskedLinearLayer(mask, "soft", rng.normal(0, 1, (n_t, n_s))),
    }[seed % 3]
    if layer is not None:
        layer.weights *= 10.0 ** rng.integers(-12, 18, layer.weights.shape)
    text = model_document(net, layer)
    doc, edited_doc = json.loads(text), json.loads(text)
    earlier = earlier_layout(doc, doc["network"])
    digest = json.loads(earlier)["network_sha256"]
    edited_doc["network"]["layers"][0]["weights"][0] += 1.0
    edited = net.copy()
    edited.layers[0].weights[0, 0] += 1.0
    edited_text = model_document(edited, layer)
    return {
        "canonical": (text, text),
        "earlier": (earlier, text),
        "earlier indented": (json.dumps(json.loads(earlier), indent=2) + "\n", text),
        "earlier without the digest": (
            earlier.replace(',"network_sha256":"' + digest + '"', ""), text
        ),
        "stale digest": (earlier_layout(edited_doc, doc["network"]), edited_text),
        "rehashed": (earlier_layout(edited_doc, edited_doc["network"]), edited_text),
    }


def _rehashed(doc):
    """A document in the earlier writer's layout, under a digest of its
    network text: None unless json parses it into both keys."""
    try:
        parsed = json.loads(doc)
        return earlier_layout(parsed, parsed["network"])
    except (ValueError, KeyError, TypeError):
        return None


def _json_module_loads(text):
    """The json module's parse, its refusals raised as orjson raises them."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise orjson.JSONDecodeError(str(exc), text, 0) from None


def _edited(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def test_load_model_matches_json_only_reference(tmp_path, monkeypatch):
    """load_model against a reference that runs the same checks on what the
    json module parses: every document the reference accepts loads to the
    same bits, and every document it refuses raises ParseError."""
    documents, resaved = {}, {}
    for seed in range(24):
        for form, (text, again) in _random_documents(seed).items():
            documents[f"seed {seed} {form}"] = text
            resaved[f"seed {seed} {form}"] = again
    for k, doc in enumerate(MALFORMED):
        documents[f"malformed {k}"] = doc
        rehashed = _rehashed(doc)
        if rehashed is not None:
            documents[f"malformed {k} rehashed"] = rehashed
    # the earlier writer's text of a hard-mode model that is not frozen
    earlier = documents["seed 4 earlier"]
    digest = json.loads(earlier)["network_sha256"]
    network = _network_part(earlier)
    conversion = earlier[earlier.index(',"conversion":') :]
    parsed = json.loads(network)
    reordered = json.dumps({"layers": parsed["layers"], "frozen": parsed["frozen"]},
                           separators=(",", ":"))
    assert parsed["frozen"] is False
    first_weight = repr(parsed["layers"][0]["weights"][0])
    nan_network = network.replace(first_weight, "NaN", 1)
    first_edge = json.loads(conversion[len(',"conversion":') : -2])["edges"][0]

    def edge(*fields):
        return json.dumps(list(fields), separators=(",", ":"))

    rows = f'"rows":{parsed["layers"][0]["rows"]},'
    cols = f'"cols":{parsed["layers"][0]["cols"]},'
    deep = "[" * 5000 + "]" * 5000

    def hashed(network):
        return '{"network":' + network + ',"network_sha256":"' + _sha256(network) + '"' + conversion

    documents.update({
        "truncated": earlier[:-3],
        "extra key": earlier[:-2] + ',"extra":1}\n',
        "no conversion": earlier[: earlier.index(',"conversion":')] + "}\n",
        # json and orjson both keep the last of a duplicated key
        "network in the tail": earlier[:-2] + ',"network" :{"frozen":true,"layers":[]}}\n',
        "duplicated mode": _edited(earlier, '"mode":"hard"', '"mode":"soft","mode":"hard"'),
        "duplicated soft mode": _edited(earlier, '"mode":"hard"', '"mode":"hard","mode":"soft"'),
        "keys reordered": hashed(reordered),
        "frozen not a boolean": hashed(network.replace('{"frozen":false,', '{"frozen":0,', 1)),
        # earlier writers put NaN and Infinity into the text they hashed
        "NaN under its digest": hashed(nan_network),
        "Infinity under its digest": hashed(network.replace(first_weight, "-Infinity", 1)),
        "other digest": earlier.replace(digest, "0" * 64),
        "NaN under a stale digest": earlier.replace(network, nan_network),
        "activation under a stale digest": earlier.replace(
            network, network.replace('"activation":"identity"', '"activation":"tanh"')
        ),
        "activation under its digest": hashed(
            network.replace('"activation":"identity"', '"activation":"tanh"')
        ),
        "digest not a string": earlier.replace(f'"{digest}"', "1"),
        # orjson reads integers beyond 64 bits as floats, json as ints
        "rows 2**64": _edited(earlier, rows, f'"rows":{2**64},'),
        "rows -2**63-1": _edited(earlier, rows, f'"rows":{-2**63 - 1},'),
        "cols 2**64": _edited(earlier, cols, f'"cols":{2**64},'),
        "edge index 2**64": _edited(earlier, edge(*first_edge), edge(2**64, *first_edge[1:])),
        "edge index -2**63-1": _edited(earlier, edge(*first_edge),
                                       edge(first_edge[0], -2**63 - 1, first_edge[2])),
        "weight of 25 digits": _edited(earlier, first_weight, "1234567890123456789012345"),
        "weight of -2**63-1": _edited(earlier, first_weight, str(-2**63 - 1)),
        "edge weight of 25 digits": _edited(earlier, edge(*first_edge),
                                            edge(*first_edge[:2], -9999999999999999999999999)),
        "weight 1e400": _edited(earlier, first_weight, "1e400"),
        "weight -1e-400": _edited(earlier, first_weight, "-1e-400"),
        "weight NaN": _edited(earlier, first_weight, "NaN"),
        "weight -Infinity": _edited(earlier, first_weight, "-Infinity"),
        "weight 400 digits": _edited(earlier, first_weight, "1" + "0" * 400),
        "lone surrogate": _edited(earlier, '"target_gene_ids":["', '"target_gene_ids":["\\ud800'),
        "surrogate pair": _edited(earlier, '"target_gene_ids":["', '"target_gene_ids":["\\ud83d\\ude00'),
        "deep weight": _edited(earlier, first_weight, deep),
        "byte order mark": "\ufeff" + earlier,
        # the reader ignores the key wherever it is
        "digest inside the network": hashed(network[:-1] + ',"network_sha256":"' + digest + '"}'),
    })
    path = tmp_path / "model.json"

    def outcomes():
        found = {}
        for name, doc in documents.items():
            path.write_text(doc, encoding="utf-8")
            found[name] = _outcome(path)
        return found

    loaded = outcomes()
    with monkeypatch.context() as m:
        m.setattr(orjson, "loads", _json_module_loads)
        reference = outcomes()
    for name in documents:
        if type(reference[name][0]) is type:
            assert loaded[name][0] is ParseError, name
        elif name == "lone surrogate":
            # UTF-8 has no lone surrogates: orjson refuses the earlier
            # writer's \\ud800, which the json module reads
            assert loaded[name][0] is ParseError, name
        else:
            assert loaded[name] == reference[name], name
        # the earlier writer's digest changes no outcome, but for where in
        # the text invalid JSON is
        if name.endswith(" rehashed") and name.startswith("malformed"):
            plain, rehashed = loaded[name[: -len(" rehashed")]], loaded[name]
            if plain[0] is ParseError and ": invalid JSON: " in plain[1]:
                plain, rehashed = plain[0], rehashed[0]
            assert rehashed == plain, name
    # the corpus loads networks with hard and soft layers and without one,
    # and meets every kind of refusal
    kinds = {o[0].__name__ if type(o[0]) is type else o[2] and o[2][0] for o in loaded.values()}
    assert kinds == {None, "hard", "soft", "ParseError"}
    assert loaded["weight of 25 digits"][1][0][2] != loaded["seed 4 canonical"][1][0][2]
    for seed in range(24):
        assert loaded[f"seed {seed} earlier"] == loaded[f"seed {seed} canonical"]

    # saving what loaded gives canonical bytes: this writer's own text for
    # the seeded models, and for every accepted document a text that loads
    # to the same bits and that loading and saving leaves as it is
    for name, doc in documents.items():
        if type(loaded[name][0]) is type:
            continue
        path.write_text(doc, encoding="utf-8")
        text = model_document(*load_model(path))
        assert text == resaved.get(name, text), name
        path.write_text(text, encoding="utf-8")
        assert _outcome(path) == loaded[name], name
        assert model_document(*load_model(path)) == text, name

    # each document is parsed once, by orjson: the json module's parser is
    # never called, for accepted and refused documents alike
    def forbidden(*args, **kwargs):
        raise AssertionError("load_model called json.loads")

    monkeypatch.setattr(json, "loads", forbidden)
    assert outcomes() == loaded


def test_deep_nesting_outside_the_checked_fields_loads(tmp_path):
    # nested past Python's recursion limit, in a key the checks do not
    # read: orjson parses it, and the document loads
    path, text, *_ = _saved_model(tmp_path, "hard")
    expected = _outcome(path)
    path.write_text(text[:-2] + ',"extra":' + "[" * 5000 + "]" * 5000 + "}\n")
    assert _outcome(path) == expected
