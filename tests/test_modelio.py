import hashlib
import json

import numpy as np
import orjson
import pytest

from orthomask.errors import ParseError
from orthomask import modelio
from orthomask.modelio import load_model, model_document, save_model
from orthomask.netcore import ACT_IDENTITY, FeedforwardNetwork, Layer, MaskedLinearLayer

from _helpers import random_mask, random_network


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
    # compact separators and no indent: the layout json's C encoder writes
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"

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


@pytest.mark.parametrize("mode", [None, "hard", "soft"])
def test_network_digest_and_copied_text(tmp_path, mode):
    path, text, net, layer = _saved_model(tmp_path, mode)
    doc = json.loads(text)
    assert list(doc) == ["network", "network_sha256", "conversion"]
    network = json.dumps(doc["network"], separators=(",", ":"))
    assert _network_part(text) == network
    assert doc["network_sha256"] == _sha256(network)
    # a loaded network's document, copied or formatted, is the file's bytes
    assert model_document(net, layer) == text
    assert model_document(net.copy(), layer) == text
    # the conversion layer is always formatted
    if layer is not None:
        assert model_document(net, None) == model_document(net.copy(), None)


def _reload(path, text):
    path.write_text(text)
    return load_model(path)


def test_rehashed_network_text_is_copied_as_it_stands(tmp_path):
    # a digest that matches its text is taken as the writer's own: the
    # network text is copied, not formatted again
    path, text, net, _ = _saved_model(tmp_path, None)
    weight = repr(net.layers[0].weights[0, 0])
    network = _network_part(text).replace(weight, weight + "0", 1)
    edited = '{"network":' + network + ',"network_sha256":"' + _sha256(network) + '","conversion":null}\n'
    loaded, _ = _reload(path, edited)
    assert model_document(loaded) == edited
    assert model_document(loaded.copy()) == text


def test_copy_falls_back_to_formatting(tmp_path):
    path, text, net, _ = _saved_model(tmp_path, None)
    _, other_text, other, _ = _saved_model(tmp_path, None, seed=7)
    digest = json.loads(text)["network_sha256"]
    network = _network_part(text)

    def formatted(loaded):
        return model_document(loaded.copy())

    doc = json.loads(text)
    doc["network"]["layers"][0]["weights"][0] += 1.0
    edited_weight = json.dumps(doc, separators=(",", ":")) + "\n"
    nested = network[:-1] + ',"network_sha256":"' + _sha256(network[:-1]) + '"}'
    documents = {
        "indented": json.dumps(json.loads(text), indent=2) + "\n",
        "without the key": text.replace(',"network_sha256":"' + digest + '"', ""),
        # a weight hand-edited under the old digest
        "edited weight": edited_weight,
        "other digest": text.replace(digest, json.loads(other_text)["network_sha256"]),
        # json keeps the last "network": the copy would be the first one's
        "duplicate network": text[:-2] + ',"network":' + _network_part(other_text) + "}\n",
        # the text in the place of the network, hashed, is another key's
        "network not first": '{"xetwork":' + network + ',"network_sha256":"' + digest
        + '","network":' + _network_part(other_text) + ',"conversion":null}\n',
        # without the count, the text before the nested key would be copied
        "nested digest": '{"network":' + nested + ',"network_sha256":"' + _sha256(network[:-1])
        + '","conversion":null}\n',
    }
    for name, document in documents.items():
        loaded, _ = _reload(path, document)
        assert model_document(loaded) == formatted(loaded), name
    assert model_document(_reload(path, documents["edited weight"])[0]) != text
    assert model_document(_reload(path, documents["duplicate network"])[0]) == other_text
    assert model_document(_reload(path, documents["network not first"])[0]) == other_text

    # a loaded network changed after loading is formatted again
    loaded, _ = _reload(path, text)
    loaded.layers[0].weights[0, 0] += 1.0
    assert model_document(loaded) == formatted(loaded) != text
    loaded, _ = _reload(path, text)
    loaded.frozen = not loaded.frozen
    assert model_document(loaded) == formatted(loaded) != text
    loaded, _ = _reload(path, text)
    loaded.layers[-1].activation = "relu"
    assert model_document(loaded) == formatted(loaded) != text
    loaded, _ = _reload(path, text)
    del loaded.layers[-1]
    assert model_document(loaded) == formatted(loaded) != text
    loaded, _ = _reload(path, text)
    assert model_document(loaded.copy()) == text


def test_signed_zero_change_is_formatted_again(tmp_path):
    # -0.0 == 0.0, but they format differently: the check compares bits
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


def _outcome(path):
    """What load_model gives for a document: the bits of the network and of
    the conversion layer, or the exception's type and message."""
    try:
        net, layer = load_model(path)
    except (ValueError, RecursionError) as exc:  # ParseError is a ValueError
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
    """A seeded random model's canonical text and three other forms of it:
    indented, without the digest, and with a weight edited under the old
    digest."""
    rng = np.random.default_rng(seed)
    n_t, n_s = int(rng.integers(1, 6)), int(rng.integers(1, 7))
    # density 0 gives graphs without edges; sparse ones leave targets
    # without orthologs
    mask = random_mask(rng, n_t, n_s, [0.0, 0.2, 0.5][seed // 3 % 3])
    if seed % 4 == 1:
        # a gene ID that holds the network key: the key no longer occurs once
        ids = list(mask.target_gene_ids)
        ids[0] = 't"network":'
        mask = type(mask)(ids, mask.source_gene_ids, zip(mask.edge_rows, mask.edge_cols))
    net = random_network(rng, [n_t, int(rng.integers(1, 4)), 1], frozen=bool(seed % 2))
    layer = {
        0: None,
        1: MaskedLinearLayer(mask, "hard", rng.normal(0, 1, mask.n_edges)),
        2: MaskedLinearLayer(mask, "soft", rng.normal(0, 1, (n_t, n_s))),
    }[seed % 3]
    text = model_document(net, layer)
    doc = json.loads(text)
    digest = doc["network_sha256"]
    doc["network"]["layers"][0]["weights"][0] += 1.0
    return {
        "canonical": text,
        "indented": json.dumps(json.loads(text), indent=2) + "\n",
        "without the key": text.replace(',"network_sha256":"' + digest + '"', ""),
        "stale digest": json.dumps(doc, separators=(",", ":")) + "\n",
    }


def _rehashed(doc, path):
    """A malformed document in the canonical layout, with a digest that
    matches its network text: None unless load_model takes the network."""
    try:
        parsed = json.loads(doc)
        network = json.dumps(parsed["network"], separators=(",", ":"))
        path.write_text('{"network":' + network + ',"conversion":null}')
        load_model(path)
    except (ValueError, KeyError, ParseError):
        return None
    return (
        '{"network":' + network + ',"network_sha256":"' + _sha256(network) + '","conversion":'
        + json.dumps(parsed["conversion"], separators=(",", ":")) + "}\n"
    )


def _refuse(text):
    raise orjson.JSONDecodeError("refused", text, 0)


def _edited(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def test_load_model_matches_json_only_reference(tmp_path, monkeypatch):
    """load_model, orjson first, against the same loader with orjson
    refusing every text, so that the json module parses each document."""
    documents = {}
    for seed in range(24):
        for form, text in _random_documents(seed).items():
            documents[f"seed {seed} {form}"] = text
    for k, doc in enumerate(MALFORMED):
        documents[f"malformed {k}"] = doc
        rehashed = _rehashed(doc, tmp_path / "network.json")
        if rehashed is not None:
            documents[f"malformed {k} rehashed"] = rehashed
    canonical = documents["seed 4 canonical"]  # hard mode, not frozen
    digest = json.loads(canonical)["network_sha256"]
    network = _network_part(canonical)
    conversion = canonical[canonical.index(',"conversion":') :]
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
        "truncated": canonical[:-3],
        "extra key": canonical[:-2] + ',"extra":1}\n',
        "no conversion": canonical[: canonical.index(',"conversion":')] + "}\n",
        # json and orjson both keep the last of a duplicated key
        "network in the tail": canonical[:-2] + ',"network" :{"frozen":true,"layers":[]}}\n',
        "duplicated mode": _edited(canonical, '"mode":"hard"', '"mode":"soft","mode":"hard"'),
        "duplicated soft mode": _edited(canonical, '"mode":"hard"', '"mode":"hard","mode":"soft"'),
        "keys reordered": hashed(reordered),
        "frozen not a boolean": hashed(network.replace('{"frozen":false,', '{"frozen":0,', 1)),
        # earlier writers put NaN and Infinity into the text they hashed
        "NaN under its digest": hashed(nan_network),
        "Infinity under its digest": hashed(network.replace(first_weight, "-Infinity", 1)),
        "other digest": canonical.replace(digest, "0" * 64),
        "NaN under a stale digest": canonical.replace(network, nan_network),
        "activation under a stale digest": canonical.replace(
            network, network.replace('"activation":"identity"', '"activation":"tanh"')
        ),
        "activation under its digest": hashed(
            network.replace('"activation":"identity"', '"activation":"tanh"')
        ),
        "digest not a string": canonical.replace(f'"{digest}"', "1"),
        # orjson reads integers beyond 64 bits as floats, json as ints
        "rows 2**64": _edited(canonical, rows, f'"rows":{2**64},'),
        "rows -2**63-1": _edited(canonical, rows, f'"rows":{-2**63 - 1},'),
        "cols 2**64": _edited(canonical, cols, f'"cols":{2**64},'),
        "edge index 2**64": _edited(canonical, edge(*first_edge), edge(2**64, *first_edge[1:])),
        "edge index -2**63-1": _edited(canonical, edge(*first_edge),
                                       edge(first_edge[0], -2**63 - 1, first_edge[2])),
        "weight of 25 digits": _edited(canonical, first_weight, "1234567890123456789012345"),
        "weight of -2**63-1": _edited(canonical, first_weight, str(-2**63 - 1)),
        "edge weight of 25 digits": _edited(canonical, edge(*first_edge),
                                            edge(*first_edge[:2], -9999999999999999999999999)),
        "weight 1e400": _edited(canonical, first_weight, "1e400"),
        "weight -1e-400": _edited(canonical, first_weight, "-1e-400"),
        "weight NaN": _edited(canonical, first_weight, "NaN"),
        "weight -Infinity": _edited(canonical, first_weight, "-Infinity"),
        "weight 400 digits": _edited(canonical, first_weight, "1" + "0" * 400),
        "lone surrogate": _edited(canonical, '"target_gene_ids":["', '"target_gene_ids":["\\ud800'),
        "surrogate pair": _edited(canonical, '"target_gene_ids":["', '"target_gene_ids":["\\ud83d\\ude00'),
        "deep weight": _edited(canonical, first_weight, deep),
        "byte order mark": "\ufeff" + canonical,
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
        m.setattr(orjson, "loads", _refuse)
        reference = outcomes()
    for name in documents:
        assert loaded[name] == reference[name], name
    # the corpus loads networks with hard and soft layers and without one,
    # and meets every kind of refusal
    kinds = {o[0].__name__ if type(o[0]) is type else o[2] and o[2][0] for o in loaded.values()}
    assert kinds == {None, "hard", "soft", "ParseError", "RecursionError"}
    assert loaded["weight of 25 digits"][1][0][2] != loaded["seed 4 canonical"][1][0][2]

    # accepted documents are parsed by orjson alone
    json_texts = []
    monkeypatch.setattr(modelio.json, "loads", json_texts.append)
    for name in ("seed 4 canonical", "seed 5 indented", "weight of 25 digits", "surrogate pair"):
        path.write_text(documents[name])
        assert _outcome(path) == loaded[name]
    assert json_texts == []


def test_deep_nesting_outside_the_checked_fields_loads(tmp_path, monkeypatch):
    # too deep for the json module's recursion limit, but in a key the
    # checks do not read: orjson parses it, and the document loads
    path, text, *_ = _saved_model(tmp_path, "hard")
    expected = _outcome(path)
    path.write_text(text[:-2] + ',"extra":' + "[" * 5000 + "]" * 5000 + "}\n")
    assert _outcome(path) == expected
    monkeypatch.setattr(orjson, "loads", _refuse)
    assert _outcome(path)[0] is RecursionError
