import json

import numpy as np
import pytest

from orthomask.errors import ParseError
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


def test_malformed_documents(tmp_path):
    path = tmp_path / "bad.json"

    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_model(path)

    path.write_text('{"network": {"frozen": true, "layers": []}, "conversion": null}')
    with pytest.raises(ParseError):
        load_model(path)

    path.write_text(
        '{"network": {"frozen": true, "layers": ['
        '{"rows": 1, "cols": 2, "weights": [1.0], "bias": [0.0], "activation": "identity"}'
        ']}, "conversion": null}'
    )
    with pytest.raises(ParseError):
        load_model(path)

    path.write_text(
        '{"network": {"frozen": true, "layers": ['
        '{"rows": 1, "cols": 1, "weights": [1.0], "bias": [0.0], "activation": "tanh"}'
        ']}, "conversion": null}'
    )
    with pytest.raises(ParseError):
        load_model(path)

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
        path.write_text(network + ' "conversion": ' + conversion + "}")
        with pytest.raises(ParseError):
            load_model(path)

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
        path.write_text('{"network": {' + bad_network + '}, "conversion": null}')
        with pytest.raises(ParseError):
            load_model(path)
    for conversion in (
        '{"mode": "hard", ' + genes + ', "edges": [[0, 0, "2.5"], [1, 1, true]]}',
        '{"mode": "hard", ' + genes + ', "edges": [[0, 0, 2.5], [1, 1, true]]}',
        '{"mode": "soft", ' + genes + ', "edges": [[0, 1]], "weights": [0.0, "1.0", 0.0, 0.0]}',
        '{"mode": "hard", "target_gene_ids": [1, "t2"], "source_gene_ids": ["s1", "s2"],'
        ' "edges": [[0, 0, 1.0]]}',
        '{"mode": "hard", "target_gene_ids": ["t1", "t2"], "source_gene_ids": ["s1", null],'
        ' "edges": [[0, 0, 1.0]]}',
    ):
        path.write_text(network + ' "conversion": ' + conversion + "}")
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
