import re

import numpy as np
import pytest

from orthomask.dataio import ExpressionDataset
from orthomask.errors import InvalidStateError, NumericalError
from orthomask.modelio import model_document
from orthomask.netcore import (
    ACT_IDENTITY,
    ACTIVATIONS,
    MODES,
    FeedforwardNetwork,
    Layer,
    MaskedLinearLayer,
    loss_cross_entropy_batch,
    loss_mse_batch,
)
from orthomask.orthograph import BiadjacencyMatrix
from orthomask.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    FULL_BATCH,
    TrainConfig,
    constant_loss,
    evaluate,
    initialize_conversion_layer,
    regularization_grad,
    regularization_penalty,
    train_base,
    train_conversion,
    write_report_tsv,
    _Adam,
)

from _helpers import dense_conversion_grad, fd_gradient, random_mask, random_network, rel_err


def one_gene_dataset(x, y):
    return ExpressionDataset("sp", ["g1"], ["s1"], [[x]], np.array([[y]]))


def identity_net(weight, bias=0.0, frozen=False):
    return FeedforwardNetwork([Layer([[weight]], [bias], ACT_IDENTITY)], frozen=frozen)


def single_edge_layer(weight=1.0):
    mask = BiadjacencyMatrix(["t1"], ["g1"], [(0, 0)])
    return MaskedLinearLayer(mask, "hard", [weight])


def support_mask(support):
    """The graph whose edges are the nonzero entries of a 2-D array."""
    n_t, n_s = np.shape(support)
    rows, cols = np.nonzero(support)
    return BiadjacencyMatrix(
        [f"t{i}" for i in range(n_t)], [f"s{j}" for j in range(n_s)], np.column_stack((rows, cols))
    )


class TestRegularization:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(1)
        w = rng.normal(0, 1, (3, 4))
        b = support_mask(rng.uniform(0, 1, (3, 4)) < 0.5)
        assert regularization_penalty(w, b, 0.0, 0.0) == 0.0
        assert not regularization_grad(w, b, 0.0, 0.0).any()

    def test_hand_value(self):
        w = np.array([[1.0, 2.0]])
        b = support_mask([[1.0, 0.0]])
        assert regularization_penalty(w, b, 0.5, 0.1) == pytest.approx(2.1, abs=1e-15)
        assert np.allclose(regularization_grad(w, b, 0.5, 0.1), [[0.2, 2.0]], atol=1e-15)

    def test_full_support_ignores_alpha(self):
        w = np.array([[3.0, -2.0]])
        b = support_mask(np.ones((1, 2)))
        assert regularization_penalty(w, b, 7.0, 0.0) == 0.0
        assert not regularization_grad(w, b, 7.0, 0.0).any()

    def test_accepts_biadjacency(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0)])
        w = np.array([[1.0, 2.0]])
        assert regularization_penalty(w, mask, 0.5, 0.1) == pytest.approx(2.1, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            regularization_penalty(np.ones((2, 2)), support_mask(np.ones((2, 3))), 1.0, 0.0)
        with pytest.raises(ValueError):
            regularization_grad(np.ones((2, 2)), support_mask(np.ones((2, 3))), 1.0, 0.0)

    def test_graph_support_matches_dense_formula(self):
        rng = np.random.default_rng(5)
        densities = [0.0, 1.0] + [0.4] * 28
        for density in densities:
            n_t, n_s = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            graph = random_mask(rng, n_t, n_s, density)
            b = np.zeros((n_t, n_s))
            b[graph.edge_rows, graph.edge_cols] = 1.0
            w = rng.normal(0, 2, (n_t, n_s))
            alpha, beta = rng.uniform(0, 3), rng.uniform(0, 3)
            expected = 2 * (alpha * (1 - b) + beta * b) * w
            assert np.array_equal(regularization_grad(w, graph, alpha, beta), expected)
            penalty = alpha * ((1 - b) * w * w).sum() + beta * (b * w * w).sum()
            assert regularization_penalty(w, graph, alpha, beta) == pytest.approx(penalty, rel=1e-14)
            assert regularization_penalty(w, graph, alpha, 0.0) == alpha * ((1 - b) * w * w).sum()

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            w = rng.normal(0, 2, shape)
            b = support_mask(rng.uniform(0, 1, shape) < 0.5)
            alpha, beta = rng.uniform(0, 3), rng.uniform(0, 3)
            grad = regularization_grad(w, b, alpha, beta)
            fd = fd_gradient(
                lambda v: regularization_penalty(v.reshape(shape), b, alpha, beta), w
            ).reshape(shape)
            assert np.max(rel_err(grad, fd)) <= 1e-6


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.batch_size == FULL_BATCH

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"steps": 0},
            {"batch_size": 0},
            {"alpha": -0.5},
            {"beta": float("nan")},
            {"seed": -1},
            {"optimizer": "lbfgs"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    # each of these used to pass construction and fail, or run, later
    @pytest.mark.parametrize(
        "name, value", [("steps", 2.5), ("batch_size", 2.5), ("seed", 1.5), ("steps", True)]
    )
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            TrainConfig(**{name: value})

    def test_accepts_numpy_integers(self):
        cfg = TrainConfig(steps=np.int32(3), batch_size=np.int64(2), seed=np.uint64(2**64 - 1))
        assert (cfg.steps, cfg.batch_size, cfg.seed) == (3, 2, 2**64 - 1)
        assert all(type(v) is int for v in (cfg.steps, cfg.batch_size, cfg.seed))

    # a bool used to construct as 1.0; a str or None failed later with a TypeError
    @pytest.mark.parametrize("value", [True, "0.1", None])
    @pytest.mark.parametrize("name", ["learning_rate", "alpha", "beta"])
    def test_rejects_non_real_rates(self, name, value):
        message = f"^{name} must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_learning_rate_message(self, value):
        message = f"^learning_rate must be finite and > 0, got {re.escape(str(value))}$"
        with pytest.raises(ValueError, match=message):
            TrainConfig(learning_rate=value)

    def test_rejects_bool_rate_and_alpha(self):
        with pytest.raises(ValueError, match="^learning_rate must be a real number, got True$"):
            TrainConfig(learning_rate=True, alpha=True)

    def test_accepts_numpy_reals(self):
        cfg = TrainConfig(learning_rate=np.float32(0.1), alpha=np.int64(2), beta=0)
        assert (cfg.learning_rate, cfg.alpha, cfg.beta) == (float(np.float32(0.1)), 2.0, 0.0)
        assert all(type(v) is float for v in (cfg.learning_rate, cfg.alpha, cfg.beta))


class TestTrainBase:
    def test_sgd_hand_step(self):
        net = identity_net(0.0, 0.0)
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.5, steps=1, seed=0)
        trained, report = train_base(net, one_gene_dataset(1.0, 1.0), cfg)
        assert trained.layers[0].weights.tolist() == [[1.0]]
        assert trained.layers[0].bias.tolist() == [1.0]
        assert report.losses == [1.0]

    def test_zero_gradient_leaves_params(self):
        net = identity_net(2.0, -1.0)
        data = one_gene_dataset(3.0, 5.0)  # prediction 2*3-1 = 5 = label
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.7, steps=5, seed=0)
        trained, report = train_base(net, data, cfg)
        assert np.array_equal(trained.layers[0].weights, net.layers[0].weights)
        assert np.array_equal(trained.layers[0].bias, net.layers[0].bias)
        assert report.losses == [0.0] * 5

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        data = ExpressionDataset(
            "sp",
            [f"g{i}" for i in range(4)],
            [f"s{i}" for i in range(20)],
            rng.normal(0, 1, (20, 4)),
            rng.normal(0, 1, (20, 1)),
        )
        from _helpers import random_network

        net = random_network(rng, [4, 3, 1])
        cfg = TrainConfig(steps=40, batch_size=8, seed=123)
        a, ra = train_base(net, data, cfg)
        b, rb = train_base(net, data, cfg)
        assert model_document(a) == model_document(b)
        assert ra.losses == rb.losses

    def test_frozen_rejected(self):
        with pytest.raises(InvalidStateError):
            train_base(identity_net(0.0, frozen=True), one_gene_dataset(1.0, 1.0), TrainConfig())

    def test_dimension_mismatch(self):
        net = FeedforwardNetwork([Layer([[1.0, 0.0]], [0.0], ACT_IDENTITY)])
        with pytest.raises(ValueError):
            train_base(net, one_gene_dataset(1.0, 1.0), TrainConfig())

    def test_cross_entropy_training(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(0, 1, (30, 3))
        labels = (xs[:, 0] > 0).astype(np.int64)
        data = ExpressionDataset(
            "sp", ["g0", "g1", "g2"], [f"s{i}" for i in range(30)], xs, labels
        )
        from _helpers import random_network

        net = random_network(rng, [3, 4, 2], activations=["relu", "identity"])
        cfg = TrainConfig(steps=200, learning_rate=0.05, seed=1)
        trained, report = train_base(net, data, cfg)
        assert report.losses[-1] < report.losses[0]

    def test_non_finite_loss_raises(self):
        net = identity_net(1.0)
        cfg = TrainConfig(optimizer="sgd", learning_rate=1e200, steps=5, seed=0)
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            train_base(net, one_gene_dataset(2.0, 0.0), cfg)


class TestTrainConversion:
    def test_sgd_hand_step(self):
        layer = single_edge_layer(1.0)
        net = identity_net(1.0, frozen=True)
        data = one_gene_dataset(2.0, 0.0)
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.1, steps=1, seed=0)
        trained, report = train_conversion(layer, net, data, cfg)
        # L = (2w)^2, dL/dw = 8w = 8 at w=1, update 1 - 0.1*8
        assert trained.weights.tolist() == [pytest.approx(0.2, abs=1e-15)]
        assert report.losses == [4.0]

    def test_perfect_predictions_leave_weights(self):
        layer = single_edge_layer(1.0)
        net = identity_net(1.0, frozen=True)
        data = one_gene_dataset(2.0, 2.0)
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.5, steps=10, seed=0)
        trained, _ = train_conversion(layer, net, data, cfg)
        assert np.array_equal(trained.weights, layer.weights)

    def test_unfrozen_net_rejected(self):
        with pytest.raises(InvalidStateError):
            train_conversion(
                single_edge_layer(), identity_net(1.0), one_gene_dataset(1.0, 0.0), TrainConfig()
            )

    def test_network_width_must_match_the_targets(self):
        net = FeedforwardNetwork([Layer([[1.0, 1.0]], [0.0], ACT_IDENTITY)], frozen=True)
        with pytest.raises(ValueError, match="^network input dim 2 does not match conversion output dim 1$"):
            train_conversion(single_edge_layer(), net, one_gene_dataset(1.0, 0.0), TrainConfig())

    def test_labels_wider_than_the_output(self):
        data = ExpressionDataset("sp", ["g1"], ["s1"], [[1.0]], np.array([[1.0, 2.0]]))
        net = identity_net(1.0, frozen=True)
        with pytest.raises(ValueError, match=r"^labels of shape \(1, 2\) do not match output dim 1$"):
            train_conversion(single_edge_layer(), net, data, TrainConfig())

    def test_frozen_net_untouched_and_mask_respected(self):
        rng = np.random.default_rng(5)
        mask = random_mask(rng, 4, 6, 0.4, force_edge=True)
        layer = initialize_conversion_layer(mask, "hard")
        from _helpers import random_network

        net = random_network(rng, [4, 3, 1], frozen=True)
        data = ExpressionDataset(
            "sp",
            mask.source_gene_ids,
            [f"s{i}" for i in range(25)],
            rng.normal(0, 1, (25, 6)),
            rng.normal(0, 1, (25, 1)),
        )
        before = model_document(net)
        trained, _ = train_conversion(layer, net, data, TrainConfig(steps=50, seed=7))
        assert model_document(net) == before
        dense = trained.to_dense()
        off = np.ones((4, 6), dtype=bool)
        off[mask.edge_rows, mask.edge_cols] = False
        assert not dense[off].any()

    def test_soft_decay_closed_form(self):
        rng = np.random.default_rng(6)
        mask = random_mask(rng, 3, 4, 0.4, force_edge=True)
        w0 = rng.normal(0, 1, (3, 4))
        layer = MaskedLinearLayer(mask, "soft", w0)
        # zero-weight head: base loss gradient is exactly zero everywhere
        net = FeedforwardNetwork([Layer(np.zeros((1, 3)), np.zeros(1), ACT_IDENTITY)], frozen=True)
        data = ExpressionDataset(
            "sp",
            mask.source_gene_ids,
            [f"s{i}" for i in range(5)],
            rng.normal(0, 1, (5, 4)),
            np.zeros((5, 1)),
        )
        eta, alpha, steps = 0.01, 1.0, 20
        cfg = TrainConfig(
            optimizer="sgd", learning_rate=eta, alpha=alpha, beta=0.0, steps=steps, seed=0
        )
        trained, _ = train_conversion(layer, net, data, cfg)
        on = np.zeros((3, 4), dtype=bool)
        on[mask.edge_rows, mask.edge_cols] = True
        expected_off = w0[~on] * (1.0 - 2.0 * eta * alpha) ** steps
        assert np.max(np.abs(trained.weights[~on] - expected_off) / np.abs(expected_off)) <= 1e-12
        assert np.array_equal(trained.weights[on], w0[on])

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        mask = random_mask(rng, 3, 5, 0.5, force_edge=True)
        from _helpers import random_network

        net = random_network(rng, [3, 2, 1], frozen=True)
        data = ExpressionDataset(
            "sp",
            mask.source_gene_ids,
            [f"s{i}" for i in range(12)],
            rng.normal(0, 1, (12, 5)),
            rng.normal(0, 1, (12, 1)),
        )
        draws = np.random.default_rng(9).uniform(-1.0, 1.0, mask.n_edges)
        layer = MaskedLinearLayer(mask, "hard", draws)
        cfg = TrainConfig(steps=30, batch_size=5, seed=42)
        a, ra = train_conversion(layer, net, data, cfg)
        b, rb = train_conversion(layer, net, data, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert ra.losses == rb.losses
        assert ra.final_eval == rb.final_eval

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    @pytest.mark.parametrize("loss_kind", ["mse", "ce"])
    def test_step_matches_dense_reference(self, mode, loss_kind):
        # one unregularized SGD step applies exactly the dense-reference
        # gradient, over random graphs that include the degenerate shapes
        rng = np.random.default_rng(31 + 2 * MODES.index(mode) + ("mse", "ce").index(loss_kind))
        seen = set()
        for trial in range(60):
            n_t, n_s = int(rng.integers(1, 7)), int(rng.integers(1, 8))
            mask = random_mask(rng, n_t, n_s, (0.0, 0.15, 0.5)[trial % 3])
            n = 1 if trial % 4 == 0 else int(rng.integers(2, 9))
            hidden = [int(rng.integers(1, 5)) for _ in range(trial % 3)]
            out_dim = int(rng.integers(2, 5)) if loss_kind == "ce" else int(rng.integers(1, 3))
            acts = [ACTIVATIONS[(trial + k) % len(ACTIVATIONS)] for k in range(len(hidden))] + [ACT_IDENTITY]
            net = random_network(rng, [n_t, *hidden, out_dim], frozen=True, activations=acts)
            if loss_kind == "ce":
                labels = rng.integers(0, out_dim, n).astype(np.int64)
            else:
                labels = rng.normal(0.0, 1.0, (n, out_dim))
            data = ExpressionDataset(
                "sp", mask.source_gene_ids, [f"s{i}" for i in range(n)],
                rng.normal(0.0, 1.0, (n, n_s)), labels,
            )
            shape = (mask.n_edges,) if mode == "hard" else (n_t, n_s)
            layer = MaskedLinearLayer(mask, mode, rng.normal(0.0, 1.0, shape))
            cfg = TrainConfig(
                optimizer="sgd", learning_rate=1.0, steps=1, alpha=0.0, beta=0.0,
                batch_size=int(rng.integers(n, 2 * n + 3)), seed=trial,
            )
            before = model_document(net)
            trained, _ = train_conversion(layer, net, data, cfg)
            grad = dense_conversion_grad(layer, net, data.samples, labels, loss_kind)
            assert np.max(rel_err(trained.weights, layer.weights - grad), initial=0.0) <= 1e-10
            assert model_document(net) == before

            cases = {
                "no edges": mask.n_edges == 0,
                "empty target row": mask.n_edges > 0 and (mask.row_degrees() == 0).any(),
                "unused source": 0 < np.unique(mask.edge_cols).size < n_s,
                "one sample": n == 1,
                "batch beyond samples": cfg.batch_size > n,
                "one layer": not hidden,
                **{act: act in acts[:-1] for act in ACTIVATIONS},
            }
            seen.update(name for name, hit in cases.items() if hit)
        assert seen == set(cases), set(cases) - seen


class TestInitialization:
    def test_row_uniform_averages(self):
        mask = BiadjacencyMatrix(["t1", "t2"], ["s1", "s2", "s3"], [(0, 0), (0, 2), (1, 1)])
        layer = initialize_conversion_layer(mask, "hard")
        assert layer.weights.tolist() == [0.5, 0.5, 1.0]

    def test_row_uniform_identity_for_one_to_one(self):
        mask = BiadjacencyMatrix(["t1", "t2"], ["s1", "s2"], [(0, 0), (1, 1)])
        layer = initialize_conversion_layer(mask, "hard")
        xs = np.array([[3.0, -2.0]])
        from orthomask.netcore import forward_conversion_batch

        assert np.array_equal(forward_conversion_batch(layer, xs), xs)

    def test_soft_init_zero_off_support(self):
        rng = np.random.default_rng(11)
        mask = random_mask(rng, 4, 5, 0.4, force_edge=True)
        layer = initialize_conversion_layer(mask, "soft")
        off = np.ones((4, 5), dtype=bool)
        off[mask.edge_rows, mask.edge_cols] = False
        assert not layer.weights[off].any()

    def test_warm_start(self):
        mask = BiadjacencyMatrix(["t1", "t2"], ["s1", "s2", "s3"], [(0, 0), (0, 2), (1, 1)])
        hard = MaskedLinearLayer(mask, "hard", [0.3, -0.2, 0.7])
        assert initialize_conversion_layer(mask, "hard", hard) is hard
        soft = initialize_conversion_layer(mask, "soft", hard)
        assert soft.mode == "soft"
        assert np.array_equal(soft.weights, hard.to_dense())
        assert initialize_conversion_layer(mask, "soft", soft) is soft

    def test_refusals(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0)])
        other = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 1)])
        for mode, warm, message in [
            ("loose", None, "mode must be one of"),
            ("hard", initialize_conversion_layer(other, "hard"),
             "saved conversion layer does not match the supplied graph"),
            ("hard", initialize_conversion_layer(mask, "soft"),
             "cannot warm-start a hard layer from a soft one"),
        ]:
            with pytest.raises(ValueError, match=message):
                initialize_conversion_layer(mask, mode, warm)


class TestAdam:
    def test_in_place_step_is_bitwise_textbook(self):
        rng = np.random.default_rng(41)
        params = [rng.normal(0, 1, 7), rng.normal(0, 1, (3, 4))]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        lr = 0.03
        opt = _Adam(params, lr)
        for t in range(1, 8):
            # raw normals, an exact zero and widely spread magnitudes
            grads = [rng.normal(0, 1, p.shape) * 10.0 ** rng.integers(-6, 4, p.shape) for p in params]
            grads[0][0] = 0.0
            kept = [g.copy() for g in grads]
            opt.step(grads)
            for i, g in enumerate(kept):
                m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
                v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * (g * g)
                m_hat = m[i] / (1.0 - ADAM_BETA1**t)
                v_hat = v[i] / (1.0 - ADAM_BETA2**t)
                ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                assert np.array_equal(params[i], ref[i])
                assert np.array_equal(grads[i], g)
        assert opt.params[0] is params[0] and opt.params[1] is params[1]


class TestEvaluate:
    def test_perfect_predictor(self):
        net = identity_net(1.0, frozen=True)
        assert evaluate(net, single_edge_layer(1.0), one_gene_dataset(2.0, 2.0)) == 0.0

    def test_hand_value(self):
        net = identity_net(1.0, frozen=True)
        value = evaluate(net, single_edge_layer(0.2), one_gene_dataset(2.0, 0.0))
        assert value == pytest.approx(0.16, abs=1e-15)

    def test_pure(self):
        net = identity_net(1.0, frozen=True)
        layer = single_edge_layer(0.7)
        data = one_gene_dataset(2.0, 1.0)
        assert evaluate(net, layer, data) == evaluate(net, layer, data)

    def test_empty_dataset_rejected(self):
        net = identity_net(1.0, frozen=True)
        empty = ExpressionDataset("sp", ["g1"], [], np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(ValueError, match="^dataset is empty$"):
            evaluate(net, single_edge_layer(), empty)

    @pytest.mark.parametrize(
        "layer, reader", [(None, "network"), (single_edge_layer(), "conversion layer")]
    )
    def test_wrong_gene_count_named(self, layer, reader):
        data = ExpressionDataset("sp", ["g1", "g2"], ["s1"], [[1.0, 2.0]], np.array([[1.0]]))
        with pytest.raises(ValueError, match=f"^dataset has 2 genes but {reader} expects 1$"):
            evaluate(identity_net(1.0, frozen=True), layer, data)

    def test_labels_wider_than_the_output(self):
        data = ExpressionDataset("sp", ["g1"], ["s1"], [[1.0]], np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match=r"^labels of shape \(1, 2\) do not match output dim 1$"):
            evaluate(identity_net(1.0, frozen=True), single_edge_layer(), data)

    def test_without_layer(self):
        net = identity_net(2.0, frozen=True)
        assert evaluate(net, None, one_gene_dataset(3.0, 6.0)) == 0.0

    def test_non_finite_loss_raises(self):
        net = identity_net(1e200, frozen=True)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite evaluation loss"):
            evaluate(net, single_edge_layer(1e200), one_gene_dataset(1e200, 0.0))

    def test_unlabelled_dataset_rejected(self):
        data = ExpressionDataset("sp", ["g1"], ["s1"], [[1.0]])
        with pytest.raises(ValueError, match="^dataset has no labels$"):
            evaluate(identity_net(1.0, frozen=True), single_edge_layer(), data)


class TestConstantLoss:
    """The best constant prediction's loss: the label means for real labels,
    the log class frequencies as logits for class indices."""

    def test_regression(self):
        labels = np.random.default_rng(3).normal(2.0, 1.5, (40, 2))
        best = labels.mean(axis=0)
        value = constant_loss(labels)
        assert value == pytest.approx(np.mean((labels - best) ** 2), rel=1e-15)
        assert value == pytest.approx(loss_mse_batch(np.tile(best, (40, 1)), labels)[0], rel=1e-15)
        for shift in ([0.01, 0.0], [0.0, -0.01]):
            assert loss_mse_batch(np.tile(best + shift, (40, 1)), labels)[0] > value

    def test_classification(self):
        # classes 0, 2 and 3 of four logits; class 1 never occurs
        labels = np.array([0, 2, 2, 3, 3, 3, 0, 3])
        freqs = np.array([2, 0, 2, 4]) / 8
        value = constant_loss(labels)
        assert value == pytest.approx(-sum(f * np.log(f) for f in freqs if f), rel=1e-15)
        logits = np.log(np.maximum(freqs, 1e-300))
        assert value == pytest.approx(loss_cross_entropy_batch(np.tile(logits, (8, 1)), labels)[0],
                                      rel=1e-12)
        assert constant_loss(np.zeros(5, dtype=np.int64)) == 0.0


class TestReportTsv:
    def test_format(self, tmp_path):
        from orthomask.training import TrainReport

        report = TrainReport(losses=[0.5, 0.25], final_eval=0.125)
        path = tmp_path / "report.tsv"
        write_report_tsv(report, path)
        assert path.read_text() == "step\tloss\n1\t0.5\n2\t0.25\n# final_eval\t0.125\n"
