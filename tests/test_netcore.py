import math
import re

import numpy as np
import pytest

from orthomask.dataio import ExpressionDataset
from orthomask.modelio import model_document
from orthomask.netcore import (
    _ACTIVATIONS,
    ACT_IDENTITY,
    ACT_RELU,
    ACT_SIGMOID,
    ACTIVATIONS,
    FeedforwardNetwork,
    Layer,
    MaskedLinearLayer,
    fold_conversion,
    fold_conversion_grad,
    forward_conversion_batch,
    loss_cross_entropy_batch,
    loss_mse_batch,
    mlp_backward_batch,
    mlp_forward_batch,
)
from orthomask.orthograph import BiadjacencyMatrix
from orthomask.training import TrainConfig, initialize_conversion_layer, train_base, train_conversion

from _helpers import fd_gradient, random_mask, random_network, rel_err


def identity_mask(n):
    return BiadjacencyMatrix(
        [f"t{i}" for i in range(n)], [f"s{i}" for i in range(n)], [(i, i) for i in range(n)]
    )


class TestForwardConversion:
    def test_identity_mapping(self):
        layer = MaskedLinearLayer(identity_mask(3), "hard", np.ones(3))
        assert forward_conversion_batch(layer, [[1.0, 2.0, 3.0]]).tolist() == [[1.0, 2.0, 3.0]]

    def test_empty_mask_gives_zeros(self):
        mask = BiadjacencyMatrix(["t1", "t2"], ["s1", "s2"], [])
        layer = MaskedLinearLayer(mask, "hard", np.zeros(0))
        assert forward_conversion_batch(layer, [[5.0, -1.0]]).tolist() == [[0.0, 0.0]]

    def test_weighted_sum(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0), (0, 1)])
        layer = MaskedLinearLayer(mask, "hard", [0.5, 2.0])
        # 0.5*4 + 2.0*1
        assert forward_conversion_batch(layer, [[4.0, 1.0]]).tolist() == [[4.0]]

    def test_dimension_mismatch(self):
        layer = MaskedLinearLayer(identity_mask(3), "hard", np.ones(3))
        with pytest.raises(ValueError):
            forward_conversion_batch(layer, [[1.0, 2.0]])
        with pytest.raises(ValueError):
            forward_conversion_batch(layer, [1.0, 2.0, 3.0])

    def test_soft_ignores_mask(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0)])
        layer = MaskedLinearLayer(mask, "soft", [[1.0, 10.0]])
        # off-support weight participates in soft mode
        assert forward_conversion_batch(layer, [[1.0, 1.0]]).tolist() == [[11.0]]

    def test_permutation_conservation(self):
        rng = np.random.default_rng(7)
        n = 6
        perm = rng.permutation(n)
        mask = BiadjacencyMatrix(
            [f"t{i}" for i in range(n)],
            [f"s{i}" for i in range(n)],
            [(i, int(perm[i])) for i in range(n)],
        )
        layer = MaskedLinearLayer(mask, "hard", np.ones(n))
        xs = rng.normal(0.0, 1.0, (3, n))
        assert np.array_equal(forward_conversion_batch(layer, xs), xs[:, perm])

    def test_linearity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            mask = random_mask(rng, 5, 7)
            layer = MaskedLinearLayer(mask, "hard", rng.normal(0, 1, mask.n_edges))
            x, z = rng.normal(0, 1, (1, 7)), rng.normal(0, 1, (1, 7))
            a, b = rng.normal(), rng.normal()
            lhs = forward_conversion_batch(layer, a * x + b * z)
            rhs = a * forward_conversion_batch(layer, x) + b * forward_conversion_batch(layer, z)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dense_equivalence(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n_t, n_s = rng.integers(1, 33), rng.integers(1, 33)
            mask = random_mask(rng, n_t, n_s, 0.3)
            layer = MaskedLinearLayer(mask, "hard", rng.normal(0, 1, mask.n_edges))
            xs = rng.normal(0, 1, (3, n_s))
            # hand-built dense (W o B) x, independent of the CSR path
            dense = np.zeros((n_t, n_s))
            for e in range(mask.n_edges):
                dense[mask.edge_rows[e], mask.edge_cols[e]] = layer.weights[e]
            assert np.max(np.abs(forward_conversion_batch(layer, xs) - xs @ dense.T)) <= 1e-12

    def test_mask_zeroing(self):
        rng = np.random.default_rng(10)
        mask = random_mask(rng, 6, 8, 0.3)
        layer = MaskedLinearLayer(mask, "hard", rng.normal(0, 1, mask.n_edges))
        dense = layer.to_dense()
        off = np.ones((6, 8), dtype=bool)
        off[mask.edge_rows, mask.edge_cols] = False
        assert not dense[off].any()


class TestBackwardConversion:
    """The layer's backward pass in training: the gradient w.r.t. its
    weights from the gradient ``G`` w.r.t. the folded first-layer weights
    ``M = W1 @ C``."""

    def test_zero_upstream(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0)])
        layer = MaskedLinearLayer(mask, "hard", [1.5])
        grad_w = fold_conversion_grad(layer, np.array([[2.0]]), np.zeros((1, 2)))
        assert grad_w.shape == (1,) and not grad_w.any()

    def test_support_only_gradient(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0)])
        layer = MaskedLinearLayer(mask, "hard", [1.0])
        grad_w = fold_conversion_grad(layer, np.array([[1.0]]), np.array([[4.0, 1.0]]))
        assert grad_w.shape == (1,)  # no slot exists for the masked-off pair
        assert grad_w.tolist() == [4.0]

    def test_soft_outer_product(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0)])
        layer = MaskedLinearLayer(mask, "soft", [[1.0, 1.0]])
        grad_w = fold_conversion_grad(layer, np.array([[2.0]]), np.array([[3.0, 5.0]]))
        assert grad_w.tolist() == [[6.0, 10.0]]

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(12)
        for _ in range(10):
            mask = random_mask(rng, 4, 6, 0.5, force_edge=True)
            shape = (mask.n_edges,) if mode == "hard" else (4, 6)
            w0 = rng.normal(0, 1, shape)
            first = rng.normal(0, 1, (3, 4))
            upstream = rng.normal(0, 1, (3, 6))

            def scalar_loss(w):
                layer = MaskedLinearLayer(mask, mode, w.reshape(shape))
                return float((fold_conversion(layer, first) * upstream).sum())

            layer = MaskedLinearLayer(mask, mode, w0)
            assert np.max(np.abs(fold_conversion(layer, first) - first @ layer.to_dense())) <= 1e-12
            grad_w = fold_conversion_grad(layer, first, upstream)
            assert np.max(rel_err(grad_w, fd_gradient(scalar_loss, w0).reshape(shape))) <= 1e-6


class TestFoldShapes:
    """The fold checks its operands' shapes in both modes; hard mode's edge
    gather would otherwise ignore extra first-layer columns."""

    @staticmethod
    def layer(mode):
        mask = BiadjacencyMatrix(["t1", "t2"], ["s1", "s2"], [(0, 0), (1, 0), (1, 1)])
        weights = [1.0, 1.0, 1.0] if mode == "hard" else [[1.0, 0.0], [1.0, 1.0]]
        return MaskedLinearLayer(mask, mode, weights)

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_fold_rejects_wrong_first_layer_width(self, mode):
        layer = self.layer(mode)
        assert fold_conversion(layer, np.ones((1, 2))).tolist() == [[2.0, 1.0]]
        for width in (1, 3):
            with pytest.raises(ValueError, match="do not match conversion output dim 2"):
                fold_conversion(layer, np.ones((1, width)))

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_fold_grad_rejects_wrong_shapes(self, mode):
        layer = self.layer(mode)
        assert np.array_equal(
            fold_conversion_grad(layer, np.ones((1, 2)), np.ones((1, 2))),
            [1.0, 1.0, 1.0] if mode == "hard" else np.ones((2, 2)),
        )
        for shape in ((1, 5), (1, 1), (2, 2)):
            with pytest.raises(ValueError, match=r"folded gradient of shape .* does not match \(1, 2\)"):
                fold_conversion_grad(layer, np.ones((1, 2)), np.ones(shape))
        with pytest.raises(ValueError, match="do not match conversion output dim 2"):
            fold_conversion_grad(layer, np.ones((1, 3)), np.ones((1, 2)))


class TestLayerValidation:
    def test_weight_count_must_match_support(self):
        mask = BiadjacencyMatrix(["t1"], ["s1", "s2"], [(0, 0)])
        with pytest.raises(ValueError):
            MaskedLinearLayer(mask, "hard", [1.0, 2.0])
        with pytest.raises(ValueError):
            MaskedLinearLayer(mask, "soft", [1.0])

    def test_non_finite_rejected(self):
        mask = BiadjacencyMatrix(["t1"], ["s1"], [(0, 0)])
        with pytest.raises(ValueError):
            MaskedLinearLayer(mask, "hard", [np.inf])

    def test_unknown_mode(self):
        mask = BiadjacencyMatrix(["t1"], ["s1"], [(0, 0)])
        with pytest.raises(ValueError):
            MaskedLinearLayer(mask, "fuzzy", [1.0])


class TestCopyRule:
    """A constructor keeps a C-ordered float64 array it is given and copies
    anything else into one; ``copy()`` is the one deep copy."""

    def test_c_ordered_float64_is_kept(self):
        rng = np.random.default_rng(3)
        weights, bias = rng.normal(size=(2, 3)), rng.normal(size=2)
        layer = Layer(weights, bias, ACT_RELU)
        assert np.shares_memory(layer.weights, weights)
        assert np.shares_memory(layer.bias, bias)
        net = FeedforwardNetwork([layer])
        assert net.layers[0] is not layer
        assert np.shares_memory(net.layers[0].weights, weights)
        mask = random_mask(rng, 2, 3, force_edge=True)
        hard = rng.normal(size=mask.n_edges)
        assert np.shares_memory(MaskedLinearLayer(mask, "hard", hard).weights, hard)
        assert np.shares_memory(MaskedLinearLayer(mask, "soft", weights).weights, weights)

    @pytest.mark.parametrize("form", ["fortran", "float32", "int", "nested list"])
    def test_other_inputs_become_c_ordered_float64_copies(self, form):
        values = np.arange(6.0).reshape(2, 3)
        given = {
            "fortran": np.asfortranarray(values),
            "float32": values.astype(np.float32),
            "int": values.astype(np.int64),
            "nested list": values.tolist(),
        }[form]
        mask = BiadjacencyMatrix(["t0", "t1"], ["s0", "s1", "s2"], [(0, 0)])
        kept = [Layer(given, [0.0, 0.0], ACT_IDENTITY).weights,
                MaskedLinearLayer(mask, "soft", given).weights]
        for weights in kept:
            assert weights.dtype == np.float64 and weights.flags.c_contiguous
            assert not np.shares_memory(weights, np.asarray(given))
            assert np.array_equal(weights, values)

    def test_zero_d_bias_refused(self):
        with pytest.raises(ValueError, match=re.escape("bias shape () does not match 1 outputs")):
            Layer([[1.0]], 0.0, ACT_IDENTITY)
        with pytest.raises(ValueError, match=re.escape("bias shape () does not match 1 outputs")):
            Layer([[1.0]], np.float64(0.0), ACT_IDENTITY)

    def test_copy_shares_no_array(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, [4, 3, 2], frozen=True)
        copied = net.copy()
        assert copied.frozen is True
        for ours, theirs in zip(copied.layers, net.layers):
            assert not np.shares_memory(ours.weights, theirs.weights)
            assert not np.shares_memory(ours.bias, theirs.bias)
            assert np.array_equal(ours.weights, theirs.weights)
            assert np.array_equal(ours.bias, theirs.bias)
        mask = random_mask(rng, 3, 4, force_edge=True)
        for layer in (MaskedLinearLayer(mask, "hard", rng.normal(size=mask.n_edges)),
                      MaskedLinearLayer(mask, "soft", rng.normal(size=(3, 4)))):
            copied = layer.copy()
            # the mask is never written, so the copy reads the same one
            assert copied.mask is mask and copied.mode == layer.mode
            assert not np.shares_memory(copied.weights, layer.weights)
            assert np.array_equal(copied.weights, layer.weights)

    @pytest.mark.parametrize("frozen", ["no", 1, np.True_], ids=["no", "1", "np.True_"])
    def test_frozen_must_be_a_bool(self, frozen):
        net = FeedforwardNetwork([Layer([[1.0]], [0.0], ACT_IDENTITY)])
        message = f"frozen must be True or False, got {frozen!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            FeedforwardNetwork(net.layers, frozen)


class TestTrainersLeaveTheirInputs:
    def _data(self, rng, n_genes):
        return ExpressionDataset(
            "sp", [f"s{j}" for j in range(n_genes)], [f"x{i}" for i in range(12)],
            rng.normal(size=(12, n_genes)), rng.normal(size=(12, 1)),
        )

    def test_train_base(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, [4, 3, 1])
        before = model_document(net)
        trained, _ = train_base(net, self._data(rng, 4), TrainConfig(steps=5, seed=1))
        assert model_document(net) == before != model_document(trained)

    @pytest.mark.parametrize("start, mode", [("hard", "hard"), ("soft", "soft"), ("hard", "soft")])
    def test_train_conversion(self, start, mode):
        rng = np.random.default_rng(9)
        mask = random_mask(rng, 3, 4, force_edge=True)
        net = random_network(rng, [3, 2, 1], frozen=True)
        layer = initialize_conversion_layer(mask, start)
        before = layer.weights.copy()
        warm = initialize_conversion_layer(mask, mode, warm=layer)
        trained, _ = train_conversion(warm, net, self._data(rng, 4), TrainConfig(steps=5, seed=1))
        assert layer.mode == start
        assert layer.weights.tobytes() == before.tobytes()
        assert not np.array_equal(trained.to_dense(), layer.to_dense())


class TestMlpForward:
    def test_affine_identity(self):
        net = FeedforwardNetwork([Layer([[2.0]], [1.0], ACT_IDENTITY)])
        y, _ = mlp_forward_batch(net, [[3.0]])
        assert y.tolist() == [[7.0]]

    def test_relu_clamps(self):
        net = FeedforwardNetwork([Layer([[1.0]], [-5.0], ACT_RELU)])
        y, _ = mlp_forward_batch(net, [[3.0]])
        assert y.tolist() == [[0.0]]

    def test_zero_net(self):
        net = FeedforwardNetwork(
            [Layer(np.zeros((3, 2)), np.zeros(3), ACT_RELU), Layer(np.zeros((1, 3)), np.zeros(1), ACT_IDENTITY)]
        )
        y, _ = mlp_forward_batch(net, [[4.0, -2.0]])
        assert y.tolist() == [[0.0]]

    def test_sigmoid_stable(self):
        net = FeedforwardNetwork([Layer([[1.0]], [0.0], ACT_SIGMOID)])
        y, _ = mlp_forward_batch(net, [[800.0], [-800.0]])
        assert y.tolist() == [[1.0], [0.0]]

    def test_dimension_mismatch(self):
        net = FeedforwardNetwork([Layer([[2.0]], [1.0], ACT_IDENTITY)])
        with pytest.raises(ValueError):
            mlp_forward_batch(net, [[1.0, 2.0]])
        with pytest.raises(ValueError):
            mlp_forward_batch(net, [1.0])

    def test_layer_shapes_validated(self):
        with pytest.raises(ValueError, match=re.escape("layer weights must be 2-D, got shape (2,)")):
            Layer([1.0, 2.0], [0.0], ACT_IDENTITY)
        with pytest.raises(ValueError, match=re.escape("bias shape (2,) does not match 1 outputs")):
            Layer([[1.0]], [0.0, 0.0], ACT_IDENTITY)

    def test_layer_chaining_validated(self):
        with pytest.raises(ValueError):
            FeedforwardNetwork(
                [Layer(np.zeros((3, 2)), np.zeros(3), ACT_RELU), Layer(np.zeros((1, 4)), np.zeros(1), ACT_IDENTITY)]
            )


class TestMlpBackward:
    def test_zero_upstream(self):
        net = FeedforwardNetwork([Layer([[2.0]], [1.0], ACT_IDENTITY)])
        _, values = mlp_forward_batch(net, [[3.0]])
        grads = mlp_backward_batch(net, values, [[0.0]])
        assert grads[0][0].tolist() == [[0.0]]
        assert grads[0][1].tolist() == [0.0]

    def test_hand_example(self):
        # x=3 -> 2x+1 = 7 -> 3*7 = 21
        net = FeedforwardNetwork(
            [Layer([[2.0]], [1.0], ACT_IDENTITY), Layer([[3.0]], [0.0], ACT_IDENTITY)]
        )
        _, values = mlp_forward_batch(net, [[3.0]])
        grads = mlp_backward_batch(net, values, [[1.0]])
        assert grads[1][0].tolist() == [[7.0]]
        assert grads[1][1].tolist() == [1.0]
        assert grads[0][0].tolist() == [[9.0]]
        assert grads[0][1].tolist() == [3.0]

    def test_two_layer_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            net = random_network(rng, [4, 3, 2], activations=[ACT_SIGMOID, ACT_IDENTITY])
            xs = rng.normal(0, 1, (3, 4))
            dldy = rng.normal(0, 1, (3, 2))

            def scalar(w):
                first = Layer(w.reshape(3, 4), net.layers[0].bias, ACT_SIGMOID)
                y, _ = mlp_forward_batch(FeedforwardNetwork([first, net.layers[1]]), xs)
                return float((y * dldy).sum())

            _, values = mlp_forward_batch(net, xs)
            grads = mlp_backward_batch(net, values, dldy)
            fd = fd_gradient(scalar, net.layers[0].weights).reshape(3, 4)
            assert np.max(rel_err(grads[0][0], fd)) <= 1e-6

    def test_cache_mismatch(self):
        net = FeedforwardNetwork([Layer([[2.0]], [1.0], ACT_IDENTITY)])
        other = FeedforwardNetwork(
            [Layer([[2.0, 0.0]], [1.0], ACT_IDENTITY)]
        )
        _, values = mlp_forward_batch(other, [[3.0, 1.0]])
        with pytest.raises(ValueError):
            mlp_backward_batch(net, values, [[1.0]])


    def test_values_of_another_depth(self):
        net = FeedforwardNetwork([Layer([[2.0]], [1.0], ACT_IDENTITY)])
        deeper = FeedforwardNetwork([net.layers[0], Layer([[3.0]], [0.0], ACT_IDENTITY)])
        _, values = mlp_forward_batch(deeper, [[3.0]])
        with pytest.raises(ValueError, match="forward cache does not match this network"):
            mlp_backward_batch(net, values, [[1.0]])

    def test_upstream_shape_checked(self):
        net = FeedforwardNetwork([Layer([[2.0]], [1.0], ACT_IDENTITY)])
        _, values = mlp_forward_batch(net, [[3.0]])
        with pytest.raises(ValueError, match=re.escape("expected upstream of shape (1, 1), got (1, 2)")):
            mlp_backward_batch(net, values, [[1.0, 1.0]])


@pytest.mark.parametrize("name", ACTIVATIONS)
def test_activation_derivative_matches_finite_differences(name):
    # the derivative is written as a function of the output; points stay
    # clear of relu's kink at 0
    function, derivative = _ACTIVATIONS[name]
    z = np.array([-4.0, -1.3, -0.2, 0.15, 0.9, 2.5, 6.0])
    h = 1e-6
    fd = (function(z + h) - function(z - h)) / (2 * h)
    assert np.max(np.abs(derivative(function(z)) - fd)) <= 1e-8


class TestLosses:
    def test_mse_zero_at_target(self):
        value, grad = loss_mse_batch([[1.0, 2.0]], [[1.0, 2.0]])
        assert value == 0.0 and not grad.any()

    def test_mse_mean_over_components(self):
        value, _ = loss_mse_batch([[1.0, 2.0]], [[0.0, 0.0]])
        assert value == 2.5

    def test_mse_scalar(self):
        value, grad = loss_mse_batch([[3.0]], [[1.0]])
        assert value == 4.0
        assert grad.tolist() == [[4.0]]

    def test_mse_length_mismatch(self):
        with pytest.raises(ValueError):
            loss_mse_batch([[1.0]], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            loss_mse_batch([1.0], [1.0])

    def test_mse_gradient_matches_fd(self):
        rng = np.random.default_rng(16)
        pred = rng.normal(0, 1, (3, 5))
        target = rng.normal(0, 1, (3, 5))
        _, grad = loss_mse_batch(pred, target)
        fd = fd_gradient(lambda p: loss_mse_batch(p, target)[0], pred)
        assert np.max(rel_err(grad, fd)) <= 1e-7

    def test_ce_uniform_logits(self):
        value, _ = loss_cross_entropy_batch([[0.0, 0.0]], [0])
        assert abs(value - math.log(2.0)) <= 1e-12

    def test_ce_stable_at_large_logits(self):
        value, grad = loss_cross_entropy_batch([[1000.0, 0.0]], [0])
        assert 0.0 <= value <= 1e-12
        assert np.all(np.isfinite(grad))

    def test_ce_gradient_sums_to_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            logits = rng.normal(0, 3, (int(rng.integers(1, 4)), int(rng.integers(2, 6))))
            classes = rng.integers(0, logits.shape[1], logits.shape[0])
            _, grad = loss_cross_entropy_batch(logits, classes)
            assert np.all(np.abs(grad.sum(axis=1)) <= 1e-12)

    def test_ce_index_out_of_range(self):
        with pytest.raises(ValueError):
            loss_cross_entropy_batch([[0.0, 0.0]], [2])
        with pytest.raises(ValueError):
            loss_cross_entropy_batch([[0.0, 0.0]], [-1])

    def test_ce_shape_mismatch(self):
        message = "logits shape (1, 2) incompatible with classes shape (2,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            loss_cross_entropy_batch([[1.0, 2.0]], [0, 1])

    def test_ce_gradient_matches_fd(self):
        rng = np.random.default_rng(18)
        logits = rng.normal(0, 1, (3, 4))
        classes = np.array([1, 0, 3])
        _, grad = loss_cross_entropy_batch(logits, classes)
        fd = fd_gradient(lambda z: loss_cross_entropy_batch(z, classes)[0], logits)
        assert np.max(rel_err(grad, fd)) <= 1e-7
