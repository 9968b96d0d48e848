import math

import numpy as np
import pytest

from orthomask.netcore import (
    ACT_IDENTITY,
    ACT_RELU,
    ACT_SIGMOID,
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

    def test_layer_chaining_validated(self):
        with pytest.raises(ValueError):
            FeedforwardNetwork(
                [Layer(np.zeros((3, 2)), np.zeros(3), ACT_RELU), Layer(np.zeros((1, 4)), np.zeros(1), ACT_IDENTITY)]
            )


class TestMlpBackward:
    def test_zero_upstream(self):
        net = FeedforwardNetwork([Layer([[2.0]], [1.0], ACT_IDENTITY)])
        _, cache = mlp_forward_batch(net, [[3.0]])
        grads = mlp_backward_batch(net, cache, [[0.0]])
        assert grads[0][0].tolist() == [[0.0]]
        assert grads[0][1].tolist() == [0.0]

    def test_hand_example(self):
        # x=3 -> 2x+1 = 7 -> 3*7 = 21
        net = FeedforwardNetwork(
            [Layer([[2.0]], [1.0], ACT_IDENTITY), Layer([[3.0]], [0.0], ACT_IDENTITY)]
        )
        _, cache = mlp_forward_batch(net, [[3.0]])
        grads = mlp_backward_batch(net, cache, [[1.0]])
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

            _, cache = mlp_forward_batch(net, xs)
            grads = mlp_backward_batch(net, cache, dldy)
            fd = fd_gradient(scalar, net.layers[0].weights).reshape(3, 4)
            assert np.max(rel_err(grads[0][0], fd)) <= 1e-6

    def test_cache_mismatch(self):
        net = FeedforwardNetwork([Layer([[2.0]], [1.0], ACT_IDENTITY)])
        other = FeedforwardNetwork(
            [Layer([[2.0, 0.0]], [1.0], ACT_IDENTITY)]
        )
        _, cache = mlp_forward_batch(other, [[3.0, 1.0]])
        with pytest.raises(ValueError):
            mlp_backward_batch(net, cache, [[1.0]])


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

    def test_ce_gradient_matches_fd(self):
        rng = np.random.default_rng(18)
        logits = rng.normal(0, 1, (3, 4))
        classes = np.array([1, 0, 3])
        _, grad = loss_cross_entropy_batch(logits, classes)
        fd = fd_gradient(lambda z: loss_cross_entropy_batch(z, classes)[0], logits)
        assert np.max(rel_err(grad, fd)) <= 1e-7
