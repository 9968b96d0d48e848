"""Cross-path consistency: batch kernels vs single-sample calls, and
optimizer update rules against their published formulas."""

import math

import numpy as np
import pytest

from orthomask.dataio import ExpressionDataset
from orthomask.netcore import (
    MaskedLinearLayer,
    backward_conversion,
    backward_conversion_batch,
    forward_conversion,
    forward_conversion_batch,
    loss_cross_entropy,
    loss_cross_entropy_batch,
    loss_mse,
    loss_mse_batch,
    mlp_backward,
    mlp_backward_batch,
    mlp_forward,
    mlp_forward_batch,
)
from orthomask.training import ADAM_EPS, TrainConfig, train_conversion

from _helpers import random_mask, random_network
from test_training import identity_net, one_gene_dataset, single_edge_layer


class TestBatchMatchesSingle:
    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_conversion(self, mode):
        rng = np.random.default_rng(20)
        mask = random_mask(rng, 5, 7, 0.4, force_edge=True)
        shape = (mask.n_edges,) if mode == "hard" else (5, 7)
        layer = MaskedLinearLayer(mask, mode, rng.normal(0, 1, shape))
        xs = rng.normal(0, 1, (8, 7))
        batch = forward_conversion_batch(layer, xs)
        for k in range(8):
            assert np.max(np.abs(batch[k] - forward_conversion(layer, xs[k]))) <= 1e-12

        upstream = rng.normal(0, 1, (8, 5))
        grad_w_batch, grad_x_batch = backward_conversion_batch(layer, xs, upstream)
        grad_w_sum = np.zeros_like(layer.weights)
        for k in range(8):
            gw, gx = backward_conversion(layer, xs[k], upstream[k])
            grad_w_sum += gw
            assert np.max(np.abs(grad_x_batch[k] - gx)) <= 1e-12
        assert np.max(np.abs(grad_w_batch - grad_w_sum)) <= 1e-10

    def test_mlp(self):
        rng = np.random.default_rng(21)
        net = random_network(rng, [6, 4, 3], frozen=True)
        xs = rng.normal(0, 1, (5, 6))
        ys, cache = mlp_forward_batch(net, xs)
        dldy = rng.normal(0, 1, (5, 3))
        grads_batch, grad_in_batch = mlp_backward_batch(net, cache, dldy)
        gw_sum = [np.zeros_like(g) for g, _ in grads_batch]
        gb_sum = [np.zeros_like(b) for _, b in grads_batch]
        for k in range(5):
            y, c = mlp_forward(net, xs[k])
            assert np.max(np.abs(ys[k] - y)) <= 1e-12
            grads, grad_in = mlp_backward(net, c, dldy[k])
            assert np.max(np.abs(grad_in_batch[k] - grad_in)) <= 1e-12
            for i, (gw, gb) in enumerate(grads):
                gw_sum[i] += gw
                gb_sum[i] += gb
        for i in range(len(gw_sum)):
            assert np.max(np.abs(grads_batch[i][0] - gw_sum[i])) <= 1e-10
            assert np.max(np.abs(grads_batch[i][1] - gb_sum[i])) <= 1e-10

    def test_losses(self):
        rng = np.random.default_rng(22)
        pred = rng.normal(0, 1, (6, 3))
        target = rng.normal(0, 1, (6, 3))
        value, grad = loss_mse_batch(pred, target)
        per_sample = [loss_mse(pred[k], target[k]) for k in range(6)]
        assert value == pytest.approx(np.mean([v for v, _ in per_sample]), abs=1e-14)
        for k in range(6):
            assert np.max(np.abs(grad[k] - per_sample[k][1] / 6.0)) <= 1e-14

        logits = rng.normal(0, 2, (6, 4))
        classes = rng.integers(0, 4, 6).astype(np.int64)
        value, grad = loss_cross_entropy_batch(logits, classes)
        per_sample = [loss_cross_entropy(logits[k], int(classes[k])) for k in range(6)]
        assert value == pytest.approx(np.mean([v for v, _ in per_sample]), abs=1e-14)
        for k in range(6):
            assert np.max(np.abs(grad[k] - per_sample[k][1] / 6.0)) <= 1e-14


class TestOptimizerFormulas:
    def test_adam_first_step_matches_published_update(self):
        # known problem: loss (2w)^2 at w=1 gives gradient exactly 8
        layer = single_edge_layer(1.0)
        net = identity_net(1.0, frozen=True)
        data = one_gene_dataset(2.0, 0.0)
        lr = 0.1
        cfg = TrainConfig(mode="hard", optimizer="adam", learning_rate=lr, steps=1, seed=0)
        trained, _ = train_conversion(layer, net, data, cfg)

        g = 8.0
        m = (1.0 - 0.9) * g
        v = (1.0 - 0.999) * (g * g)
        m_hat = m / (1.0 - 0.9)
        v_hat = v / (1.0 - 0.999)
        expected = 1.0 - lr * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
        assert trained.weights[0] == expected

    def test_adam_two_steps_stay_deterministic(self):
        layer = single_edge_layer(1.0)
        net = identity_net(1.0, frozen=True)
        data = one_gene_dataset(2.0, 0.0)
        cfg = TrainConfig(mode="hard", optimizer="adam", learning_rate=0.05, steps=2, seed=0)
        a, _ = train_conversion(layer, net, data, cfg)
        b, _ = train_conversion(layer, net, data, cfg)
        assert a.weights[0] == b.weights[0]

    def test_sgd_matches_plain_update_over_steps(self):
        layer = single_edge_layer(1.0)
        net = identity_net(1.0, frozen=True)
        data = one_gene_dataset(2.0, 0.0)
        lr, steps = 0.02, 7
        cfg = TrainConfig(mode="hard", optimizer="sgd", learning_rate=lr, steps=steps, seed=0)
        trained, _ = train_conversion(layer, net, data, cfg)
        w = 1.0
        for _ in range(steps):
            w = w - lr * (8.0 * w)
        assert trained.weights[0] == w


class TestTrainingBatching:
    def test_minibatch_covers_all_samples(self):
        # with batch 1 and n steps, every sample appears exactly once per epoch
        rng = np.random.default_rng(23)
        from orthomask.training import _batch_indices

        n, steps = 7, 21
        seen = []
        for idx in _batch_indices(n, 1, steps, rng):
            assert idx.shape == (1,)
            seen.append(int(idx[0]))
        for epoch in range(3):
            assert sorted(seen[epoch * n : (epoch + 1) * n]) == list(range(n))

    def test_full_batch_uses_every_sample_each_step(self):
        rng = np.random.default_rng(24)
        from orthomask.training import FULL_BATCH, _batch_indices

        for idx in _batch_indices(5, FULL_BATCH, 4, rng):
            assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]

    def test_minibatch_training_runs(self):
        rng = np.random.default_rng(25)
        mask = random_mask(rng, 3, 4, 0.5, force_edge=True)
        net = random_network(rng, [3, 2, 1], frozen=True)
        data = ExpressionDataset(
            "sp",
            mask.source_gene_ids,
            [f"s{i}" for i in range(10)],
            rng.normal(0, 1, (10, 4)),
            rng.normal(0, 1, (10, 1)),
        )
        from orthomask.training import initialize_conversion_layer

        layer = initialize_conversion_layer(mask, "hard", "row_uniform", rng)
        cfg = TrainConfig(steps=12, batch_size=3, seed=5)
        trained, report = train_conversion(layer, net, data, cfg)
        assert len(report.losses) == 12
        assert np.all(np.isfinite(trained.weights))
