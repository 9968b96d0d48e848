"""Cross-path consistency: optimizer update rules against their published
formulas, and minibatch scheduling."""

import math

import numpy as np

from orthomask.dataio import ExpressionDataset
from orthomask.training import ADAM_EPS, TrainConfig, train_conversion

from _helpers import random_mask, random_network
from test_training import identity_net, one_gene_dataset, single_edge_layer


class TestOptimizerFormulas:
    def test_adam_first_step_matches_published_update(self):
        # known problem: loss (2w)^2 at w=1 gives gradient exactly 8
        layer = single_edge_layer(1.0)
        net = identity_net(1.0, frozen=True)
        data = one_gene_dataset(2.0, 0.0)
        lr = 0.1
        cfg = TrainConfig(optimizer="adam", learning_rate=lr, steps=1, seed=0)
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
        cfg = TrainConfig(optimizer="adam", learning_rate=0.05, steps=2, seed=0)
        a, _ = train_conversion(layer, net, data, cfg)
        b, _ = train_conversion(layer, net, data, cfg)
        assert a.weights[0] == b.weights[0]

    def test_sgd_matches_plain_update_over_steps(self):
        layer = single_edge_layer(1.0)
        net = identity_net(1.0, frozen=True)
        data = one_gene_dataset(2.0, 0.0)
        lr, steps = 0.02, 7
        cfg = TrainConfig(optimizer="sgd", learning_rate=lr, steps=steps, seed=0)
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
