"""Acceptance suite: one test per shipped guarantee, each printing its own
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Covers: the training step's gradient against finite differences,
reciprocal-best-hit equivalence with a brute-force oracle, mask/freeze
invariants, the closed-form regularizer decay, recovery on the seeded
synthetic transfer problem, the soft-constraint direction of effect,
bit-level determinism, and byte-identical file round trips.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from orthomask.dataio import (
    ExpressionDataset,
    read_expression_tsv,
    read_labels_tsv,
    write_expression_tsv,
    write_labels_tsv,
)
from orthomask.interpret import export_weight_table, support_summary
from orthomask.modelio import load_model, model_document, save_model
from orthomask.netcore import ACT_IDENTITY, FeedforwardNetwork, Layer, MaskedLinearLayer
from orthomask.orthograph import (
    RbhConfig,
    ScoreTable,
    build_rbh_graph,
    graph_to_tsv,
    tsv_to_graph,
)
from orthomask.synth import SyntheticSpec, generate_synthetic
from orthomask.training import (
    TrainConfig,
    conversion_step,
    evaluate,
    initialize_conversion_layer,
    train_conversion,
    write_report_tsv,
)

from _helpers import (
    edge_set,
    fd_gradient,
    random_mask,
    random_network,
    random_score_instance,
    rbh_brute_force,
    read_weight_rows,
    rel_err,
    weight_table_oracle,
)

BUNDLE_SPEC = SyntheticSpec(
    n_sources=30,
    n_targets=20,
    orthology_density=0.1,
    num_samples=500,
    noise_sigma=0.05,
    hidden_dim=8,
    seed=42,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


@pytest.fixture(scope="module")
def bundle():
    return generate_synthetic(BUNDLE_SPEC)


def test_criterion_1_gradient_correctness():
    with criterion("C1 training-step gradient, penalty included, vs finite differences"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        trials = 0
        while trials < 100:
            n_s = int(rng.integers(1, 9))
            n_t = int(rng.integers(1, 7))
            hidden = int(rng.integers(1, 5))
            mode = ("hard", "soft")[trials % 2]
            loss_kind = ("mse", "ce")[(trials // 2) % 2]
            mask = random_mask(rng, n_t, n_s, density=0.5, force_edge=True)

            out_dim = int(rng.integers(2, 5)) if loss_kind == "ce" else int(rng.integers(1, 3))
            net = random_network(rng, [n_t, hidden, out_dim], frozen=True)
            n = int(rng.integers(1, 5))
            xs = rng.normal(0.0, 1.0, (n, n_s))
            if loss_kind == "ce":
                labels = rng.integers(0, out_dim, n)
            else:
                labels = rng.normal(0.0, 1.0, (n, out_dim))
            alpha, beta = rng.uniform(0.1, 2.0, 2)
            cfg = TrainConfig(alpha=alpha, beta=beta)

            shape = (mask.n_edges,) if mode == "hard" else (n_t, n_s)
            w0 = rng.normal(0.0, 1.0, shape)
            folded = net.copy()

            def total_loss(w):
                layer = MaskedLinearLayer(mask, mode, w)
                base_loss, penalty, _ = conversion_step(layer, net, folded, xs, labels, cfg)
                return base_loss + penalty

            # the gradient the training loop applies, against central
            # finite differences of the loss it records
            layer = MaskedLinearLayer(mask, mode, w0)
            _, _, grad = conversion_step(layer, net, folded, xs, labels, cfg)
            assert np.max(rel_err(grad, fd_gradient(total_loss, w0))) <= 1e-5
            trials += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"gradient sweep took {elapsed:.1f}s"


def test_criterion_2_rbh_oracle_equivalence():
    with criterion("C2 RBH equals brute-force oracle on 1000 instances"):
        rng = np.random.default_rng(2002)
        start = time.perf_counter()
        for _ in range(1000):
            tq, qt, thr, tol, tg, sg = random_score_instance(rng, 20, 30)
            graph = build_rbh_graph(
                ScoreTable("target_sp", "source_sp", tq),
                ScoreTable("source_sp", "target_sp", qt),
                RbhConfig(thr, tol),
                tg,
                sg,
            )
            assert edge_set(graph) == rbh_brute_force(tq, qt, thr, tol, tg, sg)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def run_hard_training(bundle, steps):
    cfg = TrainConfig(steps=steps)
    layer = initialize_conversion_layer(bundle.graph, "hard")
    trained, report = train_conversion(layer, bundle.frozen_net, bundle.train, cfg)
    return trained, report


def test_criterion_3_mask_and_freeze_invariants(bundle):
    with criterion("C3 mask zeros and frozen network held after 200 steps"):
        before = model_document(bundle.frozen_net)
        trained, _ = run_hard_training(bundle, steps=200)
        dense = trained.to_dense()
        off = np.ones(dense.shape, dtype=bool)
        off[bundle.graph.edge_rows, bundle.graph.edge_cols] = False
        assert np.all(dense[off] == 0.0)
        assert model_document(bundle.frozen_net) == before


def test_criterion_4_regularizer_closed_form():
    with criterion("C4 off-support decay matches (1 - 2*lr*alpha)^t exactly"):
        rng = np.random.default_rng(4004)
        mask = random_mask(rng, 4, 6, density=0.35, force_edge=True)
        w0 = rng.normal(0.0, 1.0, (4, 6))
        # a zero-weight head makes the base-loss gradient identically zero
        net = FeedforwardNetwork(
            [Layer(np.zeros((1, 4)), np.zeros(1), ACT_IDENTITY)], frozen=True
        )
        data = ExpressionDataset(
            "sp",
            mask.source_gene_ids,
            [f"s{i}" for i in range(6)],
            rng.normal(0.0, 1.0, (6, 6)),
            np.zeros((6, 1)),
        )
        eta, alpha = 0.01, 1.0
        on = np.zeros((4, 6), dtype=bool)
        on[mask.edge_rows, mask.edge_cols] = True
        for steps in (1, 3, 10, 33, 100):
            cfg = TrainConfig(
                optimizer="sgd", learning_rate=eta, alpha=alpha, beta=0.0, steps=steps, seed=0
            )
            layer = MaskedLinearLayer(mask, "soft", w0)
            trained, _ = train_conversion(layer, net, data, cfg)
            expected = w0[~on] * (1.0 - 2.0 * eta * alpha) ** steps
            assert np.max(np.abs(trained.weights[~on] - expected) / np.abs(expected)) <= 1e-10
            assert np.array_equal(trained.weights[on], w0[on])


def test_criterion_5_synthetic_transfer_recovery(bundle):
    with criterion("C5 default training reaches 1.5x the oracle test loss"):
        start = time.perf_counter()
        trained, report = run_hard_training(bundle, steps=TrainConfig().steps)
        test_loss = evaluate(bundle.frozen_net, trained, bundle.test)
        elapsed = time.perf_counter() - start
        assert test_loss <= 1.5 * bundle.oracle_loss, (
            f"test loss {test_loss} vs oracle {bundle.oracle_loss}"
        )
        assert report.losses[-1] < report.losses[0]
        assert elapsed < 60.0, f"training took {elapsed:.1f}s"


def test_criterion_6_soft_constraint_shrinks_off_support(bundle):
    with criterion("C6 alpha=10 run has strictly smaller off-support weight"):
        summaries = {}
        for alpha in (10.0, 0.0):
            cfg = TrainConfig(alpha=alpha, beta=0.0)
            layer = initialize_conversion_layer(bundle.graph, "soft")
            trained, _ = train_conversion(layer, bundle.frozen_net, bundle.train, cfg)
            summaries[alpha] = support_summary(trained)
        assert summaries[10.0].off_mean_abs < summaries[0.0].off_mean_abs
        assert summaries[0.0].off_mean_abs > 0.0


def test_criterion_7_determinism(bundle, tmp_path):
    with criterion("C7 repeated runs write byte-identical models and reports"):
        for tag, steps in (("c3", 200), ("c5", TrainConfig().steps)):
            files = []
            for attempt in ("one", "two"):
                trained, report = run_hard_training(bundle, steps)
                model_path = tmp_path / f"{tag}_{attempt}.json"
                report_path = tmp_path / f"{tag}_{attempt}.tsv"
                save_model(bundle.frozen_net, trained, model_path)
                write_report_tsv(report, report_path)
                files.append((model_path.read_bytes(), report_path.read_bytes()))
            assert files[0] == files[1]


def test_criterion_8_round_trips(tmp_path):
    with criterion("C8 every file format survives save -> load -> save"):
        rng = np.random.default_rng(8008)

        dataset = ExpressionDataset(
            "sp",
            [f"g{i}" for i in range(12)],
            [f"s{i}" for i in range(9)],
            rng.normal(0.0, 1.0, (9, 12)),
        )
        first = tmp_path / "expr1.tsv"
        write_expression_tsv(dataset, first)
        second = tmp_path / "expr2.tsv"
        write_expression_tsv(read_expression_tsv(first), second)
        assert first.read_bytes() == second.read_bytes()

        ids = dataset.sample_ids
        for kind, labels in (
            ("regression", rng.normal(0.0, 2.0, (9, 1))),
            ("classification", rng.integers(0, 4, 9).astype(np.int64)),
        ):
            first = tmp_path / f"labels1_{kind}.tsv"
            write_labels_tsv(ids, labels, first)
            back_ids, back = read_labels_tsv(first, kind)
            second = tmp_path / f"labels2_{kind}.tsv"
            write_labels_tsv(back_ids, back, second)
            assert first.read_bytes() == second.read_bytes()

        graph = random_mask(rng, 10, 14, density=0.3, force_edge=True)
        first = tmp_path / "graph1.tsv"
        graph_to_tsv(graph, first)
        second = tmp_path / "graph2.tsv"
        graph_to_tsv(tsv_to_graph(first, graph.target_gene_ids, graph.source_gene_ids), second)
        assert first.read_bytes() == second.read_bytes()

        net = random_network(rng, [10, 5, 1], frozen=True)
        for mode in ("hard", "soft"):
            shape = (graph.n_edges,) if mode == "hard" else (10, 14)
            layer = MaskedLinearLayer(graph, mode, rng.normal(0.0, 1.0, shape))

            first = tmp_path / f"weights1_{mode}.tsv"
            written = export_weight_table(layer, first)
            assert read_weight_rows(first) == weight_table_oracle(layer)
            assert len(written) == len(read_weight_rows(first))
            # rebuild a layer from the parsed rows and re-export
            if mode == "hard":
                index = {
                    (t, s): w for t, s, w, _ in read_weight_rows(first)
                }
                weights = np.array(
                    [
                        index[(graph.target_gene_ids[i], graph.source_gene_ids[j])]
                        for i, j in zip(graph.edge_rows.tolist(), graph.edge_cols.tolist())
                    ]
                )
                rebuilt = MaskedLinearLayer(graph, "hard", weights)
            else:
                dense = np.zeros((10, 14))
                t_idx = {g: i for i, g in enumerate(graph.target_gene_ids)}
                s_idx = {g: j for j, g in enumerate(graph.source_gene_ids)}
                for t, s, w, _ in read_weight_rows(first):
                    dense[t_idx[t], s_idx[s]] = w
                rebuilt = MaskedLinearLayer(graph, "soft", dense)
            second = tmp_path / f"weights2_{mode}.tsv"
            export_weight_table(rebuilt, second)
            assert first.read_bytes() == second.read_bytes()

            first = tmp_path / f"model1_{mode}.json"
            save_model(net, layer, first)
            loaded_net, loaded_layer = load_model(first)
            second = tmp_path / f"model2_{mode}.json"
            save_model(loaded_net, loaded_layer, second)
            assert first.read_bytes() == second.read_bytes()
