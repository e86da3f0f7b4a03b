import json

import numpy as np
import pytest

from conftest import masked_node_graph, synthetic_collection
from vepm.evaluation import (
    EvaluationError,
    accuracy,
    community_confusion_matrices,
    cross_validate_graphs,
    hard_assign_communities,
    nmi,
    reduced_label_run,
    subsample_train_mask,
)
from vepm.model import ModelConfig
from vepm.rng import substream
from vepm.training import TrainConfig


class TestAccuracy:
    def test_perfect(self):
        probs = np.eye(4)
        assert accuracy(probs, np.arange(4)) == 1.0

    def test_uniform_ties_break_to_class_zero(self):
        labels = np.array([0, 1, 2, 0, 3, 0, 5])
        probs = np.full((7, 7), 1.0 / 7)
        expected = (labels == 0).mean()
        assert accuracy(probs, labels) == pytest.approx(expected)

    def test_mask_complement_counts_add_up(self):
        rng = substream(1, "acc")
        probs = rng.dirichlet(np.ones(3), size=50)
        labels = rng.integers(0, 3, 50)
        mask = rng.random(50) < 0.5
        if not mask.any() or mask.all():
            mask[:25] = True
            mask[25:] = False
        a = accuracy(probs, labels, mask)
        b = accuracy(probs, labels, ~mask)
        total = accuracy(probs, labels)
        assert a * mask.sum() + b * (~mask).sum() == pytest.approx(total * 50)

    def test_empty_mask_rejected(self):
        with pytest.raises(EvaluationError):
            accuracy(np.eye(2), np.arange(2), np.zeros(2, bool))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(EvaluationError):
            accuracy(np.ones((2, 2)), np.arange(2))


class TestNmi:
    def test_identical_is_one(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert nmi(labels, labels) == pytest.approx(1.0)

    def test_constant_is_zero(self):
        assert nmi(np.zeros(6, int), np.array([0, 0, 1, 1, 2, 2])) == 0.0

    def test_independent_four_point_example(self):
        assert nmi(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = substream(2, "nmi")
        a = rng.integers(0, 4, 60)
        b = rng.integers(0, 3, 60)
        assert abs(nmi(a, b) - nmi(b, a)) < 1e-12

    def test_relabel_invariance(self):
        rng = substream(3, "nmi2")
        a = rng.integers(0, 4, 60)
        b = rng.integers(0, 3, 60)
        perm = rng.permutation(4)
        assert nmi(perm[a], b) == pytest.approx(nmi(a, b), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            nmi(np.zeros(3, int), np.zeros(4, int))


class TestHardAssignment:
    def test_single_metacommunity_all_zero(self):
        z = substream(0, "ha").random((10, 3))
        np.testing.assert_array_equal(
            hard_assign_communities(z, np.ones(3), 1), np.zeros(10, int))

    def test_block_mass_assigns_to_block(self):
        z = np.zeros((2, 6))
        z[0, 5] = 4.0
        z[1, 0] = 4.0
        out = hard_assign_communities(z, np.ones(6), 3)
        np.testing.assert_array_equal(out, [2, 0])

    def test_block_permutation_equivariance(self):
        rng = substream(1, "ha2")
        z = rng.random((20, 4)) + 0.1
        gamma = rng.random(4) + 0.5
        base = hard_assign_communities(z, gamma, 4)
        perm = np.array([2, 0, 3, 1])
        swapped = hard_assign_communities(z[:, perm], gamma[perm], 4)
        np.testing.assert_array_equal(swapped, np.argsort(perm)[base])


class TestConfusionMatrices:
    def test_separable_embeddings_give_identity(self):
        labels = np.repeat(np.arange(3), 30)
        h = np.zeros((90, 3))
        h[np.arange(90), labels] = 1.0
        mats, kept = community_confusion_matrices([h], labels, folds=5, seed=0)
        np.testing.assert_allclose(mats[0], np.eye(3), atol=1e-12)
        np.testing.assert_array_equal(kept, [0, 1, 2])

    def test_random_embeddings_near_uniform_rows(self):
        n_cls, per_seed = 3, 120
        cells = []
        for seed in range(20):
            rng = substream(seed, "conf")
            labels = np.repeat(np.arange(n_cls), per_seed // n_cls)
            h = rng.standard_normal((per_seed, 8))
            mats, _ = community_confusion_matrices([h], labels, folds=4, seed=seed)
            cells.append(mats[0])
        mean_cells = np.mean(cells, axis=0)
        se = np.std(cells, axis=0, ddof=1) / np.sqrt(20)
        assert np.all(np.abs(mean_cells - 1.0 / n_cls) < 3 * np.maximum(se, 0.02))

    def test_rows_sum_to_one(self):
        rng = substream(5, "conf2")
        labels = rng.integers(0, 3, 80)
        h = rng.standard_normal((80, 5))
        mats, _ = community_confusion_matrices([h, h * 2], labels, folds=4, seed=1)
        for m in mats:
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)

    def test_sparse_class_dropped_with_warning(self):
        labels = np.array([0] * 20 + [1] * 20 + [2] * 3)
        h = substream(6, "conf3").standard_normal((43, 4))
        with pytest.warns(UserWarning, match="dropping"):
            mats, kept = community_confusion_matrices([h], labels, folds=5, seed=0)
        np.testing.assert_array_equal(kept, [0, 1])
        assert mats[0].shape == (2, 2)


def fast_cfgs(**model_kw):
    model = dict(layer_kind="gin", n_metacommunities=2, communities_per_block=2,
                 hidden_dim=16, dropout=0.0, mc_samples=2)
    model.update(model_kw)
    return (ModelConfig(**model),
            TrainConfig(pretrain_epochs=5, finetune_epochs=8, patience=100))


class TestCrossValidation:
    def test_fold_count_runs(self, monkeypatch):
        import vepm.evaluation as ev

        calls = []
        original = ev.pretrain
        monkeypatch.setattr(ev, "pretrain",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        coll = synthetic_collection(n_graphs=4, seed=0)
        cfg, tcfg = fast_cfgs()
        cross_validate_graphs(coll, cfg, tcfg, folds=2, seed=0)
        assert len(calls) == 2

    def test_deterministic_reports(self):
        coll = synthetic_collection(n_graphs=8, seed=1)
        cfg, tcfg = fast_cfgs()
        r1 = cross_validate_graphs(coll, cfg, tcfg, folds=2, seed=3)
        r2 = cross_validate_graphs(coll, cfg, tcfg, folds=2, seed=3)
        assert r1.to_json() == r2.to_json()

    def test_xu_reports_shared_epoch_mean(self):
        coll = synthetic_collection(n_graphs=8, seed=2)
        cfg, tcfg = fast_cfgs()
        report = cross_validate_graphs(coll, cfg, tcfg, folds=2, seed=1)
        curve = np.asarray(report.details["mean_curve"])
        assert report.best_epoch == int(np.argmax(curve))
        assert report.accuracy_mean == pytest.approx(np.mean(report.per_fold))
        assert report.accuracy_mean == pytest.approx(curve[report.best_epoch])

    @staticmethod
    def _fold_records(monkeypatch):
        """Record each fold's finetune records as cross-validation runs."""
        import vepm.evaluation as ev

        folds = []
        original = ev._train_fold

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            folds.append(result.records)
            return result

        monkeypatch.setattr(ev, "_train_fold", spy)
        return folds

    @pytest.mark.parametrize("protocol,folds", [("xu", 2), ("zhang", 3)])
    def test_folds_score_held_out_batches_every_epoch(self, monkeypatch, protocol,
                                                      folds):
        records = self._fold_records(monkeypatch)
        coll = synthetic_collection(n_graphs=9, seed=3)
        cfg, tcfg = fast_cfgs()
        report = cross_validate_graphs(coll, cfg, tcfg, folds=folds, seed=1,
                                       protocol=protocol)
        assert len(records) == folds
        for fold in records:
            assert len(fold) == tcfg.finetune_epochs
            for rec in fold:
                assert rec["train_acc"] is None
                assert 0.0 <= rec["test_acc"] <= 1.0
                assert (rec["val_acc"] is None) == (protocol == "xu")
        test = np.array([[rec["test_acc"] for rec in fold] for fold in records])
        if protocol == "xu":
            np.testing.assert_array_equal(report.details["mean_curve"],
                                          test.mean(axis=0))
        else:
            best = [int(np.argmax([rec["val_acc"] for rec in fold]))
                    for fold in records]
            assert report.details["best_epochs"] == best
            assert report.per_fold == [test[f, e] for f, e in enumerate(best)]

    def test_zhang_protocol_runs(self):
        coll = synthetic_collection(n_graphs=9, seed=3)
        cfg, tcfg = fast_cfgs()
        report = cross_validate_graphs(coll, cfg, tcfg, folds=3, seed=1,
                                       protocol="zhang")
        assert report.protocol == "zhang"
        assert len(report.per_fold) == 3
        assert len(report.details["best_epochs"]) == 3

    @pytest.mark.parametrize("protocol", ["xu", "zhang"])
    def test_zero_finetune_epochs_refused_before_any_fold_trains(self, monkeypatch,
                                                                 protocol):
        import vepm.evaluation as ev

        def unreachable(*args, **kwargs):
            raise AssertionError("a fold pretrained")

        monkeypatch.setattr(ev, "pretrain", unreachable)
        cfg, _tcfg = fast_cfgs()
        tcfg = TrainConfig(pretrain_epochs=1, finetune_epochs=0)
        with pytest.raises(EvaluationError, match=r"train\.finetune_epochs >= 1"):
            cross_validate_graphs(synthetic_collection(n_graphs=12, seed=0), cfg, tcfg,
                                  folds=3, seed=0, protocol=protocol)

    def test_report_json_stable_keys(self):
        coll = synthetic_collection(n_graphs=4, seed=4)
        cfg, tcfg = fast_cfgs()
        report = cross_validate_graphs(coll, cfg, tcfg, folds=2, seed=0)
        payload = json.loads(report.to_json())
        assert list(payload) == sorted(payload)


class TestReducedLabels:
    def test_keep_rate_one_returns_same_mask(self):
        graph = masked_node_graph(seed=0)
        out = subsample_train_mask(graph.labels, graph.train_mask, 1.0, seed=5)
        np.testing.assert_array_equal(out, graph.train_mask)

    def test_half_of_140_is_70(self):
        labels = np.repeat(np.arange(7), 40)
        mask = np.zeros(280, bool)
        for c in range(7):
            mask[np.flatnonzero(labels == c)[:20]] = True
        assert mask.sum() == 140
        out = subsample_train_mask(labels, mask, 0.5, seed=1)
        assert out.sum() == 70
        for c in range(7):
            assert (out & (labels == c)).sum() == 10

    def test_tiny_class_warns_when_emptied(self):
        labels = np.array([0] * 50 + [1])
        mask = np.ones(51, bool)
        with pytest.warns(UserWarning, match="lost all"):
            out = subsample_train_mask(labels, mask, 0.3, seed=2)
        assert not (out & (labels == 1)).any()

    def test_keep_rate_one_matches_standard_pipeline(self):
        graph = masked_node_graph(seed=1, n=40)
        cfg = ModelConfig(n_metacommunities=2, communities_per_block=1,
                          hidden_dim=8, encoder_layers=1, dropout=0.0, mc_samples=2)
        tcfg = TrainConfig(pretrain_epochs=4, finetune_epochs=6, patience=100)
        report = reduced_label_run(graph, 1.0, 7, cfg, tcfg)
        assert report.details["n_train_labels"] == int(graph.train_mask.sum())

        # the standard pipeline at the same seed produces the same number
        from vepm.model import init_params, posterior_predictive, prepare_node_graph
        from vepm.training import finetune, pretrain

        prep = prepare_node_graph(graph)
        store = init_params(cfg, graph.n_features, graph.n_classes(), 7, "node")
        pretrain(prep, store, cfg, tcfg, seed=7)
        finetune(prep, store, cfg, tcfg, seed=7)
        probs = posterior_predictive(prep, store, cfg, cfg.mc_samples, 7,
                                     partition_seed=7)
        standard = accuracy(probs, graph.labels, graph.test_mask)
        assert report.accuracy_mean == standard

    def test_invalid_keep_rate(self):
        graph = masked_node_graph(seed=0)
        with pytest.raises(EvaluationError):
            reduced_label_run(graph, 0.0, 0, *fast_cfgs())

    def test_monotone_trend_over_keep_rates(self):
        # mean test accuracy with all labels is at least that with 20%,
        # averaged over five seeds (deterministic given the fixed seeds)
        cfg = ModelConfig(n_metacommunities=4, communities_per_block=1,
                          hidden_dim=32, encoder_layers=1, dropout=0.0,
                          mc_samples=2)
        tcfg = TrainConfig(pretrain_epochs=60, finetune_epochs=40,
                           lr_unsup=0.3, patience=100)
        means = {}
        for keep in (1.0, 0.2):
            accs = [reduced_label_run(masked_node_graph(seed=s, n=80), keep, s,
                                      cfg, tcfg).accuracy_mean
                    for s in range(5)]
            means[keep] = np.mean(accs)
        assert means[1.0] >= means[0.2]
