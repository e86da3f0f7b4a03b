import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import masked_node_graph, planted_graph, synthetic_collection
from vepm import diffmath as dm
from vepm import training
from vepm.diffmath import ParameterStore, finite_difference_check
from vepm.distributions import bernoulli_poisson_loglik
from vepm.graphs import batch_graphs, sample_epm_graph
from vepm.model import (
    ModelConfig,
    encoder_uniforms,
    init_params,
    prepare_graph_batch,
    posterior_predictive,
    prepare_node_graph,
)
from vepm.rng import substream
from vepm.training import (
    OptimizerState,
    SamplerConfig,
    TrainConfig,
    TrainingDiverged,
    TrainingError,
    _pair_count,
    _elbo_step,
    _task_logprob,
    accuracy,
    adam_step,
    elbo,
    finetune,
    format_metrics,
    pretrain,
    sample_subgraph,
    subsample_probabilities,
)
from vepm.verify import _full_elbo_check, elbo_check_setup, gin_elbo_check_setup


def node_setup(seed=0, **cfg_kw):
    graph = masked_node_graph(seed=seed, n=60)
    defaults = dict(n_metacommunities=4, communities_per_block=1, hidden_dim=16,
                    dropout=0.0, encoder_layers=1)
    defaults.update(cfg_kw)
    cfg = ModelConfig(**defaults)
    prep = prepare_node_graph(graph)
    store = init_params(cfg, graph.n_features, graph.n_classes(), seed, "node")
    return graph, cfg, prep, store


class TestElbo:
    def test_posterior_equal_to_prior_gives_zero_kl(self):
        # zero weights plus the bias softplus^{-1}(1) put every entry at
        # Weibull(1, 1), which is exactly the Gamma(1, 1) prior; a cycle
        # graph keeps the bias intact through aggregation (unit row sums)
        from vepm.graphs import Graph
        from vepm.sparse import adjacency_from_edges

        n = 12
        adj = adjacency_from_edges(n, np.array([[i, (i + 1) % n] for i in range(n)]))
        graph = Graph(adjacency=adj, features=np.eye(n),
                      labels=np.zeros(n, np.int64))
        graph.train_mask = np.ones(n, bool)
        cfg = ModelConfig(n_metacommunities=2, communities_per_block=1,
                          hidden_dim=8, encoder_layers=1, dropout=0.0)
        prep = prepare_node_graph(graph)
        store = init_params(cfg, n, 1, 0, "node")
        store.set_value("enc.0.W", np.zeros_like(store["enc.0.W"].value))
        store.set_value("enc.0.b",
                        np.full(2 * cfg.total_communities, np.log(np.expm1(1.0))))
        u = substream(0, "u").random((n, cfg.total_communities))
        terms, _loss, _aux = elbo(prep, store, cfg, u, TrainConfig(), seed=0)
        assert abs(terms.l_kl) < 1e-9

    def test_perfect_predictions_give_zero_task_loss(self):
        graph, cfg, prep, store = node_setup()
        logits = np.full((60, graph.n_classes()), -1e4)
        logits[np.arange(60), graph.labels] = 1e4
        l_task = _task_logprob(prep, dm.constant(logits))
        assert abs(float(l_task.value)) < 1e-12

    def test_empty_training_mask_rejected(self):
        graph, cfg, prep, store = node_setup()
        graph.train_mask[:] = False
        u = substream(0, "u").random((60, cfg.total_communities))
        with pytest.raises(TrainingError, match="mask"):
            elbo(prep, store, cfg, u, TrainConfig(), seed=0)

    def test_single_term_gradients_pass_fd(self):
        prep, store, cfg, _tcfg, uniforms = elbo_check_setup(seed=11)
        for weights in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            tcfg = TrainConfig(elbo_weights=weights)

            def builder():
                _t, loss, _a = elbo(prep, store, cfg, uniforms, tcfg, seed=0)
                return loss

            err = finite_difference_check(builder, store, eps=1e-5, samples=60,
                                          seed=1)
            assert err < 1e-4, (weights, err)

    @pytest.mark.parametrize("seed", range(5))
    def test_full_elbo_gradchecks_pass_at_every_seed(self, seed):
        for name, setup in (("full_elbo", elbo_check_setup),
                            ("full_elbo_gin", gin_elbo_check_setup)):
            result = _full_elbo_check(name, setup, seed)
            assert result.passed, result.line()

    def test_full_elbo_gradchecks_fail_on_a_dropped_kl_factor(self, monkeypatch):
        """A planted reverse-rule bug: the KL's shape gradient loses a
        factor 1/k. Both full-objective checks must catch it."""
        import vepm.training as tr

        original = tr.kl_weibull_gamma

        def dropped_factor(shape_k, scale, alpha, beta):
            node = original(shape_k, scale, alpha, beta)
            rule = node.vjp

            def vjp(g, needs):
                g_k, g_lam = rule(g, needs)
                return (None if g_k is None else g_k * shape_k.value), g_lam

            node.vjp = vjp
            return node

        monkeypatch.setattr(tr, "kl_weibull_gamma", dropped_factor)
        for name, setup in (("full_elbo", elbo_check_setup),
                            ("full_elbo_gin", gin_elbo_check_setup)):
            result = _full_elbo_check(name, setup, 0)
            assert not result.passed, result.line()

    def test_elbo_terms_have_expected_signs(self):
        graph, cfg, prep, store = node_setup()
        u = substream(0, "u").random((60, cfg.total_communities))
        terms, _loss, _aux = elbo(prep, store, cfg, u, TrainConfig(), seed=0)
        assert terms.l_task <= 0
        assert terms.l_kl <= 1e-12
        assert terms.total == terms.l_task + terms.l_egen + terms.l_kl


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        store = ParameterStore()
        w = store.add("w", np.ones(4), "theta")
        before = w.value.copy()
        adam_step(store, OptimizerState(), 0.1, ["w"])
        np.testing.assert_array_equal(w.value, before)

    def test_first_step_magnitude_is_learning_rate(self):
        for g in (1e-4, 1.0, 1e4):
            store = ParameterStore()
            w = store.add("w", np.zeros(1), "theta")
            w.grad = np.array([g])
            adam_step(store, OptimizerState(), 0.01, ["w"])
            assert abs(abs(w.value[0]) - 0.01) < 1e-5

    def test_trajectory_bit_identical(self):
        def run():
            store = ParameterStore()
            w = store.add("w", np.linspace(-1, 1, 6), "theta")
            state = OptimizerState()
            for t in range(25):
                store.zero_grad()
                dm.backward(dm.reduce_sum(dm.elementwise_mul(w, w)))
                adam_step(store, state, 0.05, ["w"])
            return w.value.copy()

        assert np.array_equal(run(), run())


class TestSubgraphSampler:
    def test_probabilities_sum_to_one(self):
        rng = substream(0, "p")
        for _ in range(30):
            deg = rng.integers(0, 20, size=int(rng.integers(2, 50))).astype(float)
            p = subsample_probabilities(deg, rng.uniform(0, 1), rng.uniform(0, 2))
            assert abs(p.sum() - 1.0) < 1e-12

    def test_three_node_worked_example(self):
        p = subsample_probabilities(np.array([2.0, 1.0, 1.0]), 0.9, 1.0)
        np.testing.assert_allclose(p, [0.475, 0.2625, 0.2625], atol=1e-15)

    def test_uniform_when_unsharpened(self):
        p = subsample_probabilities(np.array([9.0, 2.0, 5.0, 4.0]), 1.0, 0.0)
        np.testing.assert_allclose(p, 0.25, atol=1e-15)

    def test_all_zero_importance_falls_back_to_uniform(self):
        p = subsample_probabilities(np.zeros(5), 0.9, 1.0)
        np.testing.assert_allclose(p, 0.2, atol=1e-15)

    def test_full_sample_short_circuits(self):
        graph, _ = planted_graph(0, n=30)
        sampler = SamplerConfig(enabled=True, n_sub=30)
        draws, nodes, sub = sample_subgraph(graph, sampler, substream(0, "s"))
        np.testing.assert_array_equal(nodes, np.arange(30))
        assert sub is graph.adjacency

    def test_duplicates_collapse(self):
        graph, _ = planted_graph(0, n=50)
        sampler = SamplerConfig(enabled=True, n_sub=30)
        draws, nodes, sub = sample_subgraph(graph, sampler, substream(1, "s"))
        assert len(draws) == 30
        assert len(nodes) == len(set(nodes.tolist()))
        assert sub.n_rows == len(nodes)

    def test_estimator_exact_at_full_size(self):
        graph, _ = planted_graph(2, n=40)
        z = substream(3, "z").gamma(1.0, 1.0, (40, 4))
        gamma = np.full(4, 0.01)
        full = float(bernoulli_poisson_loglik(graph.adjacency, dm.constant(z),
                                              dm.constant(gamma)).value)
        sampler = SamplerConfig(enabled=True, n_sub=40)
        for t in range(5):
            _d, nodes, sub = sample_subgraph(graph, sampler, substream(4, "s", t))
            scale = _pair_count(40) / _pair_count(nodes.size)
            est = scale * float(bernoulli_poisson_loglik(
                sub, dm.gather_rows(dm.constant(z), nodes), dm.constant(gamma)).value)
            assert est == full

    def test_estimator_unbiased_at_half_size(self):
        # uniform importance keeps the induced-pair estimator centered; the
        # degree-weighted default trades a small bias for coverage
        graph, _ = sample_epm_graph(60, 4, 1.0, 1.0, np.full(4, 2e-3), seed=3,
                                    within_boost=20.0)
        z = substream(9, "z").gamma(1.0, 1.0, (60, 4))
        z[np.arange(60), (np.arange(60) * 4) // 60] += 5
        gamma = np.full(4, 0.01)
        zn, gn = dm.constant(z), dm.constant(gamma)
        full = float(bernoulli_poisson_loglik(graph.adjacency, zn, gn).value)
        sampler = SamplerConfig(enabled=True, n_sub=30, importance="uniform")
        vals = []
        for t in range(500):
            _d, nodes, sub = sample_subgraph(graph, sampler, substream(1, "s", t))
            scale = _pair_count(60) / _pair_count(nodes.size)
            vals.append(scale * float(bernoulli_poisson_loglik(
                sub, dm.gather_rows(zn, nodes), gn).value))
        assert abs(np.mean(vals) - full) / abs(full) < 0.05


class TestPretrain:
    def test_zero_epochs_identity(self):
        graph, cfg, prep, store = node_setup()
        before = store.snapshot()
        result = pretrain(prep, store, cfg, TrainConfig(pretrain_epochs=0), seed=0)
        assert result.records == []
        for name, val in before.items():
            assert np.array_equal(store[name].value, val)

    def test_same_seed_identical_parameters(self):
        def run():
            graph, cfg, prep, store = node_setup(seed=3)
            pretrain(prep, store, cfg, TrainConfig(pretrain_epochs=8, patience=100),
                     seed=3)
            return store.snapshot()

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_objective_ema_non_decreasing_on_planted_graph(self):
        graph, planted = planted_graph(0)
        cfg = ModelConfig(n_metacommunities=4, communities_per_block=1,
                          hidden_dim=64, encoder_layers=1, dropout=0.0)
        prep = prepare_node_graph(graph)
        store = init_params(cfg, graph.n_features, graph.n_classes(), 100, "node")
        objs = []
        pretrain(prep, store, cfg,
                 TrainConfig(pretrain_epochs=50, lr_unsup=0.3, patience=10**9),
                 seed=0,
                 epoch_callback=lambda epoch, terms, store: objs.append(
                     terms.l_egen + terms.l_kl))
        ema = [objs[0]]
        for o in objs[1:]:
            ema.append(0.9 * ema[-1] + 0.1 * o)
        assert np.all(np.diff(ema) >= 0)

    def test_early_stopping_on_stall(self):
        graph, cfg, prep, store = node_setup()
        # zeroed term weights make the objective exactly constant, so the
        # stall counter runs out right after the first epoch sets the best
        result = pretrain(prep, store, cfg,
                          TrainConfig(pretrain_epochs=500, lr_unsup=0.0,
                                      patience=4, elbo_weights=(1, 0, 0)),
                          seed=0)
        assert result.stopped_early
        assert len(result.records) == 5

    def test_sampler_path_runs(self):
        graph, cfg, prep, store = node_setup()
        sampler = SamplerConfig(enabled=True, n_sub=20)
        result = pretrain(prep, store, cfg, TrainConfig(pretrain_epochs=4,
                                                        patience=100),
                          sampler=sampler, seed=0)
        assert len(result.records) == 4


class TestFinetune:
    def test_inner_loop_step_counts(self):
        graph, cfg, prep, store = node_setup()
        phases = []
        finetune(prep, store, cfg,
                 TrainConfig(finetune_epochs=2, inner_steps=1, patience=100),
                 seed=0,
                 step_callback=lambda phase, **kw: phases.append(phase))
        assert phases == ["theta", "phi", "theta", "phi"]

    def test_partition_frozen_across_inner_steps(self):
        graph, cfg, prep, store = node_setup()
        seen = {}

        def cb(epoch, phase, partition, **kw):
            if phase == "theta":
                seen.setdefault(epoch, []).append(partition.copy())

        finetune(prep, store, cfg,
                 TrainConfig(finetune_epochs=3, inner_steps=4, patience=100),
                 seed=0, step_callback=cb)
        for epoch, parts in seen.items():
            assert len(parts) == 4
            for p in parts[1:]:
                assert np.array_equal(parts[0], p)

    def test_zero_phi_rate_freezes_inference_side(self):
        graph, cfg, prep, store = node_setup()
        tcfg = TrainConfig(finetune_epochs=3, lr_phi=0.0, patience=100)
        before = store.snapshot(store.names(("phi", "shared")))
        finetune(prep, store, cfg, tcfg, seed=0)
        for name, val in before.items():
            assert np.array_equal(store[name].value, val), name

    def test_partition_sum_invariant_every_step(self):
        worst = []

        def cb(partition, **kw):
            worst.append(np.abs(partition.sum(axis=1) - 1.0).max())

        for mode in ("learned", "even", "random"):
            graph, cfg, prep, store = node_setup(partition_mode=mode)
            finetune(prep, store, cfg,
                     TrainConfig(finetune_epochs=3, patience=100), seed=0,
                     step_callback=cb)
        assert max(worst) < 1e-9

    def test_phi_step_reuses_the_epoch_sample(self, monkeypatch):
        # the inference-side step differentiates through the same Z sample
        # the frozen partition was built from (same uniforms, same masks)
        import vepm.training as tr

        graph, cfg, prep, store = node_setup(dropout=0.5, encoder_layers=2)
        frozen, recomputed = [], []
        orig_elbo, orig_inputs = tr.elbo, tr.bank_inputs

        def spy_elbo(*a, **kw):
            terms, loss, aux = orig_elbo(*a, **kw)
            recomputed.append(aux["posterior"].z.value.copy())
            return terms, loss, aux

        def spy_inputs(*a, **kw):
            z, gamma, partition, x_star = orig_inputs(*a, **kw)
            assert not z.requires_grad
            frozen.append(z.value.copy())
            return z, gamma, partition, x_star

        monkeypatch.setattr(tr, "elbo", spy_elbo)
        monkeypatch.setattr(tr, "bank_inputs", spy_inputs)
        finetune(prep, store, cfg, TrainConfig(finetune_epochs=3, patience=100),
                 seed=0)
        assert len(frozen) == len(recomputed) == 3
        for a, b in zip(frozen, recomputed):
            assert np.array_equal(a, b)

    def test_frozen_partition_builds_one_bank_operator_per_epoch(self, monkeypatch):
        """The K-part block CSR of the frozen partition is built once, in the
        first theta step, and read by both bank layers of every theta step;
        the phi step's differentiable partition builds one for both layers,
        and each evaluation sample one for its constant partition."""
        from vepm.sparse import SparseMatrix

        graph, cfg, prep, store = node_setup(bank_layers=2)
        calls, at_callbacks = [], []
        original = SparseMatrix.block_csr_with_diagonal

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SparseMatrix, "block_csr_with_diagonal", counting)
        finetune(prep, store, cfg,
                 TrainConfig(finetune_epochs=1, inner_steps=3, patience=100),
                 seed=0, eval_samples=2,
                 step_callback=lambda phase, **kw: at_callbacks.append((phase, len(calls))))
        assert at_callbacks == [("theta", 1), ("theta", 1), ("theta", 1), ("phi", 2)]
        assert len(calls) == 2 + 2

    def test_phi_step_operator_matches_per_layer_operators(self, monkeypatch):
        """Finetuning where the differentiable partition's bank layers share
        its one operator gives the same phi-step gradients, bit for bit, as
        finetuning where every edge_spmm builds its own operator."""
        import vepm.training as tr

        def phi_grads():
            graph, cfg, prep, store = node_setup(bank_layers=2)
            grads = []

            def cb(phase, store, **kw):
                if phase == "phi":
                    grads.append({n: store.grad(n).copy()
                                  for n in store.names(("phi", "shared"))})

            finetune(prep, store, cfg,
                     TrainConfig(finetune_epochs=2, inner_steps=2, patience=100),
                     seed=0, step_callback=cb)
            return grads

        learned, original = [], tr.elbo

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            learned.append(out[2]["partition"])
            return out

        with monkeypatch.context() as m:
            m.setattr(tr, "elbo", spy)
            with_cache = phi_grads()
        assert len(learned) == 2
        assert all(p.weights.requires_grad and p._gcn is not None for p in learned)
        own_operator = dm.edge_spmm
        with monkeypatch.context() as m:
            m.setattr(dm, "edge_spmm",
                      lambda *args, operator=None, **kwargs: own_operator(*args, **kwargs))
            without_cache = phi_grads()
        assert len(with_cache) == len(without_cache) == 2
        for a, b in zip(with_cache, without_cache):
            for name in a:
                assert np.array_equal(a[name], b[name]), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard(self):
        from vepm.training import _check_finite

        with pytest.raises(TrainingDiverged):
            _check_finite(float("nan"))
        # a corrupted parameter is caught at the first forward evaluation
        graph, cfg, prep, store = node_setup()
        bad = store["enc.0.W"].value.copy()
        bad[0, 0] = np.inf
        store["enc.0.W"].value = bad
        with pytest.raises((TrainingDiverged, dm.NonFiniteError)):
            finetune(prep, store, cfg, TrainConfig(finetune_epochs=2, patience=10),
                     seed=0)

    def test_bound_check_names_the_term_the_epoch_and_the_clamps(self):
        from dataclasses import replace

        limits = training.BoundLimits(l_egen=4e-9, l_kl=4e-9, at_shape_min=0.25,
                                      at_shape_max=0.5)
        terms = training.ElboTerms(l_task=-1.0, l_egen=-5.0, l_kl=2e-9)
        finite = OptimizerState(v={"w": np.ones(3)})
        training._check_bound(terms, limits, 3, (finite,))
        clamps = "25.0% of Weibull shapes at SHAPE_MIN = 0.01, 50.0% at SHAPE_MAX = 100"
        for name, bad in (("l_egen", replace(terms, l_egen=1e-8)),
                          ("l_kl", replace(terms, l_kl=1e-8))):
            with pytest.raises(TrainingDiverged, match=f"epoch 3: {name} = 1e-08 "
                                                       f"exceeds its bound 4e-09; {clamps}"):
                training._check_bound(bad, limits, 3, (finite,))
        for v in (np.inf, np.nan):
            overflowed = OptimizerState(v={"w": np.array([1.0, v])})
            with pytest.raises(TrainingDiverged,
                               match=f"epoch 3: the Adam moments of w are not finite; {clamps}"):
                training._check_bound(terms, limits, 3, (finite, overflowed))

    def test_bound_limits_follow_the_edges_the_sample_and_the_shapes(self):
        from types import SimpleNamespace

        from vepm.distributions import EDGE_EPS

        graph, _cfg, prep, _store = node_setup()
        shape = np.array([[1e-2, 1.0], [1e2, 1e2]])
        aux = {"posterior": SimpleNamespace(weibull_shape=dm.constant(shape))}
        per_edge = np.log1p(EDGE_EPS) + training.EGEN_ROUNDOFF
        full = training._bound_limits(prep, aux, None)
        assert full == training.BoundLimits(graph.adjacency.nnz // 2 * per_edge,
                                            4 * training.KL_ROUNDOFF, 0.25, 0.5)
        sub = sample_subgraph(graph, SamplerConfig(enabled=True, n_sub=20),
                              substream(0, "sub"))
        scale = _pair_count(60) / _pair_count(sub[1].size)
        assert training._bound_limits(prep, aux, sub).l_egen == pytest.approx(
            scale * (sub[2].nnz // 2) * per_edge, rel=1e-15)

    def test_node_run_scores_each_mask_every_epoch(self):
        """Each epoch's accuracy columns score the posterior predictive of
        the parameters at the end of that epoch on the column's mask."""
        graph, cfg, prep, store = node_setup()
        expected = []

        def cb(phase, store, **_kw):
            if phase == "phi":
                probs = posterior_predictive(prep, store, cfg, 1, 0, partition_seed=0)
                expected.append({f"{name}_acc": accuracy(probs, graph.labels, mask)
                                 for name, mask in (("train", graph.train_mask),
                                                    ("val", graph.val_mask),
                                                    ("test", graph.test_mask))})

        result = finetune(prep, store, cfg,
                          TrainConfig(finetune_epochs=3, patience=100),
                          seed=0, step_callback=cb)
        got = [{col: rec[col] for col in ("train_acc", "val_acc", "test_acc")}
               for rec in result.records]
        assert got == expected and len(got) == 3

    def test_graph_train_scores_the_training_batch_only(self):
        cfg, prep, _test_prep, store = gin_setup()
        result = finetune(prep, store, cfg,
                          TrainConfig(finetune_epochs=2, patience=100),
                          seed=0)
        for rec in result.records:
            assert 0.0 <= rec["train_acc"] <= 1.0
            assert rec["val_acc"] is None and rec["test_acc"] is None

    def test_early_stop_restores_best_validation_params(self):
        graph, cfg, prep, store = node_setup()
        result = finetune(prep, store, cfg,
                          TrainConfig(finetune_epochs=12, patience=3), seed=0)
        assert result.best_epoch is not None
        vals = [r["val_acc"] for r in result.records]
        assert result.best_val == max(vals)


def gin_setup(**cfg_kw):
    """A GIN graph-task batch of six graphs plus a held-out batch of two."""
    coll = synthetic_collection(n_graphs=8, seed=1)
    cfg = ModelConfig(n_metacommunities=2, communities_per_block=1, hidden_dim=8,
                      layer_kind="gin", encoder_layers=1, **cfg_kw)
    prep, test_prep = (prepare_graph_batch(*batch_graphs(coll, idx), 2)
                       for idx in (np.arange(6), np.arange(6, 8)))
    store = init_params(cfg, coll.n_features, 2, 0, "graph")
    return cfg, prep, test_prep, store


class TestTapeNodes:
    """Every ReLU of a training step is fused into its neighbouring op: a
    layer boundary is one relu_dropout node and a GIN transform one
    block_mlp node."""

    @pytest.mark.parametrize("kind", ["gcn", "gin"])
    def test_theta_and_phi_steps_hold_no_relu_node(self, kind, monkeypatch):
        layers = dict(encoder_layers=2, bank_layers=3, composer_layers=2, dropout=0.5)
        if kind == "gin":
            coll = synthetic_collection(n_graphs=6, seed=1)
            cfg = ModelConfig(n_metacommunities=2, communities_per_block=1,
                              hidden_dim=8, layer_kind="gin", **layers)
            prep = prepare_graph_batch(*batch_graphs(coll, np.arange(6)), 2)
            store = init_params(cfg, coll.n_features, 2, 0, "graph")
        else:
            _graph, cfg, prep, store = node_setup(**layers)
        tapes = []
        descend = training._descend

        def recording(store, loss, *args):
            tapes.append(Counter(node.op for node in dm._topo_order(loss)))
            return descend(store, loss, *args)

        monkeypatch.setattr(training, "_descend", recording)
        finetune(prep, store, cfg, TrainConfig(finetune_epochs=1, inner_steps=2),
                 seed=0, eval_train=False)
        *theta, phi = tapes
        assert len(theta) == 2
        transforms = cfg.bank_layers + cfg.composer_layers if kind == "gin" else 0
        for tape, boundaries in [(t, 3) for t in theta] + [(phi, 4)]:
            assert tape["relu"] == 0
            assert tape["relu_dropout"] == boundaries
            assert tape["block_mlp"] == transforms


def restriction_setup(kind, mode):
    """(cfg, prep, store, finetune kwargs) for one model kind under one
    partition mode, with dropout on so its masks are exercised."""
    if kind == "gin":
        cfg, prep, test_prep, store = gin_setup(partition_mode=mode, dropout=0.5)
        return cfg, prep, store, {"test_prep": test_prep}
    composer = "dense" if kind == "dense" else "gnn"
    _graph, cfg, prep, store = node_setup(partition_mode=mode, composer_kind=composer,
                                          dropout=0.5)
    return cfg, prep, store, {}


KINDS = ("gcn", "gin", "dense")
MODES = ("learned", "even", "random")


class TestPhiStepRestriction:
    """The phi step builds its bound on `detached(keep=phi and shared
    names)`: theta weights are constants on its tape, and the gradients it
    computes are those of the full store, bit for bit."""

    @staticmethod
    def _phi_loss(cfg, prep, tape_store):
        uniforms = encoder_uniforms(prep.n_nodes, cfg.total_communities, 0,
                                    "finetune", 0)
        _terms, loss, _aux = elbo(prep, tape_store, cfg, uniforms, TrainConfig(),
                                  seed=0, step=0)
        return loss

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_phi_gradients_equal_full_store(self, kind, mode):
        cfg, prep, store, _kw = restriction_setup(kind, mode)
        names = store.names(("phi", "shared"))
        grads = []
        for tape_store in (store, store.detached(keep=names)):
            store.zero_grad()
            dm.backward(self._phi_loss(cfg, prep, tape_store))
            grads.append({n: store.grad(n).copy() for n in names})
        assert any(np.any(g != 0) for g in grads[0].values())
        for name in names:
            assert np.array_equal(grads[0][name], grads[1][name]), name

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_theta_off_the_phi_tape(self, kind, mode):
        cfg, prep, store, _kw = restriction_setup(kind, mode)
        names = store.names(("phi", "shared"))
        theta = {id(store[n]): n for n in store.names("theta")}
        kept = store.detached(keep=names)
        loss = self._phi_loss(cfg, prep, kept)
        reached = [theta[id(node)] for node in dm._topo_order(loss) if id(node) in theta]
        assert reached == []
        # the same bound on the full store does reach them
        full = dm._topo_order(self._phi_loss(cfg, prep, store))
        assert any(id(node) in theta for node in full)

        store.zero_grad()
        _elbo_step(prep, kept, cfg, TrainConfig(), OptimizerState(), names, 1e-3,
                   encoder_uniforms(prep.n_nodes, cfg.total_communities, 0,
                                    "finetune", 0), step=0, seed=0)
        assert [n for n in store.names("theta") if store[n].grad is not None] == []
        assert all(store[n].grad is not None for n in names)

    @pytest.mark.parametrize("kind", KINDS)
    def test_finetune_phi_step_leaves_theta_grads(self, kind):
        """Each theta weight still holds its last theta step's gradient
        array after the phi step: no reverse product reached it."""
        cfg, prep, store, kwargs = restriction_setup(kind, "learned")
        theta = store.names("theta")
        held, checked = {}, []

        def cb(phase, store, **kw):
            if phase == "theta":
                held.update((n, store[n].grad) for n in theta)
            else:
                checked.append([n for n in theta if store[n].grad is not held[n]])

        finetune(prep, store, cfg,
                 TrainConfig(finetune_epochs=2, inner_steps=2, patience=100), seed=0,
                 step_callback=cb, **kwargs)
        assert checked == [[], []]

    @staticmethod
    def _finetune_state(kind, mode):
        cfg, prep, store, kwargs = restriction_setup(kind, mode)
        adams = (OptimizerState(), OptimizerState())
        result = finetune(prep, store, cfg,
                          TrainConfig(finetune_epochs=3, inner_steps=2, patience=100),
                          seed=0, optimizers=adams, **kwargs)
        return result.records, store.snapshot(), adams

    @pytest.mark.parametrize("kind,mode", [("gcn", "learned"), ("gin", "learned"),
                                           ("dense", "random")])
    def test_finetune_identical_without_restriction(self, monkeypatch, kind, mode):
        restricted = self._finetune_state(kind, mode)
        original = ParameterStore.detached
        monkeypatch.setattr(ParameterStore, "detached",
                            lambda self, keep=(): self if keep else original(self))
        full = self._finetune_state(kind, mode)
        assert restricted[0] == full[0]
        assert restricted[1].keys() == full[1].keys()
        for name, value in restricted[1].items():
            assert np.array_equal(value, full[1][name]), name
        for a, b in zip(restricted[2], full[2]):
            assert a.t == b.t and a.m.keys() == b.m.keys() == a.v.keys()
            for name in a.m:
                assert np.array_equal(a.m[name], b.m[name]), name
                assert np.array_equal(a.v[name], b.v[name]), name

    # Node constructions per pretraining epoch and per theta step, measured
    # before the phi step was restricted; those steps run on the live store
    # and must not pay for the restriction
    NODES_PER_STEP = {"gcn": (23, 29), "dense": (23, 27), "gin": (23, 43)}

    @pytest.mark.parametrize("kind", KINDS)
    def test_pretrain_and_theta_steps_build_no_more_nodes(self, monkeypatch, kind):
        cfg, prep, store, kwargs = restriction_setup(kind, "learned")
        count, init = [0], dm.Node.__init__

        def counting(self, *args, **kw):
            count[0] += 1
            init(self, *args, **kw)

        monkeypatch.setattr(dm.Node, "__init__", counting)
        marks = []
        pretrain(prep, store, cfg, TrainConfig(pretrain_epochs=3, patience=100),
                 epoch_callback=lambda **kw: marks.append(count[0]))
        per_epoch = np.diff(marks)
        marks = []
        finetune(prep, store, cfg,
                 TrainConfig(finetune_epochs=2, inner_steps=3, patience=100), seed=0,
                 step_callback=lambda phase, **kw: marks.append((phase, count[0])),
                 **kwargs)
        per_theta = [b[1] - a[1] for a, b in zip(marks, marks[1:])
                     if a[0] == b[0] == "theta"]
        pre_limit, theta_limit = self.NODES_PER_STEP[kind]
        assert len(per_epoch) == 2 and max(per_epoch) <= pre_limit
        assert len(per_theta) == 4 and max(per_theta) <= theta_limit


class TestTapeLifetime:
    """No tape outlives its training step: at every callback the losses of
    all steps so far are dead, and no differentiable node but the
    parameters is alive."""

    @staticmethod
    def _watch_losses(monkeypatch):
        import vepm.training as tr

        refs, original = [], tr.backward

        def keep_ref(loss):
            refs.append(weakref.ref(loss))
            return original(loss)

        monkeypatch.setattr(tr, "backward", keep_ref)
        return refs

    @staticmethod
    def _assert_no_tape(refs, n_steps):
        assert len(refs) == n_steps
        assert [r() for r in refs] == [None] * n_steps
        gc.collect()
        live = [o for o in gc.get_objects()
                if isinstance(o, dm.Node) and o.requires_grad and o.op != "param"]
        assert live == []

    def test_pretrain_epoch_frees_its_tape(self, monkeypatch):
        refs = self._watch_losses(monkeypatch)
        graph, cfg, prep, store = node_setup()
        epochs = []

        def cb(epoch, terms, store):
            epochs.append(epoch)
            self._assert_no_tape(refs, len(epochs))

        pretrain(prep, store, cfg, TrainConfig(pretrain_epochs=3, patience=100),
                 epoch_callback=cb)
        assert epochs == [0, 1, 2]

    @pytest.mark.parametrize("task", ["node", "graph"])
    def test_finetune_steps_free_their_tapes(self, monkeypatch, task):
        refs = self._watch_losses(monkeypatch)
        if task == "node":
            graph, cfg, prep, store = node_setup()
            kwargs = {}
        else:
            cfg, prep, test_prep, store = gin_setup()
            kwargs = {"test_prep": test_prep}
        phases = []

        def cb(epoch, phase, inner, partition, store):
            phases.append(phase)
            self._assert_no_tape(refs, len(phases))

        finetune(prep, store, cfg, TrainConfig(finetune_epochs=2, inner_steps=2,
                                               patience=100), seed=0,
                 step_callback=cb, **kwargs)
        # theta -> theta, theta -> phi and phi -> next epoch's theta
        assert phases == ["theta", "theta", "phi"] * 2


def test_metrics_format_stable():
    rows = [{"epoch": 0, "l_task": -1.5, "l_egen": -2.0, "l_kl": -0.25,
             "train_acc": 0.5, "val_acc": None, "test_acc": None}]
    text = format_metrics(rows)
    assert text.splitlines()[0] == "epoch,l_task,l_egen,l_kl,train_acc,val_acc,test_acc"
    assert text.splitlines()[1] == "0,-1.5,-2.0,-0.25,0.5,nan,nan"
