import numpy as np
import pytest
from scipy.special import expit
from scipy.special import gammaln as sp_gammaln
from scipy.stats import kstest

from conftest import masked_node_graph, synthetic_collection
from reference import (
    bernoulli_poisson_loglik_bruteforce,
    pairwise_rate,
    undirected_pairs,
    weibull_cdf,
    weibull_mean,
)
from vepm import diffmath as dm
from vepm import model, training
from vepm.diffmath import ParameterStore, finite_difference_check
from vepm.distributions import (
    EDGE_EPS,
    EULER_GAMMA,
    SCALE_MAX,
    SCALE_MIN,
    SHAPE_MAX,
    SHAPE_MIN,
    UNIFORM_EPS,
    DistributionError,
    bernoulli_poisson_loglik,
    block_structure,
    clamp_weibull,
    kl_weibull_gamma,
    kl_weibull_gamma_value,
    weibull_rsample,
)
from vepm.graphs import batch_graphs, sample_epm_graph
from vepm.rng import substream
from vepm.sparse import adjacency_from_edges
from vepm.verify import kl_quadrature


class TestWeibullSampler:
    def test_inverse_cdf_fixed_point(self):
        # at U = 1 - e^{-1} the transform returns the scale for any shape
        u = np.full((3, 2), 1.0 - np.exp(-1.0))
        k = dm.constant(np.array([[0.5, 1.0], [2.0, 7.0], [1.3, 3.3]]))
        lam = dm.constant(np.array([[1.0, 2.0], [0.5, 4.0], [3.0, 0.1]]))
        z = weibull_rsample(k, lam, u)
        np.testing.assert_allclose(z.value, lam.value, rtol=1e-12)

    def test_unit_exponential_mean(self):
        u = substream(0, "wmean").random((200_000, 1))
        z = weibull_rsample(dm.constant(np.ones_like(u)), dm.constant(np.ones_like(u)), u)
        assert abs(z.value.mean() - 1.0) < 0.01

    def test_mean_matches_gamma_function(self):
        u = substream(1, "wmean2").random((200_000, 1))
        z = weibull_rsample(dm.constant(2 * np.ones_like(u)), dm.constant(np.ones_like(u)), u)
        expected = weibull_mean(2.0, 1.0)
        assert abs(expected - 0.8862269) < 1e-6
        assert abs(z.value.mean() - expected) / expected < 0.01

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_kolmogorov_smirnov(self, k, lam):
        u = substream(int(k * 10), "ks", int(lam * 10)).random((100_000, 1))
        z = weibull_rsample(dm.constant(np.full_like(u, k)),
                            dm.constant(np.full_like(u, lam)), u)
        stat = kstest(z.value.ravel(), lambda x: weibull_cdf(x, k, lam)).statistic
        assert stat < 0.01

    def test_gradient(self):
        store = ParameterStore()
        store.add("k", np.array([[1.5, 0.8], [2.2, 1.0]]), "phi")
        store.add("lam", np.array([[1.0, 0.4], [2.0, 1.3]]), "phi")
        u = substream(3, "wgrad").random((2, 2))
        mix = substream(4, "wgradmix").standard_normal((2, 2))

        def builder():
            z = weibull_rsample(store["k"], store["lam"], u)
            return dm.reduce_sum(dm.elementwise_mul(z, dm.constant(mix)))

        assert finite_difference_check(builder, store, samples=16, seed=0) < 1e-6

    def test_extreme_uniforms_clamped(self):
        u = np.array([[0.0, 1.0]])
        z = weibull_rsample(dm.constant(np.ones((1, 2))), dm.constant(np.ones((1, 2))), u)
        assert np.all(np.isfinite(z.value)) and np.all(z.value >= 0)


class TestWeibullGammaKL:
    def test_identical_distributions_zero(self):
        assert abs(kl_weibull_gamma_value(1.0, 1.0, 1.0, 1.0)) < 1e-12

    def test_frozen_quadrature_value(self):
        # numerical integration of the divergence gives 0.29077 here
        assert abs(kl_weibull_gamma_value(2.0, 1.0, 1.0, 1.0) - 0.29077) < 1e-4

    def test_grid_matches_quadrature(self):
        grid = (0.5, 1.0, 2.0)
        for k in grid:
            for lam in grid:
                for a in grid:
                    for b in grid:
                        closed = kl_weibull_gamma_value(k, lam, a, b)
                        assert closed > -1e-12
                        assert abs(closed - kl_quadrature(k, lam, a, b)) < 1e-4

    def test_elementwise_node_matches_scalar(self):
        kv = np.array([[0.7, 1.4]])
        lv = np.array([[1.2, 0.6]])
        node = kl_weibull_gamma(dm.constant(kv), dm.constant(lv), 1.5, 0.5)
        ref = [[kl_weibull_gamma_value(0.7, 1.2, 1.5, 0.5),
                kl_weibull_gamma_value(1.4, 0.6, 1.5, 0.5)]]
        np.testing.assert_allclose(node.value, ref, atol=1e-12)

    def test_gradient(self):
        store = ParameterStore()
        store.add("k", np.array([[1.5, 0.8], [2.2, 1.0]]), "phi")
        store.add("lam", np.array([[1.0, 0.4], [2.0, 1.3]]), "phi")

        def builder():
            return dm.reduce_sum(kl_weibull_gamma(store["k"], store["lam"], 1.0, 1.0))

        assert finite_difference_check(builder, store, samples=16, seed=1) < 1e-6

    def test_rejects_bad_prior(self):
        with pytest.raises(DistributionError):
            kl_weibull_gamma(dm.constant(np.ones(1)), dm.constant(np.ones(1)), -1.0, 1.0)


class TestPairwiseRate:
    def test_zero_row_gives_zero_rates(self):
        z = np.ones((4, 6))
        z[1] = 0.0
        rates = pairwise_rate(z, np.ones(6), 1, 2, 3)
        np.testing.assert_array_equal(rates, np.zeros(3))

    def test_single_block_scalar_product(self):
        z = np.array([[2.0], [3.0]])
        rates = pairwise_rate(z, np.array([0.5]), 0, 1, 1)
        np.testing.assert_allclose(rates, [3.0])

    def test_block_sums_invariant_to_within_block_permutation(self):
        rng = substream(2, "pairrate")
        z = rng.random((5, 8))
        gamma = rng.random(8) + 0.1
        base = pairwise_rate(z, gamma, 0, 3, 4)
        perm = np.array([1, 0, 2, 3, 5, 4, 7, 6])  # permutes inside blocks
        again = pairwise_rate(z[:, perm], gamma[perm], 0, 3, 4)
        np.testing.assert_allclose(base, again, atol=1e-12)

    def test_total_rate_is_block_sum(self):
        rng = substream(3, "pairrate2")
        z = rng.random((4, 6))
        gamma = rng.random(6)
        rates = pairwise_rate(z, gamma, 1, 2, 2)
        np.testing.assert_allclose(rates.sum(), np.sum(gamma * z[1] * z[2]), atol=1e-12)

    def test_indivisible_rejected(self):
        with pytest.raises(DistributionError):
            block_structure(7, 2)


class TestBernoulliPoisson:
    def test_zero_rates_empty_graph(self):
        adj = adjacency_from_edges(5, np.zeros((0, 2), np.int64))
        out = bernoulli_poisson_loglik(adj, dm.constant(np.zeros((5, 3))),
                                       dm.constant(np.ones(3)))
        assert out.value == 0.0

    def test_single_edge_rate_ln2(self):
        adj = adjacency_from_edges(2, np.array([[0, 1]]))
        z = np.array([[np.sqrt(np.log(2.0))], [np.sqrt(np.log(2.0))]])
        out = bernoulli_poisson_loglik(adj, dm.constant(z), dm.constant(np.ones(1)))
        assert abs(float(out.value) - np.log(0.5)) < 1e-9

    def test_impossible_edge_guarded(self):
        adj = adjacency_from_edges(2, np.array([[0, 1]]))
        out = bernoulli_poisson_loglik(adj, dm.constant(np.zeros((2, 2))),
                                       dm.constant(np.ones(2)))
        assert np.isfinite(out.value)
        assert abs(float(out.value) - np.log(1e-10)) < 1e-6

    @pytest.mark.parametrize("n", [10, 60, 200])
    def test_closed_form_matches_bruteforce(self, n):
        graph, _ = sample_epm_graph(n, 3, 1.0, 1.0, np.full(3, 0.05), seed=n)
        rng = substream(n, "bp")
        z = rng.gamma(1.0, 1.0, (n, 3))
        gamma = rng.random(3) + 0.2
        fast = float(bernoulli_poisson_loglik(graph.adjacency, dm.constant(z),
                                              dm.constant(gamma)).value)
        slow = bernoulli_poisson_loglik_bruteforce(graph.adjacency, z, gamma)
        assert abs(fast - slow) / abs(slow) < 1e-8

    def test_batched_graphs_sum_of_parts(self):
        from conftest import synthetic_collection
        from vepm.graphs import batch_graphs

        coll = synthetic_collection(n_graphs=5, seed=4)
        union, gids, _ = batch_graphs(coll, np.arange(5))
        rng = substream(7, "bpbatch")
        z = rng.gamma(1.0, 1.0, (union.n_nodes, 2))
        gamma = np.array([0.3, 0.8])
        total = float(bernoulli_poisson_loglik(union.adjacency, dm.constant(z),
                                               dm.constant(gamma), graph_ids=gids,
                                               n_graphs=5).value)
        offset, parts = 0, 0.0
        for g in coll.graphs:
            zg = z[offset : offset + g.n_nodes]
            parts += float(bernoulli_poisson_loglik(g.adjacency, dm.constant(zg),
                                                    dm.constant(gamma)).value)
            offset += g.n_nodes
        assert abs(total - parts) < 1e-8 * abs(parts)

    def test_gradient(self):
        graph, _ = sample_epm_graph(12, 2, 1.0, 1.0, np.full(2, 0.1), seed=9)
        store = ParameterStore()
        rng = substream(9, "bpgrad")
        store.add("z", rng.gamma(1.0, 1.0, (12, 2)) + 0.2, "phi")
        store.add("gamma", rng.random(2) + 0.3, "shared")

        def builder():
            return bernoulli_poisson_loglik(graph.adjacency, store["z"], store["gamma"])

        assert finite_difference_check(builder, store, samples=30, seed=3) < 1e-4


def test_clamp_weibull_bounds():
    shape, scale = clamp_weibull(dm.constant(np.array([-100.0, 0.0, 100.0])),
                                 dm.constant(np.array([-100.0, 0.0, 100.0])))
    assert shape.value[0] == 1e-2 and shape.value[2] == 1e2
    np.testing.assert_allclose(shape.value[1], np.log(2.0))
    assert scale.value[0] == 1e-8


# ---------------------------------------------------------------------------
# each fused ELBO term against the chain of generic tape ops that computes
# the same formula


def _chain_softplus(a):
    av = a.value
    return dm.make_node("softplus", np.logaddexp(0.0, av), (a,),
                        lambda g, needs: (g * expit(av),))


def _chain_clamp_weibull(shape_raw, scale_raw):
    return (dm.clip(_chain_softplus(shape_raw), SHAPE_MIN, SHAPE_MAX),
            dm.clip(_chain_softplus(scale_raw), SCALE_MIN, SCALE_MAX))


def _chain_weibull_rsample(shape_k, scale, uniforms):
    u = np.clip(np.asarray(uniforms, dtype=np.float64), UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    log_c = dm.constant(np.log(-np.log1p(-u)))
    return dm.elementwise_mul(
        scale, dm.exp(dm.elementwise_mul(log_c, dm.power(shape_k, -1.0))))


def _chain_kl(shape_k, scale, alpha, beta):
    kinv = dm.power(shape_k, -1.0)
    gamma_term = dm.exp(dm.gammaln(dm.constant(1.0) + kinv))
    const = -EULER_GAMMA - 1.0 - alpha * np.log(beta) + float(sp_gammaln(alpha))
    out = dm.constant(-alpha) * dm.log(scale)
    out = out + dm.constant(EULER_GAMMA * alpha) * kinv
    out = out + dm.log(shape_k)
    out = out + dm.constant(beta) * dm.elementwise_mul(scale, gamma_term)
    return out + dm.constant(const)


def _chain_loglik(adjacency, z, gamma, graph_ids=None, n_graphs=1):
    iu, ju = undirected_pairs(adjacency)
    zg = dm.elementwise_mul(z, gamma)
    edge_term = edge_rate_sum = dm.constant(0.0)
    if iu.size:
        rates = dm.reduce_sum(
            dm.elementwise_mul(dm.gather_rows(zg, iu), dm.gather_rows(z, ju)), axis=1)
        one = dm.constant(1.0 + EDGE_EPS)
        edge_term = dm.reduce_sum(dm.log(one + dm.negate(dm.exp(dm.negate(rates)))))
        edge_rate_sum = dm.reduce_sum(rates)
    if graph_ids is None:
        col_sums = dm.reshape(dm.reduce_sum(z, axis=0), (1, z.value.shape[1]))
    else:
        col_sums = dm.scatter_add_rows(z, graph_ids, n_graphs)
    sq = dm.elementwise_mul(dm.power(col_sums, 2.0), gamma)
    diag = dm.elementwise_mul(dm.power(z, 2.0), gamma)
    total_rate = dm.constant(0.5) * (dm.reduce_sum(sq) + dm.negate(dm.reduce_sum(diag)))
    return edge_term + dm.negate(total_rate + dm.negate(edge_rate_sum))


def _use_chains(monkeypatch):
    monkeypatch.setattr(dm, "softplus", _chain_softplus)
    monkeypatch.setattr(model, "clamp_weibull", _chain_clamp_weibull)
    monkeypatch.setattr(model, "weibull_rsample", _chain_weibull_rsample)
    monkeypatch.setattr(training, "kl_weibull_gamma", _chain_kl)
    monkeypatch.setattr(training, "bernoulli_poisson_loglik", _chain_loglik)


class TestFusedTermsMatchOpChains:
    def test_sample_and_kl_forward_bit_for_bit(self):
        rng = substream(21, "fused-forward")
        k = dm.constant(rng.uniform(SHAPE_MIN, 5.0, (50, 6)))
        lam = dm.constant(rng.uniform(0.01, 10.0, (50, 6)))
        u = rng.random((50, 6))
        np.testing.assert_array_equal(weibull_rsample(k, lam, u).value,
                                      _chain_weibull_rsample(k, lam, u).value)
        np.testing.assert_array_equal(kl_weibull_gamma(k, lam, 1.3, 0.7).value,
                                      _chain_kl(k, lam, 1.3, 0.7).value)

    def test_softplus_within_4_ulps(self):
        x = np.concatenate([substream(22, "softplus-ulps").uniform(-40.0, 40.0, 20000),
                            [-800.0, -30.0, -1e-300, 0.0, 1e-300, 30.0, 800.0]])
        ref = np.logaddexp(0.0, x)
        got = dm.softplus(dm.constant(x)).value
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))
        lo, hi = 0.1, 3.0
        np.testing.assert_array_equal(dm.softplus(dm.constant(x), lo, hi).value,
                                      np.clip(got, lo, hi))

    def test_edge_loglik_value_and_gradients(self):
        graph, _ = sample_epm_graph(40, 3, 1.0, 1.0, np.full(3, 0.1), seed=23)
        rng = substream(23, "fused-loglik")
        z, gamma = rng.gamma(1.0, 1.0, (40, 3)), rng.random(3) + 0.2

        def evaluate(fn, **kw):
            store = ParameterStore()
            store.add("z", z, "phi")
            store.add("gamma", gamma, "shared")
            loss = fn(graph.adjacency, store["z"], store["gamma"], **kw)
            dm.backward(loss)
            return float(loss.value), store.grad("z"), store.grad("gamma")

        for kw in ({}, {"graph_ids": np.repeat(np.arange(4), 10), "n_graphs": 4}):
            got = evaluate(bernoulli_poisson_loglik, **kw)
            ref = evaluate(_chain_loglik, **kw)
            assert abs(got[0] - ref[0]) <= 1e-13 * abs(ref[0])
            for a, b in zip(got[1:], ref[1:]):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @staticmethod
    def _step_gradients(prep, store, cfg, uniforms, **kw):
        """The parameter gradients of one training step's loss."""
        tcfg = training.TrainConfig()
        _terms, loss, _aux = training.elbo(prep, store, cfg, uniforms, tcfg,
                                           seed=5, step=3, **kw)
        store.zero_grad()
        dm.backward(loss)
        names = store.names(("phi", "shared"))
        return {n: store.grad(n).copy() for n in names}

    @pytest.mark.parametrize("run", ["gcn-node", "gin-graph", "sampler"])
    @pytest.mark.parametrize("step", ["pretrain", "phi"])
    def test_training_step_gradients(self, monkeypatch, run, step):
        if run == "gin-graph":
            coll = synthetic_collection(n_graphs=6, seed=3)
            union, gids, labels = batch_graphs(coll, np.arange(6))
            prep = model.prepare_graph_batch(union, gids, labels, 2)
            cfg = model.ModelConfig(n_metacommunities=2, communities_per_block=2,
                                    hidden_dim=8, layer_kind="gin", dropout=0.5)
            task = "graph"
        else:
            prep = model.prepare_node_graph(masked_node_graph(seed=4, n=60))
            cfg = model.ModelConfig(n_metacommunities=4, communities_per_block=2,
                                    hidden_dim=16, dropout=0.5)
            task = "node"
        store = model.init_params(cfg, prep.graph.n_features, prep.n_classes, 2, task)
        uniforms = model.encoder_uniforms(prep.n_nodes, cfg.total_communities, 6, "ref")
        kw = {"include_task": step == "phi"}
        if run == "sampler":
            kw["sub"] = training.sample_subgraph(
                prep.graph, training.SamplerConfig(enabled=True, n_sub=25),
                substream(6, "ref-sampler"))
        fused = self._step_gradients(prep, store, cfg, uniforms, **kw)
        with monkeypatch.context() as m:
            _use_chains(m)
            chain = self._step_gradients(prep, store, cfg, uniforms, **kw)
        largest = max(np.abs(g).max() for g in chain.values())
        worst = max(np.abs(fused[n] - chain[n]).max() for n in chain)
        assert worst <= 1e-12 * largest
