"""Self-contained verification suites: gradient checks against central
differences, the analytic KL against numerical integration, the subgraph
sampling distribution, and the edge-partition invariants.

Each check prints one PASS/FAIL line with the measured value; suites are
wired to the `verify` CLI command and reused by the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln as sp_gammaln

from . import diffmath as dm
from .diffmath import ParameterStore, finite_difference_check
from .distributions import (
    bernoulli_poisson_loglik,
    kl_weibull_gamma,
    kl_weibull_gamma_value,
    weibull_rsample,
)
from .graphs import Graph, GraphCollection, batch_graphs, sample_epm_graph
from .model import (
    EdgePartition,
    ModelConfig,
    init_params,
    encoder_uniforms,
    partition_edges,
    prepare_graph_selection,
    prepare_node_graph,
)
from .rng import substream
from .sparse import adjacency_from_edges, normalize_adjacency
from .training import TrainConfig, elbo, finetune, pretrain, subsample_probabilities


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: measured={self.measured:.6g} bound={self.bound}"


def _avoid_kinks(rng, shape, low=-2.0, high=2.0, margin=1e-3):
    x = rng.uniform(low, high, shape)
    while np.any(np.abs(x) < margin):
        bad = np.abs(x) < margin
        x[bad] = rng.uniform(low, high, bad.sum())
    return x


# ---------------------------------------------------------------------------
# gradcheck suite


def _primitive_cases():
    """The gradient cases by name. Each maps its own generator to the
    case's parameters (name -> array, drawn on the domain its op is checked
    on) and to a build that returns the op's output node or nodes."""
    n, d, k = 5, 4, 3
    adj = adjacency_from_edges(n, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]))
    a_norm = normalize_adjacency(adj)
    # node 4 is isolated: its output row is zero and its input row gets no gradient
    adj_iso = adjacency_from_edges(n, np.array([[0, 1], [1, 2], [2, 3], [0, 3], [1, 3]]))
    idx = np.array([0, 2, 2, 4, 1])
    # a triangle and an edge, batched into one 5-node union
    pieces = [adjacency_from_edges(3, np.array([[0, 1], [1, 2], [0, 2]])),
              adjacency_from_edges(2, np.array([[0, 1]]))]
    union, union_ids, _ = batch_graphs(
        GraphCollection(graphs=[Graph(adjacency=p, features=np.ones((p.n_rows, 1)))
                                for p in pieces], graph_labels=np.array([0, 1])),
        np.arange(2))
    edgeless = adjacency_from_edges(n, np.zeros((0, 2), np.int64))
    # K = 2 blocks of 2 communities on the support with isolated node 4
    part_cfg = ModelConfig(n_metacommunities=2, communities_per_block=2, tau=0.7)

    def kinkfree(*shape):
        return lambda rng: _avoid_kinks(rng, shape)

    def uniform(low, high, *shape):
        return lambda rng: rng.uniform(low, high, shape)

    def normal(*shape):
        return lambda rng: rng.standard_normal(shape)

    def case(op, **draws):
        """`op` of the parameters, drawn and passed in keyword order."""
        return lambda rng: ({p: draw(rng) for p, draw in draws.items()},
                            lambda s: op(*(s[p] for p in draws)))

    x, pos, stacked = kinkfree(n, d), uniform(0.5, 2.5, n, d), kinkfree(k * n, d)
    # edge weights of one part, and of K parts, different on the two
    # directions of an edge
    w_edge, w_parts = uniform(0.5, 2.0, adj_iso.nnz, 1), uniform(0.5, 2.0, adj_iso.nnz, k)
    z, gamma = uniform(0.2, 1.5, n, d), uniform(0.3, 1.2, d)
    spmm = partial(dm.edge_spmm, adj_iso)

    def softplus_bounded(rng):
        raw = rng.uniform(-3.0, 3.0, (n, d))
        # bounds halfway between the 4th and 5th softplus values from each
        # end: 4 entries are clamped on each side, and none sits on a bound
        ordered = np.sort(np.logaddexp(0.0, raw), axis=None)
        lo, hi = (ordered[3] + ordered[4]) / 2, (ordered[-5] + ordered[-4]) / 2
        return {"x": raw}, lambda s: dm.softplus(s["x"], lo, hi)

    def weibull(rng):
        u = rng.uniform(0.05, 0.95, (n, d))
        return case(lambda k, lam: weibull_rsample(k, lam, u), k=pos, lam=pos)(rng)

    cases = {
        "add": case(dm.add, x=x, y=x),
        "negate": case(dm.negate, x=x),
        "elementwise_mul": case(dm.elementwise_mul, x=x, y=x),
        "matmul": case(dm.matmul, x=x, w=kinkfree(d, 3)),
        "matmul_bias": case(dm.matmul, x=x, w=kinkfree(d, 3), b=normal(3)),
        "sparse_dense_matmul": case(partial(dm.sparse_dense_matmul, a_norm), x=x),
        "edge_spmm": case(lambda w, x: spmm(w, x, dm.constant(np.zeros(1))), w=w_edge, x=x),
        "edge_spmm_diag": case(spmm, w=w_edge, x=x, d=uniform(0.5, 2.0, n, 1)),
        "edge_spmm_diag_scalar": case(spmm, w=w_edge, x=x, d=lambda rng: np.array([1.3])),
        "edge_spmm_parts": case(spmm, w=w_parts, x=stacked, d=uniform(0.5, 2.0, n, k)),
        "edge_spmm_parts_shared": case(spmm, w=w_parts, x=x, d=uniform(0.5, 2.0, k)),
        "edge_spmm_parts_scalar": case(spmm, w=w_parts, x=stacked, d=uniform(0.5, 2.0, k)),
        "matmul_blocks": case(dm.matmul, x=stacked, w=kinkfree(k * d, 3), b=normal(k, 3)),
        "column_blocks_to_rows": case(lambda x: dm.column_blocks_to_rows(x, k),
                                      x=normal(n, k * d)),
        "row_blocks_to_columns": case(lambda x: dm.row_blocks_to_columns(x, k), x=stacked),
        "relu": case(dm.relu, x=x),
        "softplus": case(dm.softplus, x=x),
        "log": case(dm.log, x=pos),
        "exp": case(dm.exp, x=x),
        "power": case(lambda x: dm.power(x, -0.5), x=pos),
        "clip": case(lambda x: dm.clip(x, 0.6, 2.2), x=pos),
        "gammaln": case(dm.gammaln, x=pos),
        "reduce_sum_all": case(dm.reduce_sum, x=x),
        "reduce_sum_axis0": case(lambda x: dm.reduce_sum(x, axis=0), x=x),
        "reduce_sum_axis1": case(lambda x: dm.reduce_sum(x, axis=1), x=x),
        "concat_columns": case(lambda x, y: dm.concat_columns([x, y]), x=x, y=x),
        "slice_columns": case(lambda x: dm.slice_columns(x, 1, 3), x=x),
        "slice_rows": case(lambda x: dm.slice_rows(x, 1, 3), x=x),
        "reshape": case(lambda x: dm.reshape(x, (d, n)), x=x),
        "gather_rows": case(lambda x: dm.gather_rows(x, idx), x=x),
        "scatter_add_rows": case(lambda x: dm.scatter_add_rows(x, idx, n), x=x),
        "row_softmax_tau": case(lambda x: dm.row_softmax_with_temperature(x, 0.7), x=x),
        "log_softmax_rows": case(dm.log_softmax_rows, x=x),
        "dropout": case(lambda x: dm.dropout(x, 0.4, [substream(11, "dropmask")]), x=x),
        "relu_dropout": case(lambda x: dm.relu_dropout(x, 0.4, substream(11, "relu-dropout")),
                             x=stacked),
        # one K = 1 and one K-block two-layer transform
        "block_mlp": case(dm.block_mlp, h=normal(n, d), w1=normal(d, 3), b1=normal(3),
                          w2=normal(3, 3), b2=normal(3)),
        "block_mlp_blocks": case(dm.block_mlp, h=normal(k * n, d), w1=normal(k * d, 3),
                                 b1=normal(k, 3), w2=normal(k * 3, 3), b2=normal(k, 3)),
        "softplus_bounded": softplus_bounded,
        "weibull_rsample": weibull,
        "kl_weibull_gamma": case(lambda k, lam: kl_weibull_gamma(k, lam, 1.3, 0.7),
                                 k=pos, lam=pos),
    }
    for name, support, kw in (
            ("edge_loglik", adj, {}),
            ("edge_loglik_batch", union.adjacency, {"graph_ids": union_ids, "n_graphs": 2}),
            ("edge_loglik_edgeless", edgeless, {})):
        cases[name] = case(lambda z, gamma, support=support, kw=kw: bernoulli_poisson_loglik(
            support, z, gamma, **kw), z=z, gamma=gamma)
    cases["partition_learned"] = case(
        lambda z, gamma: partition_edges(adj_iso, z, gamma, part_cfg, 0).weights,
        z=z, gamma=gamma)
    cases["gcn_normalization"] = case(
        lambda w: EdgePartition(support=adj_iso, weights=w).gcn_normalization()[:2],
        w=w_parts)
    return cases


def gradcheck_case(name: str, seed: int):
    """The store and loss builder of gradient case `name`, all drawn from
    the case's own generator: first its parameters, then one constant of
    each non-scalar output's shape. The loss sums every scalar output and,
    for each other output, its elementwise product with its constant, so
    every input coordinate receives gradient."""
    rng = substream(seed, "gradcheck", name)
    params, build = _primitive_cases()[name](rng)
    store = ParameterStore()
    for p, value in params.items():
        # the community activations are shared by the phi and theta steps
        store.add(p, value, "shared" if p == "gamma" else "phi")

    def outputs():
        out = build(store)
        return out if isinstance(out, tuple) else (out,)

    mixes = [None if np.ndim(o.value) == 0 else rng.standard_normal(o.value.shape)
             for o in outputs()]

    def loss():
        terms = [o if m is None else dm.reduce_sum(dm.elementwise_mul(o, dm.constant(m)))
                 for o, m in zip(outputs(), mixes)]
        return sum(terms[1:], terms[0])

    return store, loss


def gradcheck_suite(seed: int = 0) -> list[CheckResult]:
    results = []
    for name in _primitive_cases():
        store, loss = gradcheck_case(name, seed)
        err = finite_difference_check(loss, store, eps=1e-5, samples=40, seed=seed)
        results.append(CheckResult(f"gradcheck/{name}", err < 1e-6, err, "< 1e-6"))
    results.append(_full_elbo_check("full_elbo", elbo_check_setup, seed))
    results.append(_full_elbo_check("full_elbo_gin", gin_elbo_check_setup, seed))
    results.append(_phi_step_restricted_check(seed))
    return results


def elbo_check_setup(seed: int = 7, **overrides):
    """30-node synthetic graph with dense features for gradient checks;
    `overrides` replace ModelConfig fields."""
    feats = substream(seed, "feat").standard_normal((30, 8))
    graph, _ = sample_epm_graph(30, 4, 1.0, 1.0, np.full(4, 0.15), seed=seed,
                                within_boost=6.0, features=feats)
    graph.train_mask = np.zeros(30, bool)
    graph.train_mask[:10] = True
    cfg = replace(ModelConfig(n_metacommunities=4, communities_per_block=1,
                              hidden_dim=16, dropout=0.0), **overrides)
    prep = prepare_node_graph(graph)
    store = init_params(cfg, graph.n_features, graph.n_classes(), seed=1,
                        task="node")
    uniforms = encoder_uniforms(30, cfg.total_communities, seed, "elbo-check")
    tcfg = TrainConfig(pretrain_epochs=1, finetune_epochs=1)
    return prep, store, cfg, tcfg, uniforms


def _full_elbo_check(name: str, setup, seed: int) -> CheckResult:
    prep, store, cfg, tcfg, uniforms = setup(seed)

    def builder():
        _terms, loss, _aux = elbo(prep, store, cfg, uniforms, tcfg, seed=seed)
        return loss

    err = finite_difference_check(builder, store, eps=1e-5, samples=200, seed=seed)
    return CheckResult(f"gradcheck/{name}", err < 1e-4, err, "< 1e-4")


def _phi_step_restricted_check(seed: int) -> CheckResult:
    """The phi step differentiates the bound on `detached(keep=phi and
    shared names)`, so every theta weight is a constant on its tape. Its
    gradients must equal those of the same step on the full store, bit for
    bit, on the GCN-node and GIN-graph setups at dropout 0.3, so that both
    tapes draw `relu_dropout` masks as training does."""
    worst = 0.0
    for setup in (elbo_check_setup, gin_elbo_check_setup):
        prep, store, cfg, tcfg, uniforms = setup(seed, dropout=0.3)
        names = store.names(("phi", "shared"))
        grads = []
        for tape_store in (store, store.detached(keep=names)):
            store.zero_grad()
            _terms, loss, _aux = elbo(prep, tape_store, cfg, uniforms, tcfg,
                                      seed=seed, step=1)
            dm.backward(loss)
            grads.append([store.grad(n).copy() for n in names])
        worst = max([worst] + [float(np.abs(a - b).max()) for a, b in zip(*grads)])
    return CheckResult("gradcheck/phi_step_restricted", worst == 0.0, worst, "exactly 0")


def gin_elbo_check_setup(seed: int = 7, **overrides):
    """Union of four small graphs with dense features, GIN bank and
    composer, for gradient checks of the graph task; `overrides` replace
    ModelConfig fields.

    The parameters are set so that every coordinate's gradient stands well
    above the round-off of central differences:
    - every GIN bias is positive, so no node feeds exactly 0 (the ReLU
      kink) into the next layer, and hidden units are live rather than
      dead on all but a few nodes, where both gradients are round-off;
    - the GIN weights are halved, because sum aggregation and sum pooling
      compound the magnitudes layer over layer;
    - the readout weights are scaled to keep the logits of order one, so
      the softmax does not saturate and every graph contributes gradient.
    """
    rng = substream(seed, "gin-check")
    graphs = []
    for g in range(4):
        n = 5 + g
        feats = rng.standard_normal((n, 3))
        graph, _ = sample_epm_graph(n, 2, 1.0, 1.0, np.full(2, 0.5), seed=seed + g,
                                    within_boost=3.0, features=feats)
        graphs.append(graph)
    prep = prepare_graph_selection(
        GraphCollection(graphs=graphs, graph_labels=np.array([0, 1, 1, 0])), np.arange(4))
    cfg = replace(ModelConfig(n_metacommunities=2, communities_per_block=1,
                              hidden_dim=8, layer_kind="gin", dropout=0.0), **overrides)
    store = init_params(cfg, prep.graph.n_features, 2, seed=1, task="graph")
    for name in store.names():
        value = store[name].value
        if name.endswith((".b1", ".b2")):
            store.set_value(name, rng.uniform(0.5, 1.0, value.shape))
        elif name.endswith((".W1", ".W2")):
            store.set_value(name, 0.5 * value)
    store.set_value("out.W", 0.3 * store["out.W"].value)
    uniforms = encoder_uniforms(prep.n_nodes, cfg.total_communities, seed, "gin-check")
    tcfg = TrainConfig(pretrain_epochs=1, finetune_epochs=1)
    return prep, store, cfg, tcfg, uniforms


# ---------------------------------------------------------------------------
# kl suite


def kl_quadrature(k: float, lam: float, alpha: float, beta: float) -> float:
    """KL(Weibull || Gamma) by integrating E_q[log q - log p] after the
    substitution u = (x / lam)^k, which removes the density singularity."""

    def integrand(u):
        x = lam * u ** (1.0 / k)
        log_q = np.log(k) - k * np.log(lam) + (k - 1.0) * np.log(x) - u
        log_p = alpha * np.log(beta) - sp_gammaln(alpha) + (alpha - 1.0) * np.log(x) - beta * x
        return np.exp(-u) * (log_q - log_p)

    value, _err = quad(integrand, 0.0, np.inf, limit=200)
    return float(value)


def kl_suite(seed: int = 0) -> list[CheckResult]:
    results = []
    base = kl_weibull_gamma_value(1.0, 1.0, 1.0, 1.0)
    results.append(CheckResult("kl/identical_distributions", abs(base) < 1e-12,
                               abs(base), "|KL(W(1,1)||Ga(1,1))| < 1e-12"))
    grid = (0.5, 1.0, 2.0)
    worst_gap, worst_neg = 0.0, 0.0
    for k in grid:
        for lam in grid:
            for alpha in grid:
                for beta in grid:
                    closed = kl_weibull_gamma_value(k, lam, alpha, beta)
                    numeric = kl_quadrature(k, lam, alpha, beta)
                    worst_gap = max(worst_gap, abs(closed - numeric))
                    worst_neg = min(worst_neg, closed)
    results.append(CheckResult("kl/matches_quadrature_grid", worst_gap < 1e-4,
                               worst_gap, "max |closed - quadrature| < 1e-4"))
    results.append(CheckResult("kl/nonnegative_grid", worst_neg > -1e-12,
                               worst_neg, "min KL > -1e-12"))

    # the differentiable path must agree with the scalar closed form
    store = ParameterStore()
    kn = store.add("k", np.array([[0.5, 1.0], [2.0, 1.5]]), "phi")
    ln = store.add("lam", np.array([[1.0, 0.5], [2.0, 1.0]]), "phi")
    node = kl_weibull_gamma(kn, ln, 1.0, 1.0)
    ref = np.array([[kl_weibull_gamma_value(0.5, 1.0, 1.0, 1.0),
                     kl_weibull_gamma_value(1.0, 0.5, 1.0, 1.0)],
                    [kl_weibull_gamma_value(2.0, 2.0, 1.0, 1.0),
                     kl_weibull_gamma_value(1.5, 1.0, 1.0, 1.0)]])
    gap = float(np.abs(node.value - ref).max())
    results.append(CheckResult("kl/graph_matches_closed_form", gap < 1e-12,
                               gap, "< 1e-12"))
    return results


# ---------------------------------------------------------------------------
# sampler suite


def sampler_suite(seed: int = 0) -> list[CheckResult]:
    results = []
    rng = substream(seed, "sampler-verify")
    worst = 0.0
    for _ in range(50):
        degrees = rng.integers(0, 30, size=int(rng.integers(2, 60))).astype(float)
        if degrees.sum() == 0:
            degrees[0] = 1.0
        p = subsample_probabilities(degrees, rng.uniform(0, 1), rng.uniform(0, 3))
        worst = max(worst, abs(p.sum() - 1.0))
    results.append(CheckResult("sampler/probabilities_sum_to_one", worst < 1e-12,
                               worst, "|sum p - 1| < 1e-12"))

    p = subsample_probabilities(np.array([2.0, 1.0, 1.0]), 0.9, 1.0)
    gap = float(np.abs(p - np.array([0.475, 0.2625, 0.2625])).max())
    results.append(CheckResult("sampler/three_node_example", gap < 1e-15, gap,
                               "matches (0.475, 0.2625, 0.2625)"))

    p = subsample_probabilities(np.array([5.0, 1.0, 7.0, 2.0]), 1.0, 0.0)
    gap = float(np.abs(p - 0.25).max())
    results.append(CheckResult("sampler/uniform_limit", gap < 1e-15, gap,
                               "k=1, alpha=0 gives uniform"))
    return results


# ---------------------------------------------------------------------------
# partition suite


def partition_deviation_run(mode: str, seed: int = 0) -> float:
    """Max |sum_k A^(k) - A| across every training step of a short run."""
    graph, _ = sample_epm_graph(60, 4, 1.0, 1.0, np.full(4, 0.12), seed=seed,
                                within_boost=8.0)
    masks = substream(seed, "verify-masks").permutation(60)
    graph.train_mask = np.zeros(60, bool)
    graph.train_mask[masks[:20]] = True
    graph.val_mask = np.zeros(60, bool)
    graph.val_mask[masks[20:40]] = True
    graph.test_mask = np.zeros(60, bool)
    graph.test_mask[masks[40:]] = True
    cfg = ModelConfig(n_metacommunities=4, communities_per_block=1,
                      hidden_dim=16, partition_mode=mode)
    prep = prepare_node_graph(graph)
    store = init_params(cfg, graph.n_features, graph.n_classes(), seed, task="node")
    tcfg = TrainConfig(pretrain_epochs=5, finetune_epochs=10, patience=10**9)
    pretrain(prep, store, cfg, tcfg, seed=seed)
    worst = 0.0

    def callback(partition, **_kw):
        nonlocal worst
        dev = float(np.abs(partition.sum(axis=1) - 1.0).max())
        worst = max(worst, dev)

    finetune(prep, store, cfg, tcfg, seed=seed, step_callback=callback)
    return worst


def edge_weight_entropies(tau_grid, seed: int = 0) -> np.ndarray:
    """Mean per-edge weight entropy of the learned partition at each
    temperature, for fixed random affiliations on a fixed random graph."""
    rng = substream(seed, "tau-rates")
    adj = adjacency_from_edges(40, rng.integers(0, 40, (100, 2)))
    z = dm.constant(rng.uniform(0.0, 3.0, (40, 4)))
    gamma = dm.constant(np.ones(4))
    out = []
    for tau in tau_grid:
        cfg = ModelConfig(n_metacommunities=4, communities_per_block=1, tau=tau)
        w = partition_edges(adj, z, gamma, cfg, seed).weights.value
        ent = -np.sum(np.where(w > 0, w * np.log(w), 0.0), axis=1)
        out.append(ent.mean())
    return np.asarray(out)


def partition_suite(seed: int = 0) -> list[CheckResult]:
    results = []
    for mode in ("learned", "even", "random"):
        dev = partition_deviation_run(mode, seed=seed)
        results.append(CheckResult(f"partition/sum_invariant_{mode}", dev < 1e-9,
                                   dev, "< 1e-9"))

    tau_grid = (0.1, 1.0, 10.0, 100.0, 1000.0)
    ents = edge_weight_entropies(tau_grid, seed=seed)
    mono = bool(np.all(np.diff(ents) >= -1e-12))
    results.append(CheckResult("partition/entropy_monotone_in_tau", mono,
                               float(np.diff(ents).min()),
                               "entropy non-decreasing over tau grid"))

    # one edge whose rates are z_0 = (0.3, 1.7, 0.9, 0.2)
    cfg = ModelConfig(n_metacommunities=4, communities_per_block=1, tau=1e-3)
    z = np.array([[0.3, 1.7, 0.9, 0.2], [1.0, 1.0, 1.0, 1.0]])
    w = partition_edges(adjacency_from_edges(2, np.array([[0, 1]])), dm.constant(z),
                        dm.constant(np.ones(4)), cfg, seed).weights.value
    results.append(CheckResult("partition/one_hot_as_tau_vanishes",
                               w.max() > 0.999, float(w.max()), "> 0.999"))

    # the differentiable partition matches a direct softmax evaluation
    graph, _ = sample_epm_graph(12, 4, 1.0, 1.0, np.full(4, 0.5), seed=seed,
                                within_boost=5.0)
    cfg = ModelConfig(n_metacommunities=4, communities_per_block=1)
    z = substream(seed, "pz").gamma(1.0, 1.0, (12, 4))
    gamma = np.array([0.5, 1.0, 1.5, 2.0])
    part = partition_edges(graph.adjacency, dm.constant(z), dm.constant(gamma), cfg, seed)
    rows, cols = graph.adjacency.rows, graph.adjacency.cols
    rates = (z[rows] * gamma) * z[cols]
    x = rates / cfg.tau
    x = x - x.max(axis=1, keepdims=True)
    e = np.exp(x)
    ref = e / e.sum(axis=1, keepdims=True)
    gap = float(np.abs(part.weights.value - ref).max()) if rows.size else 0.0
    results.append(CheckResult("partition/matches_direct_softmax", gap < 1e-12,
                               gap, "< 1e-12"))
    return results


SUITES = {
    "gradcheck": gradcheck_suite,
    "kl": kl_suite,
    "sampler": sampler_suite,
    "partition": partition_suite,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite(seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed)
