"""Self-contained verification suites: gradient checks against central
differences, the analytic KL against numerical integration, the subgraph
sampling distribution, and the edge-partition invariants.

Each check prints one PASS/FAIL line with the measured value; suites are
wired to the `verify` CLI command and reused by the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def _primitive_cases(seed=0):
    """One loss builder per primitive; each mixes the output with a random
    constant so every input coordinate receives gradient."""
    rng = substream(seed, "gradcheck-inputs")
    n, d = 5, 4
    a = _avoid_kinks(rng, (n, d))
    b = _avoid_kinks(rng, (n, d))
    w = _avoid_kinks(rng, (d, 3))
    pos = rng.uniform(0.5, 2.5, (n, d))
    mix = {2: rng.standard_normal((n, d)), 3: rng.standard_normal((n, 3)),
           "vec": rng.standard_normal(n), "cat": rng.standard_normal((n, 2 * d))}
    adj = adjacency_from_edges(n, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]))
    a_norm = normalize_adjacency(adj)
    idx = np.array([0, 2, 2, 4, 1])
    # node 4 is isolated: its output row is zero and its input row gets no gradient
    adj_iso = adjacency_from_edges(n, np.array([[0, 1], [1, 2], [2, 3], [0, 3], [1, 3]]))
    w_edge = rng.uniform(0.5, 2.0, (adj_iso.nnz, 1))
    bias = rng.standard_normal(3)
    self_loops = rng.uniform(0.5, 2.0, (n, 1))
    # K-part inputs, drawn after the rest so no other case's inputs move
    k = 3
    w_parts = rng.uniform(0.5, 2.0, (adj_iso.nnz, k))
    stacked = _avoid_kinks(rng, (k * n, d))
    loops_parts = rng.uniform(0.5, 2.0, (n, k))
    loops_shared = rng.uniform(0.5, 2.0, k)
    w_blocks = _avoid_kinks(rng, (k * d, 3))
    bias_blocks = rng.standard_normal((k, 3))
    mix["parts"] = rng.standard_normal((k * n, d))
    mix["parts3"] = rng.standard_normal((k * n, 3))
    mix["wide"] = rng.standard_normal((n, k * d))
    wide = rng.standard_normal((n, k * d))
    # ELBO-term inputs, drawn after the rest so no other case's inputs move
    raw = rng.uniform(-3.0, 3.0, (n, d))
    # bounds halfway between the 4th and 5th softplus values from each end:
    # 4 entries are clamped on each side, and none sits on a bound
    ordered = np.sort(np.logaddexp(0.0, raw), axis=None)
    lo, hi = (ordered[3] + ordered[4]) / 2, (ordered[-5] + ordered[-4]) / 2
    shape_k = rng.uniform(0.5, 2.5, (n, d))
    scale = rng.uniform(0.5, 2.5, (n, d))
    u = rng.uniform(0.05, 0.95, (n, d))
    z = rng.uniform(0.2, 1.5, (n, d))
    gamma = rng.uniform(0.3, 1.2, d)
    # a triangle and an edge, batched into one 5-node union
    pieces = [adjacency_from_edges(3, np.array([[0, 1], [1, 2], [0, 2]])),
              adjacency_from_edges(2, np.array([[0, 1]]))]
    union, union_ids, _ = batch_graphs(
        GraphCollection(graphs=[Graph(adjacency=p, features=np.ones((p.n_rows, 1)))
                                for p in pieces], graph_labels=np.array([0, 1])),
        np.arange(2))
    edgeless = adjacency_from_edges(n, np.zeros((0, 2), np.int64))
    # partition inputs, drawn after the rest so no other case's inputs move:
    # K = 2 blocks of 2 communities on the support with isolated node 4,
    # and 3 parts of edge weights, different on the two directions of an edge
    part_cfg = ModelConfig(n_metacommunities=2, communities_per_block=2, tau=0.7)
    z_part = rng.uniform(0.2, 1.5, (n, d))
    gamma_part = rng.uniform(0.3, 1.2, d)
    w_norm = rng.uniform(0.5, 2.0, (adj_iso.nnz, k))
    mix["entries"] = rng.standard_normal((adj_iso.nnz, 2))
    mix["norm_edges"] = rng.standard_normal((adj_iso.nnz, k))
    mix["norm_loops"] = rng.standard_normal((n, k))
    # fused-op inputs, drawn after the rest so no other case's inputs move:
    # a stacked input for relu_dropout, and one K = 1 and one K-block
    # two-layer transform for block_mlp
    stacked_relu = _avoid_kinks(rng, (k * n, d))
    mlp_single = [rng.standard_normal(shape) for shape in ((n, d), (d, 3), (3,), (3, 3), (3,))]
    mlp_blocks = [rng.standard_normal(shape)
                  for shape in ((k * n, d), (k * d, 3), (k, 3), (k * 3, 3), (k, 3))]

    def mixed(node, key=2):
        return dm.reduce_sum(dm.elementwise_mul(node, dm.constant(mix[key])))

    cases = {}

    def case(name, make_params, build):
        cases[name] = (make_params, build)

    case("add", lambda s: (s.add("x", a, "phi"), s.add("y", b, "phi")),
         lambda s: mixed(dm.add(s["x"], s["y"])))
    case("negate", lambda s: s.add("x", a, "phi"),
         lambda s: mixed(dm.negate(s["x"])))
    case("elementwise_mul", lambda s: (s.add("x", a, "phi"), s.add("y", b, "phi")),
         lambda s: mixed(dm.elementwise_mul(s["x"], s["y"])))
    case("matmul", lambda s: (s.add("x", a, "phi"), s.add("w", w, "phi")),
         lambda s: mixed(dm.matmul(s["x"], s["w"]), 3))
    case("matmul_bias", lambda s: (s.add("x", a, "phi"), s.add("w", w, "phi"),
                                   s.add("b", bias, "phi")),
         lambda s: mixed(dm.matmul(s["x"], s["w"], s["b"]), 3))
    case("sparse_dense_matmul", lambda s: s.add("x", a, "phi"),
         lambda s: mixed(dm.sparse_dense_matmul(a_norm, s["x"])))
    case("edge_spmm", lambda s: (s.add("w", w_edge, "phi"), s.add("x", a, "phi")),
         lambda s: mixed(dm.edge_spmm(adj_iso, s["w"], s["x"], dm.constant(np.zeros(1)))))
    case("edge_spmm_diag", lambda s: (s.add("w", w_edge, "phi"), s.add("x", a, "phi"),
                                      s.add("d", self_loops, "phi")),
         lambda s: mixed(dm.edge_spmm(adj_iso, s["w"], s["x"], s["d"])))
    case("edge_spmm_diag_scalar", lambda s: (s.add("w", w_edge, "phi"), s.add("x", a, "phi"),
                                             s.add("d", np.array([1.3]), "phi")),
         lambda s: mixed(dm.edge_spmm(adj_iso, s["w"], s["x"], s["d"])))
    case("edge_spmm_parts", lambda s: (s.add("w", w_parts, "phi"),
                                       s.add("x", stacked, "phi"),
                                       s.add("d", loops_parts, "phi")),
         lambda s: mixed(dm.edge_spmm(adj_iso, s["w"], s["x"], s["d"]), "parts"))
    case("edge_spmm_parts_shared", lambda s: (s.add("w", w_parts, "phi"),
                                              s.add("x", a, "phi"),
                                              s.add("d", loops_shared, "phi")),
         lambda s: mixed(dm.edge_spmm(adj_iso, s["w"], s["x"], s["d"]), "parts"))
    case("edge_spmm_parts_scalar", lambda s: (s.add("w", w_parts, "phi"),
                                              s.add("x", stacked, "phi"),
                                              s.add("d", loops_shared, "phi")),
         lambda s: mixed(dm.edge_spmm(adj_iso, s["w"], s["x"], s["d"]), "parts"))
    case("matmul_blocks", lambda s: (s.add("x", stacked, "phi"), s.add("w", w_blocks, "phi"),
                                     s.add("b", bias_blocks, "phi")),
         lambda s: mixed(dm.matmul(s["x"], s["w"], s["b"]), "parts3"))
    case("column_blocks_to_rows", lambda s: s.add("x", wide, "phi"),
         lambda s: mixed(dm.column_blocks_to_rows(s["x"], k), "parts"))
    case("row_blocks_to_columns", lambda s: s.add("x", stacked, "phi"),
         lambda s: mixed(dm.row_blocks_to_columns(s["x"], k), "wide"))
    case("relu", lambda s: s.add("x", a, "phi"),
         lambda s: mixed(dm.relu(s["x"])))
    case("softplus", lambda s: s.add("x", a, "phi"),
         lambda s: mixed(dm.softplus(s["x"])))
    case("log", lambda s: s.add("x", pos, "phi"),
         lambda s: mixed(dm.log(s["x"])))
    case("exp", lambda s: s.add("x", a, "phi"),
         lambda s: mixed(dm.exp(s["x"])))
    case("power", lambda s: s.add("x", pos, "phi"),
         lambda s: mixed(dm.power(s["x"], -0.5)))
    case("clip", lambda s: s.add("x", pos, "phi"),
         lambda s: mixed(dm.clip(s["x"], 0.6, 2.2)))
    case("gammaln", lambda s: s.add("x", pos, "phi"),
         lambda s: mixed(dm.gammaln(s["x"])))
    case("reduce_sum_all", lambda s: s.add("x", a, "phi"),
         lambda s: dm.reduce_sum(s["x"]))
    case("reduce_sum_axis0", lambda s: s.add("x", a, "phi"),
         lambda s: dm.reduce_sum(dm.elementwise_mul(
             dm.reduce_sum(s["x"], axis=0), dm.constant(mix[2][0]))))
    case("reduce_sum_axis1", lambda s: s.add("x", a, "phi"),
         lambda s: dm.reduce_sum(dm.elementwise_mul(
             dm.reduce_sum(s["x"], axis=1), dm.constant(mix["vec"]))))
    case("concat_columns", lambda s: (s.add("x", a, "phi"), s.add("y", b, "phi")),
         lambda s: dm.reduce_sum(dm.elementwise_mul(
             dm.concat_columns([s["x"], s["y"]]), dm.constant(mix["cat"]))))
    case("slice_columns", lambda s: s.add("x", a, "phi"),
         lambda s: dm.reduce_sum(dm.slice_columns(s["x"], 1, 3)))
    case("slice_rows", lambda s: s.add("x", a, "phi"),
         lambda s: dm.reduce_sum(dm.elementwise_mul(
             dm.slice_rows(s["x"], 1, 3), dm.constant(mix[2][1:3]))))
    case("reshape", lambda s: s.add("x", a, "phi"),
         lambda s: dm.reduce_sum(dm.elementwise_mul(
             dm.reshape(s["x"], (d, n)), dm.constant(mix[2].reshape(d, n)))))
    case("gather_rows", lambda s: s.add("x", a, "phi"),
         lambda s: mixed(dm.gather_rows(s["x"], idx)))
    case("scatter_add_rows", lambda s: s.add("x", a, "phi"),
         lambda s: dm.reduce_sum(dm.elementwise_mul(
             dm.scatter_add_rows(s["x"], idx, n), dm.constant(mix[2]))))
    case("row_softmax_tau", lambda s: s.add("x", a, "phi"),
         lambda s: mixed(dm.row_softmax_with_temperature(s["x"], 0.7)))
    case("log_softmax_rows", lambda s: s.add("x", a, "phi"),
         lambda s: mixed(dm.log_softmax_rows(s["x"])))
    case("dropout", lambda s: s.add("x", a, "phi"),
         lambda s: mixed(dm.dropout(s["x"], 0.4, [substream(11, "dropmask")])))
    case("relu_dropout", lambda s: s.add("x", stacked_relu, "phi"),
         lambda s: mixed(dm.relu_dropout(s["x"], 0.4, substream(11, "relu-dropout")),
                         "parts"))
    for name, arrays, key in (("block_mlp", mlp_single, 3),
                              ("block_mlp_blocks", mlp_blocks, "parts3")):
        case(name, lambda s, arrays=arrays: [s.add(p, v, "phi") for p, v in
                                             zip(("h", "w1", "b1", "w2", "b2"), arrays)],
             lambda s, key=key: mixed(dm.block_mlp(s["h"], s["w1"], s["b1"], s["w2"],
                                                   s["b2"]), key))
    case("softplus_bounded", lambda s: s.add("x", raw, "phi"),
         lambda s: mixed(dm.softplus(s["x"], lo, hi)))
    case("weibull_rsample", lambda s: (s.add("k", shape_k, "phi"), s.add("lam", scale, "phi")),
         lambda s: mixed(weibull_rsample(s["k"], s["lam"], u)))
    case("kl_weibull_gamma", lambda s: (s.add("k", shape_k, "phi"),
                                        s.add("lam", scale, "phi")),
         lambda s: mixed(kl_weibull_gamma(s["k"], s["lam"], 1.3, 0.7)))
    for name, support, kw in (
            ("edge_loglik", adj, {}),
            ("edge_loglik_batch", union.adjacency, {"graph_ids": union_ids, "n_graphs": 2}),
            ("edge_loglik_edgeless", edgeless, {})):
        case(name, lambda s: (s.add("z", z, "phi"), s.add("gamma", gamma, "shared")),
             lambda s, support=support, kw=kw: bernoulli_poisson_loglik(
                 support, s["z"], s["gamma"], **kw))
    case("partition_learned", lambda s: (s.add("z", z_part, "phi"),
                                         s.add("gamma", gamma_part, "shared")),
         lambda s: mixed(partition_edges(adj_iso, s["z"], s["gamma"], part_cfg,
                                         seed).weights, "entries"))

    def gcn_normalization_loss(s):
        ew, self_w, _ = EdgePartition(support=adj_iso, weights=s["w"]).gcn_normalization()
        return mixed(ew, "norm_edges") + mixed(self_w, "norm_loops")

    case("gcn_normalization", lambda s: s.add("w", w_norm, "phi"), gcn_normalization_loss)
    return cases


def gradcheck_suite(seed: int = 0) -> list[CheckResult]:
    results = []
    for name, (make_params, build) in _primitive_cases(seed).items():
        store = ParameterStore()
        make_params(store)
        err = finite_difference_check(lambda s=store: build(s), store,
                                      eps=1e-5, samples=40, seed=seed)
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
    bit, on the GCN-node and GIN-graph setups."""
    worst = 0.0
    for setup in (elbo_check_setup, gin_elbo_check_setup):
        prep, store, cfg, tcfg, uniforms = setup(seed)
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
