"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured value (run with `pytest tests/test_acceptance.py -v -s`).

Criteria tied to the Cora / MUTAG benchmarks skip with instructions when the
converted datasets are absent; synthetic surrogates exercising the same code
paths always run and are labelled as such.
"""

import os
import time

import numpy as np
from scipy.stats import kstest

from conftest import planted_graph, require_dataset
from reference import bernoulli_poisson_loglik_bruteforce, weibull_cdf, weibull_mean
from vepm import diffmath as dm
from vepm.distributions import (
    bernoulli_poisson_loglik,
    kl_weibull_gamma_value,
    weibull_rsample,
)
from vepm.evaluation import accuracy, cross_validate_graphs, hard_assign_communities, nmi
from vepm.graphs import load_graph_dataset, load_node_dataset, sample_epm_graph
from vepm.model import (
    ModelConfig,
    encode_communities,
    encoder_uniforms,
    gamma_node,
    init_params,
    posterior_predictive,
    prepare_node_graph,
)
from vepm.rng import substream
from vepm.training import (
    SamplerConfig,
    TrainConfig,
    finetune,
    pretrain,
    subsample_probabilities,
)
from vepm.verify import edge_weight_entropies, gradcheck_suite, kl_quadrature


def report(number: int, name: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


# ---------------------------------------------------------------------------


def test_01_gradient_correctness():
    t0 = time.time()
    results = gradcheck_suite(seed=0)
    elapsed = time.time() - t0
    # full-objective checks: the GCN node task and the GIN graph task
    full = [r for r in results if r.name.startswith("gradcheck/full_elbo")]
    assert {r.name for r in full} == {"gradcheck/full_elbo", "gradcheck/full_elbo_gin"}
    primitive_worst = max(r.measured for r in results if r not in full)
    elbo_err = max(r.measured for r in full)
    ok = primitive_worst < 1e-6 and elbo_err < 1e-4 and elapsed < 120
    report(1, "gradient-correctness", ok,
           f"primitives max rel err {primitive_worst:.2e} < 1e-6, "
           f"full-objective (node and graph task) {elbo_err:.2e} < 1e-4, "
           f"{elapsed:.1f}s < 120s")


def test_02_analytic_kl():
    zero = abs(kl_weibull_gamma_value(1.0, 1.0, 1.0, 1.0))
    grid = (0.5, 1.0, 2.0)
    worst_gap, most_negative = 0.0, 0.0
    for k in grid:
        for lam in grid:
            for a in grid:
                for b in grid:
                    closed = kl_weibull_gamma_value(k, lam, a, b)
                    worst_gap = max(worst_gap, abs(closed - kl_quadrature(k, lam, a, b)))
                    most_negative = min(most_negative, closed)
    ok = zero < 1e-12 and worst_gap < 1e-4 and most_negative > -1e-12
    report(2, "analytic-kl", ok,
           f"zero case {zero:.1e}, grid gap {worst_gap:.2e} < 1e-4, "
           f"min {most_negative:.1e} > -1e-12")


def test_03_weibull_sampler():
    worst_ks = 0.0
    for k in (0.5, 1.0, 2.0):
        for lam in (0.5, 1.0, 2.0):
            u = substream(int(10 * k), "acc-ks", int(10 * lam)).random((100_000, 1))
            z = weibull_rsample(dm.constant(np.full_like(u, k)),
                                dm.constant(np.full_like(u, lam)), u)
            stat = kstest(z.value.ravel(), lambda x: weibull_cdf(x, k, lam)).statistic
            worst_ks = max(worst_ks, stat)

    worst_mean = 0.0
    for k in (0.5, 1.0, 2.0):
        u = substream(int(10 * k), "acc-mean").random((1_000_000, 1))
        z = weibull_rsample(dm.constant(np.full_like(u, k)),
                            dm.constant(np.ones_like(u)), u)
        expected = weibull_mean(k, 1.0)
        worst_mean = max(worst_mean, abs(z.value.mean() - expected) / expected)

    ok = worst_ks < 0.01 and worst_mean < 0.01
    report(3, "weibull-sampler", ok,
           f"KS max {worst_ks:.4f} < 0.01 at 1e5 samples, "
           f"mean rel err {worst_mean:.4f} < 0.01 at 1e6 samples")


def _partition_deviation_over_run(graph, mode: str, epochs: int, seed: int,
                                  cfg_kw=None) -> float:
    cfg = ModelConfig(partition_mode=mode, **(cfg_kw or {}))
    prep = prepare_node_graph(graph)
    store = init_params(cfg, graph.n_features, graph.n_classes(), seed, "node")
    tcfg = TrainConfig(pretrain_epochs=5, finetune_epochs=epochs, patience=10**9)
    pretrain(prep, store, cfg, tcfg, seed=seed)
    worst = 0.0

    def cb(partition, **_kw):
        nonlocal worst
        worst = max(worst, float(np.abs(partition.sum(axis=1) - 1.0).max()))

    finetune(prep, store, cfg, tcfg, seed=seed, step_callback=cb)
    return worst


def test_04_partition_invariant_synthetic_surrogate():
    graph, _ = planted_graph(0, n=120)
    order = substream(0, "acc4-masks").permutation(120)
    graph.train_mask = np.zeros(120, bool)
    graph.train_mask[order[:40]] = True
    graph.val_mask = np.zeros(120, bool)
    graph.val_mask[order[40:80]] = True
    graph.test_mask = np.zeros(120, bool)
    graph.test_mask[order[80:]] = True
    worst = max(
        _partition_deviation_over_run(
            graph, mode, epochs=50, seed=0,
            cfg_kw=dict(n_metacommunities=4, communities_per_block=1,
                        hidden_dim=16, encoder_layers=1))
        for mode in ("learned", "even", "random"))
    ents = edge_weight_entropies((0.1, 1.0, 10.0, 100.0, 1000.0), seed=0)
    mono = bool(np.all(np.diff(ents) >= -1e-12))
    ok = worst < 1e-9 and mono
    report(4, "partition-invariant (synthetic surrogate)", ok,
           f"max |sum_k A^k - A| {worst:.2e} < 1e-9 over 50-epoch runs in all "
           f"modes, entropy monotone over temperature grid: {mono}")


def test_04_partition_invariant_cora():
    path = require_dataset("cora")
    graph = load_node_dataset(path)
    worst = max(
        _partition_deviation_over_run(
            graph, mode, epochs=50, seed=0,
            cfg_kw=dict(n_metacommunities=8, communities_per_block=4,
                        hidden_dim=64))
        for mode in ("learned", "even", "random"))
    ents = edge_weight_entropies((0.1, 1.0, 10.0, 100.0, 1000.0), seed=0)
    mono = bool(np.all(np.diff(ents) >= -1e-12))
    ok = worst < 1e-9 and mono
    report(4, "partition-invariant (cora)", ok,
           f"max deviation {worst:.2e} < 1e-9, entropy monotone: {mono}")


def test_05_closed_form_nonedge_sum():
    worst = 0.0
    for n in (50, 120, 200):
        graph, _ = sample_epm_graph(n, 3, 1.0, 1.0, np.full(3, 0.05), seed=n)
        rng = substream(n, "acc5")
        z = rng.gamma(1.0, 1.0, (n, 3))
        gamma = rng.random(3) + 0.2
        fast = float(bernoulli_poisson_loglik(graph.adjacency, dm.constant(z),
                                              dm.constant(gamma)).value)
        slow = bernoulli_poisson_loglik_bruteforce(graph.adjacency, z, gamma)
        worst = max(worst, abs(fast - slow) / abs(slow))
    report(5, "closed-form-edge-loglik", worst < 1e-8,
           f"max rel gap vs brute force {worst:.2e} < 1e-8 up to N=200")


def _recover_communities(seed: int, epochs: int = 200) -> float:
    graph, planted = planted_graph(seed)
    cfg = ModelConfig(n_metacommunities=4, communities_per_block=1,
                      hidden_dim=64, encoder_layers=1, dropout=0.0)
    prep = prepare_node_graph(graph)
    store = init_params(cfg, graph.n_features, graph.n_classes(), seed + 100, "node")
    tcfg = TrainConfig(pretrain_epochs=epochs, lr_unsup=0.3, patience=10**9)
    pretrain(prep, store, cfg, tcfg, seed=seed)
    u = encoder_uniforms(graph.n_nodes, cfg.total_communities, seed, "acc6")
    post = encode_communities(prep, store, cfg, u, 0)
    assign = hard_assign_communities(post.z.value, gamma_node(store).value,
                                     cfg.n_metacommunities)
    return nmi(assign, planted.hard_labels)


def test_06_planted_recovery():
    scores = [_recover_communities(seed) for seed in range(5)]
    hits = sum(s >= 0.8 for s in scores)
    report(6, "planted-community-recovery", hits >= 4,
           f"NMI per seed {[round(s, 3) for s in scores]}, {hits}/5 >= 0.8 "
           f"(required 4/5) within 200 epochs")


def _cora_config():
    cfg = ModelConfig(n_metacommunities=8, communities_per_block=4,
                      hidden_dim=64, dropout=0.5, mc_samples=8)
    tcfg = TrainConfig(pretrain_epochs=150, finetune_epochs=400, patience=50)
    sampler = SamplerConfig(enabled=True, n_sub=200)
    return cfg, tcfg, sampler


def test_06_cora_nmi_direction():
    path = require_dataset("cora")
    graph = load_node_dataset(path)
    cfg, tcfg, sampler = _cora_config()
    tcfg = TrainConfig(pretrain_epochs=300, finetune_epochs=100, patience=10**9)
    wins = 0
    scores = []
    for seed in range(5):
        prep = prepare_node_graph(graph)
        store = init_params(cfg, graph.n_features, graph.n_classes(), seed, "node")
        pretrain(prep, store, cfg, tcfg, sampler=sampler, seed=seed)

        def current_nmi():
            u = encoder_uniforms(graph.n_nodes, cfg.total_communities, seed, "dirn")
            post = encode_communities(prep, store, cfg, u, 0)
            assign = hard_assign_communities(post.z.value, gamma_node(store).value,
                                             cfg.n_metacommunities)
            return nmi(assign, graph.labels)

        before = current_nmi()
        finetune(prep, store, cfg, tcfg, seed=seed)
        after = current_nmi()
        scores.append((round(before, 3), round(after, 3)))
        wins += after >= before
    report(6, "cora-nmi-direction", wins >= 3,
           f"(pretrain, finetune) NMI per seed {scores}; non-decrease in "
           f"{wins}/5 seeds (majority required)")


def test_07_cora_accuracy():
    path = require_dataset("cora")
    graph = load_node_dataset(path)
    cfg, tcfg, sampler = _cora_config()
    t0 = time.time()
    prep = prepare_node_graph(graph)
    store = init_params(cfg, graph.n_features, graph.n_classes(), 0, "node")
    pretrain(prep, store, cfg, tcfg, sampler=sampler, seed=0)
    finetune(prep, store, cfg, tcfg, seed=0)
    probs = posterior_predictive(prep, store, cfg, cfg.mc_samples, 0,
                                 partition_seed=0)
    acc = accuracy(probs, graph.labels, graph.test_mask)
    elapsed = time.time() - t0
    report(7, "cora-node-classification", acc >= 0.78 and elapsed < 600,
           f"test accuracy {acc:.4f} >= 0.78 within 400 finetune epochs, "
           f"{elapsed:.0f}s < 600s")


def _mutag_configs(seed=0, folds=10):
    cfg = ModelConfig(layer_kind="gin", n_metacommunities=4,
                      communities_per_block=4, hidden_dim=64, dropout=0.0,
                      mc_samples=2)
    tcfg = TrainConfig(pretrain_epochs=80, finetune_epochs=150,
                       lr_unsup=0.05, patience=10**9)
    return cfg, tcfg


def test_08_mutag_cross_validation():
    path = require_dataset("mutag")
    coll = load_graph_dataset(path)
    cfg, tcfg = _mutag_configs()
    t0 = time.time()
    rep = cross_validate_graphs(coll, cfg, tcfg, folds=10, seed=0, protocol="xu")
    elapsed = time.time() - t0
    report(8, "mutag-10fold", rep.accuracy_mean >= 0.85 and elapsed < 1200,
           f"mean accuracy {rep.accuracy_mean:.4f} +- {rep.accuracy_stderr:.4f} "
           f">= 0.85, {elapsed:.0f}s < 1200s")


def test_09_ablation_directions():
    path = require_dataset("mutag")
    coll = load_graph_dataset(path)
    base_cfg, tcfg = _mutag_configs()
    # desk-scale direction check: 3-fold curves per seed keep the runtime
    # manageable while preserving the orderings
    tcfg = TrainConfig(pretrain_epochs=60, finetune_epochs=120, lr_unsup=0.05,
                       patience=10**9)

    def mean_acc(seed, **kw):
        from dataclasses import replace

        cfg = replace(base_cfg, **kw)
        rep = cross_validate_graphs(coll, cfg, tcfg, folds=3, seed=seed,
                                    protocol="xu")
        return rep.accuracy_mean

    part_wins, comp_wins, rows = 0, 0, []
    for seed in range(5):
        learned = mean_acc(seed, partition_mode="learned")
        even = mean_acc(seed, partition_mode="even")
        rand = mean_acc(seed, partition_mode="random")
        dense = mean_acc(seed, composer_kind="dense")
        part_wins += learned >= even >= rand
        comp_wins += learned >= dense
        rows.append((round(learned, 3), round(even, 3), round(rand, 3),
                     round(dense, 3)))
    ok = part_wins >= 3 and comp_wins >= 3
    report(9, "ablation-directions", ok,
           f"(learned, even, random, dense-composer) per seed {rows}; "
           f"partition ordering holds {part_wins}/5, composer {comp_wins}/5")


def test_10_subgraph_sampler():
    rng = substream(0, "acc10")
    worst = 0.0
    for _ in range(100):
        deg = rng.integers(0, 40, size=int(rng.integers(2, 80))).astype(float)
        p = subsample_probabilities(deg, rng.uniform(0, 1), rng.uniform(0, 3))
        worst = max(worst, abs(p.sum() - 1.0))
    exact = subsample_probabilities(np.array([2.0, 1.0, 1.0]), 0.9, 1.0)
    hand = np.array([0.475, 0.2625, 0.2625])
    uniform = subsample_probabilities(np.array([5.0, 1.0, 7.0]), 1.0, 0.0)
    ok = (worst < 1e-12 and np.array_equal(exact, hand)
          and np.allclose(uniform, 1 / 3, atol=1e-15))
    report(10, "subgraph-sampler", ok,
           f"sum deviation {worst:.1e} < 1e-12, three-node example exact, "
           f"uniform limit holds")


def test_11_determinism(tmp_path):
    from vepm.cli import main

    data = str(tmp_path / "data")
    out = str(tmp_path / "out")
    assert main(["synth", "--n", "50", "--c", "4",
                 "--gamma", "0.0008,0.0008,0.0008,0.0008", "--boost", "30",
                 "--seed", "5", "--out", data]) == 0
    cfg = str(tmp_path / "run.cfg")
    with open(cfg, "w") as fh:
        fh.write(f"""
dataset = {data}
task = node
out = {out}
seed = 3
model.n_metacommunities = 4
model.communities_per_block = 1
model.hidden_dim = 16
model.encoder_layers = 1
model.dropout = 0.5
model.mc_samples = 2
train.pretrain_epochs = 5
train.finetune_epochs = 5
train.patience = 100
""")

    def run_all():
        assert main(["pretrain", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        blobs = {}
        for name in ("pretrain_metrics.csv", "train_metrics.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                blobs[name] = fh.read()
        return blobs

    first, second = run_all(), run_all()
    ok = all(first[k] == second[k] for k in first)
    report(11, "determinism", ok,
           "pretrain/train metrics CSVs byte-identical across reruns")
