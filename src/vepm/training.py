"""Objective assembly and the two-phase training loop.

Phase one fits the inference side by maximizing the edge-generation and
KL terms; phase two alternates M task-only generative-side steps against
one full-objective inference-side step per outer epoch, with the
affiliation sample and the edge partition frozen across the inner steps.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import diffmath as dm
from .diffmath import Node, ParameterStore, backward
from .distributions import (
    EDGE_EPS,
    SHAPE_MAX,
    SHAPE_MIN,
    bernoulli_poisson_loglik,
    kl_weibull_gamma,
)
from .graphs import Graph
from .model import (
    ModelConfig,
    PreparedGraph,
    bank_inputs,
    encode_communities,
    encoder_uniforms,
    forward_logits,
    gamma_node,
    partition_edges,
    posterior_predictive,
)
from .rng import substream
from .sparse import degree_vector, induced_adjacency


class TrainingDiverged(RuntimeError):
    pass


class TrainingError(ValueError):
    pass


@dataclass
class ElboTerms:
    l_task: float
    l_egen: float
    l_kl: float

    @property
    def total(self) -> float:
        return self.l_task + self.l_egen + self.l_kl


@dataclass
class TrainConfig:
    pretrain_epochs: int = 200
    finetune_epochs: int = 400
    inner_steps: int = 5
    lr_unsup: float = 0.01
    lr_theta: float = 0.01
    lr_phi: float = 0.001
    patience: int = 50
    seed: int = 0
    elbo_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    prior_alpha: float = 1.0
    prior_beta: float = 1.0

    def __post_init__(self):
        # 0 pretraining epochs is the ablation's 'scratch' scheme
        if self.pretrain_epochs < 0 or self.finetune_epochs < 0:
            raise TrainingError("epoch counts must be >= 0")
        if self.inner_steps < 1:
            raise TrainingError("inner_steps must be >= 1")
        if self.patience < 1:
            raise TrainingError(f"patience must be >= 1, got {self.patience}")
        if not all(math.isfinite(lr) and lr >= 0
                   for lr in (self.lr_unsup, self.lr_theta, self.lr_phi)):
            raise TrainingError("learning rates must be finite and nonnegative")
        if not all(math.isfinite(p) and p > 0
                   for p in (self.prior_alpha, self.prior_beta)):
            raise TrainingError("prior hyperparameters must be finite and positive")
        self.elbo_weights = tuple(float(w) for w in self.elbo_weights)
        if len(self.elbo_weights) != 3 or not all(map(math.isfinite, self.elbo_weights)):
            raise TrainingError("elbo_weights must be 3 finite numbers (task, egen, "
                                f"kl), got {self.elbo_weights}")


@dataclass
class SamplerConfig:
    enabled: bool = False
    n_sub: int = 200
    k_mix: float = 0.9
    alpha_sharp: float = 1.0
    importance: str = "degree"

    def __post_init__(self):
        if self.enabled and self.n_sub < 2:
            # a subgraph of fewer nodes holds no pair, so no edge term
            raise TrainingError(f"n_sub must be >= 2, got {self.n_sub}")
        if not 0.0 <= self.k_mix <= 1.0:
            raise TrainingError("k_mix must lie in [0, 1]")
        if not (math.isfinite(self.alpha_sharp) and self.alpha_sharp >= 0):
            raise TrainingError("alpha_sharp must be finite and nonnegative")
        if self.importance not in ("degree", "uniform"):
            raise TrainingError("importance must be 'degree' or 'uniform'")


# ---------------------------------------------------------------------------
# subgraph sampling


def subsample_probabilities(importance: np.ndarray, k_mix: float,
                            alpha_sharp: float) -> np.ndarray:
    """Mixture of importance-proportional and anti-importance sampling:
    p_i = k q_i + (1-k)(1-q_i)/(N-1) with q_i = f_i^alpha / sum_j f_j^alpha.
    An all-zero importance vector falls back to uniform q."""
    f = np.asarray(importance, dtype=np.float64)
    n = f.size
    if n < 2:
        raise TrainingError("need at least two nodes to subsample")
    powered = f**alpha_sharp
    total = powered.sum()
    q = powered / total if total > 0 else np.full(n, 1.0 / n)
    return k_mix * q + (1.0 - k_mix) * (1.0 - q) / (n - 1)


def sample_subgraph(graph: Graph, sampler: SamplerConfig,
                    rng: np.random.Generator):
    """Draw n_sub nodes with replacement; duplicates collapse for the
    induced subgraph. When n_sub >= N the full graph is returned, which
    keeps the estimator exact at full sample size."""
    n = graph.n_nodes
    if sampler.n_sub >= n:
        nodes = np.arange(n, dtype=np.int64)
        return nodes, nodes, graph.adjacency
    if sampler.importance == "degree":
        imp = degree_vector(graph.adjacency).astype(np.float64)
    else:
        imp = np.ones(n)
    p = subsample_probabilities(imp, sampler.k_mix, sampler.alpha_sharp)
    draws = rng.choice(n, size=sampler.n_sub, replace=True, p=p)
    nodes = np.unique(draws)
    return draws, nodes, induced_adjacency(graph.adjacency, nodes)


def _pair_count(n: int) -> float:
    return n * (n - 1) / 2.0


def _sub_scale(prep: PreparedGraph, nodes: np.ndarray) -> float:
    """The factor that scales a subgraph's edge term to the whole graph's
    pair count."""
    return _pair_count(prep.n_nodes) / max(_pair_count(nodes.size), 1.0)


# ---------------------------------------------------------------------------
# objective


def _task_logprob(prep: PreparedGraph, logits: Node) -> Node:
    """Mean log-probability of the observed training labels."""
    logp = dm.log_softmax_rows(logits)
    if prep.task == "node":
        mask = prep.graph.train_mask
        if mask is None or not mask.any():
            raise TrainingError("empty training mask")
        idx = np.flatnonzero(mask)
        labels = prep.graph.labels[idx]
    else:
        idx = np.arange(prep.n_graphs)
        labels = prep.graph_labels
    onehot = np.zeros((idx.size, logits.value.shape[1]))
    onehot[np.arange(idx.size), labels] = 1.0
    picked = dm.elementwise_mul(dm.gather_rows(logp, idx), dm.constant(onehot))
    return dm.elementwise_mul(dm.reduce_sum(picked), dm.constant(1.0 / idx.size))


def _egen_term(prep: PreparedGraph, z: Node, gamma: Node,
               sub: Optional[tuple] = None) -> Node:
    if sub is not None:
        _draws, nodes, sub_adj = sub
        z_sub = dm.gather_rows(z, nodes)
        return dm.elementwise_mul(bernoulli_poisson_loglik(sub_adj, z_sub, gamma),
                                  dm.constant(_sub_scale(prep, nodes)))
    gids = prep.graph_ids if prep.task == "graph" else None
    return bernoulli_poisson_loglik(prep.graph.adjacency, z, gamma,
                                    graph_ids=gids,
                                    n_graphs=prep.n_graphs if gids is not None else 1)


def elbo(prep: PreparedGraph, store: ParameterStore, cfg: ModelConfig,
         uniforms: np.ndarray, tcfg: TrainConfig, *, seed: int,
         step: Optional[int] = None, sub: Optional[tuple] = None,
         include_task: bool = True):
    """Single-sample evidence lower bound, with dropout drawn at training
    step `step` (none when `step` is None).

    Returns (terms, loss_node, aux): `terms` carries the three summands as
    floats, `loss_node` is the weighted negative bound for the backward
    pass, `aux` exposes the posterior and partition of this evaluation.
    """
    w_task, w_egen, w_kl = tcfg.elbo_weights
    post = encode_communities(prep, store, cfg, uniforms, seed, step)
    gamma = gamma_node(store)

    l_egen = _egen_term(prep, post.z, gamma, sub=sub)
    kl_elem = kl_weibull_gamma(post.weibull_shape, post.weibull_scale,
                               tcfg.prior_alpha, tcfg.prior_beta)
    l_kl = dm.negate(dm.reduce_sum(kl_elem))

    partition = None
    if include_task:
        partition = partition_edges(prep.graph.adjacency, post.z, gamma, cfg, seed)
        logits = forward_logits(prep, post.z, partition, store, cfg, seed, step)
        l_task = _task_logprob(prep, logits)
    else:
        l_task = dm.constant(0.0)

    loss = dm.negate(
        dm.constant(w_task) * l_task
        + dm.constant(w_egen) * l_egen
        + dm.constant(w_kl) * l_kl)
    terms = ElboTerms(l_task=float(l_task.value), l_egen=float(l_egen.value),
                      l_kl=float(l_kl.value))
    return terms, loss, {"posterior": post, "partition": partition}


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(store: ParameterStore, state: OptimizerState, lr: float,
              names: list[str]):
    """Bias-corrected moment update applied in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for name in names:
        g = store.grad(name)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(g)
            state.m[name] = m
            state.v[name] = np.zeros_like(g)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        node = store[name]
        node.value = node.value - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def _descend(store: ParameterStore, loss: Node, state: OptimizerState, lr: float,
             names: list[str]):
    """One Adam step on the gradient of `loss` with respect to `names`."""
    store.zero_grad(names)
    backward(loss)
    adam_step(store, state, lr, names)


def optimizer_entries(state: OptimizerState, prefix: str):
    out = []
    for name, arr in state.m.items():
        out.append((f"{prefix}.m.{name}", "opt", arr))
    for name, arr in state.v.items():
        out.append((f"{prefix}.v.{name}", "opt", arr))
    return out


def restore_optimizer(state: OptimizerState, prefix: str, entries, t: int):
    state.t = t
    for name, _group, arr in entries:
        if name.startswith(f"{prefix}.m."):
            state.m[name[len(prefix) + 3 :]] = arr.copy()
        elif name.startswith(f"{prefix}.v."):
            state.v[name[len(prefix) + 3 :]] = arr.copy()


# ---------------------------------------------------------------------------
# metrics


class EvaluationError(ValueError):
    pass


def accuracy(probabilities: np.ndarray, labels: np.ndarray,
             mask: Optional[np.ndarray] = None) -> float:
    """Fraction of argmax matches over the masked rows (ties to lowest)."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if not np.allclose(probabilities.sum(axis=1), 1.0, atol=1e-6):
        raise EvaluationError("probability rows must sum to 1")
    labels = np.asarray(labels)
    idx = np.arange(labels.size) if mask is None else np.flatnonzero(mask)
    if idx.size == 0:
        raise EvaluationError("empty evaluation mask")
    pred = np.argmax(probabilities[idx], axis=1)
    return float((pred == labels[idx]).mean())


def score_masks(probabilities: np.ndarray, labels: np.ndarray,
                masks: dict) -> dict:
    """The accuracy under each named mask; None for a mask that is absent
    or selects no row."""
    return {name: None if mask is None or not mask.any()
            else accuracy(probabilities, labels, mask)
            for name, mask in masks.items()}


METRIC_COLUMNS = ("epoch", "l_task", "l_egen", "l_kl", "train_acc", "val_acc",
                  "test_acc")


def format_metrics(records: list[dict]) -> str:
    lines = [",".join(METRIC_COLUMNS)]
    for rec in records:
        cells = []
        for col in METRIC_COLUMNS:
            val = rec.get(col)
            if col == "epoch":
                cells.append(str(val))
            elif val is None:
                cells.append("nan")
            else:
                cells.append(repr(float(val)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_rows(path: str, text: str, start_epoch: int):
    """Write the CSV `text` (a header, then one row per epoch) to `path`.

    A run resumed at `start_epoch` keeps the rows that `path` already
    holds for earlier epochs, ahead of its own.
    """
    header, *rows = text.splitlines(keepends=True)
    earlier = []
    if start_epoch > 0 and os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            earlier = [row for row in fh.readlines()[1:]
                       if int(row.split(",", 1)[0]) < start_epoch]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([header, *earlier, *rows])


def write_metrics(path: str, records: list[dict], start_epoch: int = 0):
    _write_rows(path, format_metrics(records), start_epoch)


def write_timings(path: str, rows: list[tuple[int, float]], start_epoch: int = 0):
    # wall time is inherently non-deterministic, so it lives outside the
    # byte-identical metrics file
    text = "epoch,wall_ms\n" + "".join(f"{epoch},{ms:.3f}\n" for epoch, ms in rows)
    _write_rows(path, text, start_epoch)


def _check_finite(value: float):
    if not np.isfinite(value):
        raise TrainingDiverged(f"objective became non-finite ({value})")


# Every non-edge term of log p(A | Z) is <= 0 and every edge term at most
# log(1 + EDGE_EPS), so l_egen <= E log(1 + EDGE_EPS) over E edges; and
# l_kl = -KL <= 0. A step's terms are allowed a round-off of EGEN_ROUNDOFF
# per edge and KL_ROUNDOFF per KL element beyond that. The closed-form
# non-edge sum of `bernoulli_poisson_loglik` cancels terms as large as S'GS/2
# (S the column sums of Z, G = diag(gamma)); a value beyond its limit has lost
# every digit to that cancellation, or the posterior has diverged.
EGEN_ROUNDOFF = 1e-6
KL_ROUNDOFF = 1e-9


@dataclass
class BoundLimits:
    """The highest values the terms of one ELBO evaluation can take, and
    the shares of its posterior's Weibull shapes at SHAPE_MIN and at
    SHAPE_MAX."""
    l_egen: float
    l_kl: float
    at_shape_min: float
    at_shape_max: float


def _bound_limits(prep: PreparedGraph, aux: dict, sub: Optional[tuple]) -> BoundLimits:
    adjacency, scale = prep.graph.adjacency, 1.0
    if sub is not None:
        _draws, nodes, adjacency = sub
        scale = _sub_scale(prep, nodes)
    edges = adjacency.pair_layout().iu.size
    shape = aux["posterior"].weibull_shape.value
    return BoundLimits(l_egen=scale * edges * (math.log1p(EDGE_EPS) + EGEN_ROUNDOFF),
                       l_kl=KL_ROUNDOFF * shape.size,
                       at_shape_min=np.count_nonzero(shape <= SHAPE_MIN) / shape.size,
                       at_shape_max=np.count_nonzero(shape >= SHAPE_MAX) / shape.size)


def _check_bound(terms: ElboTerms, limits: BoundLimits, epoch: int, optimizers):
    """Raise TrainingDiverged, naming the term, the epoch and the share of
    Weibull shapes at each clamp, when a step's ELBO terms exceed their
    limits or an Adam moment of `optimizers` is not finite."""
    def diverged(what):
        return TrainingDiverged(
            f"epoch {epoch}: {what}; {limits.at_shape_min:.1%} of Weibull shapes at "
            f"SHAPE_MIN = {SHAPE_MIN:g}, {limits.at_shape_max:.1%} at SHAPE_MAX = "
            f"{SHAPE_MAX:g}")

    for term, value, limit in (("l_egen", terms.l_egen, limits.l_egen),
                               ("l_kl", terms.l_kl, limits.l_kl)):
        if value > limit:
            raise diverged(f"{term} = {value:.4g} exceeds its bound {limit:.4g}")
    for state in optimizers:
        for name, v in state.v.items():
            # a non-finite g or g*g leaves v non-finite from then on, and m
            # is finite while g*g is
            if not np.isfinite(v).all():
                raise diverged(f"the Adam moments of {name} are not finite")


# ---------------------------------------------------------------------------
# phase one: unsupervised pretraining


@dataclass
class TrainResult:
    records: list[dict]
    timings: list[tuple[int, float]]
    best_epoch: Optional[int] = None
    best_val: Optional[float] = None
    stopped_early: bool = False
    # pretraining's stall state after its last epoch: the best objective
    # so far and the epochs since it last rose
    early_stop: tuple[float, int] = (-np.inf, 0)


# Each training step builds and differentiates its tape inside a helper that
# returns only floats and arrays, so no tape outlives its step.


def _elbo_step(prep, store, cfg, tcfg, state, names, lr, uniforms, *, step,
               sub=None, **elbo_kwargs):
    """One Adam step on the negative ELBO at training step `step`.
    Returns its terms, the partition weights (None without the task term)
    and the terms' `BoundLimits`."""
    terms, loss, aux = elbo(prep, store, cfg, uniforms, tcfg, step=step, sub=sub,
                            **elbo_kwargs)
    _descend(store, loss, state, lr, names)
    partition = aux["partition"]
    return (terms, None if partition is None else partition.weights.value,
            _bound_limits(prep, aux, sub))


def pretrain(prep: PreparedGraph, store: ParameterStore, cfg: ModelConfig,
             tcfg: TrainConfig, sampler: Optional[SamplerConfig] = None,
             seed: int = 0, epoch_callback: Optional[Callable] = None,
             optimizer: Optional[OptimizerState] = None,
             start_epoch: int = 0,
             early_stop: tuple[float, int] = (-np.inf, 0)) -> TrainResult:
    """Fit the inference side (and activations) on edge generation + KL.

    Stops once the objective has not risen for `tcfg.patience` epochs; a
    resumed run passes the `early_stop` state its last run returned."""
    sampler = sampler or SamplerConfig()
    names = store.names(("phi", "shared"))
    state = optimizer or OptimizerState()
    _, w_egen, w_kl = tcfg.elbo_weights
    best, stall = early_stop
    result = TrainResult(records=[], timings=[])

    for epoch in range(start_epoch, tcfg.pretrain_epochs):
        if stall >= tcfg.patience:
            result.stopped_early = True
            break
        t0 = time.perf_counter()
        uniforms = encoder_uniforms(prep.n_nodes, cfg.total_communities, seed,
                                    "pretrain", epoch)
        sub = None
        if sampler.enabled and prep.task == "node":
            sub = sample_subgraph(prep.graph, sampler, substream(seed, "sampler", epoch))
        terms, _, limits = _elbo_step(prep, store, cfg, tcfg, state, names,
                                      tcfg.lr_unsup, uniforms, step=epoch, seed=seed,
                                      sub=sub, include_task=False)
        objective = w_egen * terms.l_egen + w_kl * terms.l_kl
        _check_finite(objective)
        _check_bound(terms, limits, epoch, (state,))
        result.records.append({"epoch": epoch, "l_task": None,
                               "l_egen": terms.l_egen, "l_kl": terms.l_kl,
                               "train_acc": None, "val_acc": None,
                               "test_acc": None})
        result.timings.append((epoch, (time.perf_counter() - t0) * 1e3))
        if epoch_callback is not None:
            epoch_callback(epoch=epoch, terms=terms, store=store)
        if objective > best + 1e-4:
            best, stall = float(objective), 0
        else:
            stall += 1
    result.early_stop = (best, stall)
    return result


# ---------------------------------------------------------------------------
# phase two: supervised finetuning


def _theta_step(prep, store, cfg, tcfg, state, names, z, partition, x_star, step,
                seed):
    logits = forward_logits(prep, z, partition, store, cfg, seed, step, x_star=x_star)
    l_task = _task_logprob(prep, logits)
    loss = dm.negate(dm.constant(tcfg.elbo_weights[0]) * l_task)
    _descend(store, loss, state, tcfg.lr_theta, names)


def finetune(prep: PreparedGraph, store: ParameterStore, cfg: ModelConfig,
             tcfg: TrainConfig, seed: int = 0,
             test_prep: Optional[PreparedGraph] = None,
             val_prep: Optional[PreparedGraph] = None,
             step_callback: Optional[Callable] = None, eval_samples: int = 1,
             optimizers: Optional[tuple] = None,
             start_epoch: int = 0, eval_train: bool = True) -> TrainResult:
    """Alternating optimization of the full bound.

    Per outer epoch: one affiliation sample and one edge partition are
    computed and frozen; M generative-side steps maximize the task term;
    one inference-side step maximizes the full bound, differentiating
    through the reparameterized sample and the partition weights.

    Each epoch scores the posterior predictive on a node task's three masks,
    or on a graph task's batch (if `eval_train`), `val_prep` and `test_prep`.
    Only a node task stops early, and it ends at its best validation epoch.
    """
    # the partition is frozen during theta steps, so the shared activations
    # get no gradient there; they are updated by the phi step only
    theta_names = store.names("theta")
    phi_names = store.names(("phi", "shared"))
    adam_theta = optimizers[0] if optimizers else OptimizerState()
    adam_phi = optimizers[1] if optimizers else OptimizerState()
    m_steps = tcfg.inner_steps
    result = TrainResult(records=[], timings=[])
    node_task = prep.task == "node"
    best_val, best_snap, stall = -np.inf, None, 0
    # (batch, labels, {metric column: mask}), one predictive call each
    if node_task:
        g = prep.graph
        targets = [(prep, g.labels, {"train_acc": g.train_mask,
                                     "val_acc": g.val_mask,
                                     "test_acc": g.test_mask})]
    else:
        batches = {"train_acc": prep if eval_train else None, "val_acc": val_prep,
                   "test_acc": test_prep}
        targets = [(batch, batch.graph_labels, {column: np.ones(batch.n_graphs, bool)})
                   for column, batch in batches.items() if batch is not None]

    for epoch in range(start_epoch, tcfg.finetune_epochs):
        t0 = time.perf_counter()
        base = epoch * (m_steps + 2)
        uniforms = encoder_uniforms(prep.n_nodes, cfg.total_communities, seed,
                                    "finetune", epoch)
        # the affiliation sample, edge partition and bank input x* held
        # fixed across the theta steps, computed on the detached parameters
        z, _gamma, partition, x_star = bank_inputs(prep, store.detached(), cfg,
                                                   uniforms, seed, base)
        for m in range(m_steps):
            _theta_step(prep, store, cfg, tcfg, adam_theta, theta_names, z, partition,
                        x_star, base + 1 + m, seed)
            if step_callback is not None:
                step_callback(epoch=epoch, phase="theta", inner=m,
                              partition=partition.weights.value, store=store)

        # the phi step updates phi_names only, so every theta weight enters
        # its tape as a constant and gets no reverse product; the kept
        # nodes are the live ones that Adam updates
        terms, phi_weights, limits = _elbo_step(prep, store.detached(keep=phi_names),
                                                cfg, tcfg, adam_phi, phi_names,
                                                tcfg.lr_phi, uniforms, step=base,
                                                seed=seed)
        _check_finite(terms.total)
        # a non-finite moment stays so, so this covers the theta steps too
        _check_bound(terms, limits, epoch, (adam_theta, adam_phi))
        if step_callback is not None:
            step_callback(epoch=epoch, phase="phi", inner=None,
                          partition=phi_weights, store=store)

        rec = {"epoch": epoch, "l_task": terms.l_task, "l_egen": terms.l_egen,
               "l_kl": terms.l_kl, "train_acc": None, "val_acc": None,
               "test_acc": None}
        for batch, labels, masks in targets:
            probs = posterior_predictive(batch, store, cfg, eval_samples, seed,
                                         partition_seed=seed)
            rec.update(score_masks(probs, labels, masks))
        result.records.append(rec)
        result.timings.append((epoch, (time.perf_counter() - t0) * 1e3))

        if node_task and rec["val_acc"] is not None:
            if rec["val_acc"] > best_val:
                best_val, stall = rec["val_acc"], 0
                best_snap = store.snapshot()
                result.best_epoch = epoch
            else:
                stall += 1
                if stall >= tcfg.patience:
                    result.stopped_early = True
                    break
    if best_snap is not None:
        store.restore(best_snap)
        result.best_val = best_val
    return result
