"""Per-layer metrics of the traced run, and the end-to-end metric each
should move.

Layers are the package's modules. Every `.ms` value is inclusive wall
time (a span plus its children) summed over one training run: a set-up,
the training call and the timed evaluation calls that follow it, averaged
over the traced runs. `.calls` are counts per training run and repeat
exactly for a given commit and seed. A layer absent from a workload (pool
on node tasks, folds outside cross-validation) reads 0.
"""

from __future__ import annotations

import statistics

from tracing import op_span

# the tape ops reported one by one
REPORTED_OPS = ("matmul", "spmm", "gather", "scatter", "mul", "add", "concat",
                "slice_cols", "reshape", "dropout", "relu", "power", "exp",
                "softmax", "log_softmax")

_OP_MOVES = {
    "matmul": ("theta_step_ms, pretrain_epoch_ms", "cora-shaped"),
    "gather": ("theta_step_ms", "cora-shaped, planted-200"),
    "scatter": ("theta_step_ms", "cora-shaped, planted-200"),
    "mul": ("theta_step_ms", "cora-shaped, planted-200"),
    "spmm": ("pretrain_epoch_ms, phi_step_ms", "cora-shaped"),
}


def _table():
    """(name, unit, moves, where) for every per-layer metric, in report order."""
    rows = [
        ("diffmath.nodes_per_theta_step", "count", "theta_step_ms, phi_step_ms",
         "planted-200"),
        ("diffmath.backward.self_ms", "ms", "theta_step_ms, phi_step_ms",
         "planted-200"),
    ]
    for op in REPORTED_OPS:
        moves, where = _OP_MOVES.get(op, ("theta_step_ms, phi_step_ms", "all"))
        for side in ("fwd_ms", "bwd_ms", "calls"):
            rows.append((f"diffmath.op.{op}.{side}",
                         "count" if side == "calls" else "ms", moves, where))
    model_moves = {
        "encoder": ("pretrain_epoch_ms, phi_step_ms, eval_ms", "all"),
        "partition": ("phi_step_ms, eval_ms", "all"),
        "bank": ("theta_step_ms", "all"),
        "composer": ("theta_step_ms", "all"),
        "pool": ("finetune_epoch_ms", "mutag-shaped"),
        "predict": ("eval_ms, finetune_epoch_ms", "all"),
    }
    for part, (moves, where) in model_moves.items():
        rows.append((f"model.{part}.ms", "ms", moves, where))
        rows.append((f"model.{part}.calls", "count", moves, where))
    rows += [
        ("model.encoder.calls_per_finetune_epoch", "count", "finetune_epoch_ms",
         "all"),
        ("distributions.edge_loglik.ms", "ms", "pretrain_epoch_ms, phi_step_ms",
         "cora-shaped, mutag-shaped"),
        ("distributions.kl.ms", "ms", "pretrain_epoch_ms, phi_step_ms", "all"),
        ("distributions.weibull_rsample.ms", "ms", "pretrain_epoch_ms, phi_step_ms",
         "all"),
        ("training.adam.ms", "ms", "theta_step_ms", "cora-shaped"),
        ("training.adam.calls", "count", "theta_step_ms", "cora-shaped"),
        ("training.elbo.ms", "ms", "phi_step_ms", "all"),
        ("training.backward.pretrain_ms", "ms", "pretrain_epoch_ms", "all"),
        ("training.backward.theta_ms", "ms", "theta_step_ms", "all"),
        ("training.backward.phi_ms", "ms", "phi_step_ms", "all"),
        ("rng.substream.ms", "ms", "theta_step_ms", "planted-200"),
        ("rng.substream.calls", "count", "theta_step_ms", "planted-200"),
        ("sparse.spmm.ms", "ms", "pretrain_epoch_ms, phi_step_ms", "cora-shaped"),
        ("sparse.spmm.calls", "count", "pretrain_epoch_ms, phi_step_ms",
         "cora-shaped"),
        ("sparse.normalize_adjacency.ms", "ms", "setup_s", "all"),
        ("graphs.load.ms", "ms", "setup_s", "cora-shaped"),
        ("graphs.batch_graphs.ms", "ms", "setup_s, train_s", "mutag-shaped"),
        ("graphs.batch_graphs.calls", "count", "setup_s, train_s", "mutag-shaped"),
        ("evaluation.fold.ms", "ms", "train_s", "mutag-shaped"),
        ("trace.overhead_pct", "%", "none: traced over untraced finetune_epoch_ms",
         "all"),
    ]
    return rows


PER_LAYER = _table()


def _mean(windows, key, name) -> float:
    return statistics.fmean(w[key].get(name, 0.0) for w in windows)


def per_layer_metrics(windows: list[dict], theta_nodes: list[int],
                      untraced_epoch_ms: float, traced_epoch_ms: float) -> dict:
    """Metric name -> value, from the summaries of the traced training runs."""
    out = {
        "diffmath.nodes_per_theta_step": float(statistics.median(theta_nodes)),
        "diffmath.backward.self_ms": _mean(windows, "self_ms", "diffmath.backward"),
    }
    for op in REPORTED_OPS:
        out[f"diffmath.op.{op}.fwd_ms"] = _mean(windows, "ms", op_span(op, "fwd"))
        out[f"diffmath.op.{op}.bwd_ms"] = _mean(windows, "ms", op_span(op, "bwd"))
        out[f"diffmath.op.{op}.calls"] = _mean(windows, "calls", op_span(op, "fwd"))
    for part in ("encoder", "partition", "bank", "composer", "pool", "predict"):
        out[f"model.{part}.ms"] = _mean(windows, "ms", f"model.{part}")
        out[f"model.{part}.calls"] = _mean(windows, "calls", f"model.{part}")
    out["model.encoder.calls_per_finetune_epoch"] = statistics.fmean(
        w["finetune_encoder_calls"] / w["finetune_epochs"] for w in windows)
    for name in ("distributions.edge_loglik", "distributions.kl",
                 "distributions.weibull_rsample", "training.elbo",
                 "sparse.normalize_adjacency", "graphs.load", "evaluation.fold"):
        out[f"{name}.ms"] = _mean(windows, "ms", name)
    for name in ("training.adam", "rng.substream", "sparse.spmm",
                 "graphs.batch_graphs"):
        out[f"{name}.ms"] = _mean(windows, "ms", name)
        out[f"{name}.calls"] = _mean(windows, "calls", name)
    for phase in ("pretrain", "theta", "phi"):
        out[f"training.backward.{phase}_ms"] = statistics.fmean(
            w["backward_ms"][phase] for w in windows)
    out["trace.overhead_pct"] = 100.0 * (traced_epoch_ms / untraced_epoch_ms - 1.0)
    return {name: out[name] for name, *_ in PER_LAYER}
