"""High-level run flows shared by the CLI and the test suite: dataset
loading, the pretrain/train/eval stages, partition export, and ablations."""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Optional

import numpy as np

from .diffmath import load_arrays
from .evaluation import (
    EvalReport,
    accuracy,
    community_confusion_matrices,
    cross_validate_graphs,
    hard_assign_communities,
    nmi,
    reduced_label_run,
    _config_dict,
)
from .graphs import batch_graphs, load_graph_dataset, load_node_dataset
from .model import (
    community_gnn_forward,
    build_input_features,
    encode_communities,
    encoder_uniforms,
    export_embeddings,
    export_partition,
    gamma_node,
    init_params,
    mu_statistic,
    partition_edges,
    posterior_predictive,
    prepare_graph_batch,
    prepare_node_graph,
)
from .runconfig import ConfigError, RunConfig
from .training import (
    OptimizerState,
    TrainResult,
    finetune,
    optimizer_entries,
    pretrain,
    restore_optimizer,
    write_metrics,
    write_timings,
)

PRETRAIN_CKPT = "pretrain.ckpt"
MODEL_CKPT = "model.ckpt"


def load_dataset(cfg: RunConfig):
    if not os.path.isdir(cfg.dataset):
        raise ConfigError(f"dataset path does not exist: {cfg.dataset!r}")
    if cfg.task == "node":
        return load_node_dataset(cfg.dataset)
    return load_graph_dataset(cfg.dataset)


def _prepare(cfg: RunConfig, data):
    if cfg.task == "node":
        return prepare_node_graph(data)
    union, gids, labels = batch_graphs(data, np.arange(len(data)))
    return prepare_graph_batch(union, gids, labels, data.n_classes())


def _fresh_store(cfg: RunConfig, prep):
    n_feat = prep.graph.n_features
    return init_params(cfg.model, n_feat, prep.n_classes, cfg.seed, cfg.task)


def run_pretrain(cfg: RunConfig, resume: Optional[str] = None) -> TrainResult:
    data = load_dataset(cfg)
    prep = _prepare(cfg, data)
    store = _fresh_store(cfg, prep)
    os.makedirs(cfg.out, exist_ok=True)

    state = OptimizerState()
    start = 0
    if resume:
        entries, meta = load_arrays(resume)
        store.load(resume)
        restore_optimizer(state, "adam", entries, int(meta.get("adam_t", 0)))
        start = int(meta.get("epoch", 0))

    result = pretrain(prep, store, cfg.model, cfg.train, sampler=cfg.sampler,
                      seed=cfg.seed, optimizer=state, start_epoch=start)
    epochs_done = start + len(result.records)
    store.save(os.path.join(cfg.out, PRETRAIN_CKPT),
               meta={"phase": "pretrain", "epoch": str(epochs_done),
                     "adam_t": str(state.t), "seed": str(cfg.seed)},
               extra=optimizer_entries(state, "adam"))
    write_metrics(os.path.join(cfg.out, "pretrain_metrics.csv"), result.records, start)
    write_timings(os.path.join(cfg.out, "pretrain_timings.csv"), result.timings, start)
    return result


def run_train(cfg: RunConfig, resume: Optional[str] = None) -> TrainResult:
    data = load_dataset(cfg)
    prep = _prepare(cfg, data)
    store = _fresh_store(cfg, prep)
    os.makedirs(cfg.out, exist_ok=True)

    theta_state, phi_state = OptimizerState(), OptimizerState()
    start = 0
    if resume:
        entries, meta = load_arrays(resume)
        store.load(resume)
        restore_optimizer(theta_state, "adam_theta", entries,
                          int(meta.get("adam_theta_t", 0)))
        restore_optimizer(phi_state, "adam_phi", entries,
                          int(meta.get("adam_phi_t", 0)))
        start = int(meta.get("epoch", 0))
    else:
        pre_path = os.path.join(cfg.out, PRETRAIN_CKPT)
        if os.path.isfile(pre_path):
            store.load(pre_path)
        else:
            print(f"note: {pre_path} not found; finetuning from scratch")

    result = finetune(prep, store, cfg.model, cfg.train, seed=cfg.seed,
                      optimizers=(theta_state, phi_state), start_epoch=start)
    epochs_done = start + len(result.records)
    store.save(os.path.join(cfg.out, MODEL_CKPT),
               meta={"phase": "finetune", "epoch": str(epochs_done),
                     "adam_theta_t": str(theta_state.t),
                     "adam_phi_t": str(phi_state.t), "seed": str(cfg.seed)},
               extra=optimizer_entries(theta_state, "adam_theta")
               + optimizer_entries(phi_state, "adam_phi"))
    write_metrics(os.path.join(cfg.out, "train_metrics.csv"), result.records, start)
    write_timings(os.path.join(cfg.out, "train_timings.csv"), result.timings, start)
    return result


def _load_checkpoint(cfg: RunConfig, prep, path: str):
    """A fresh parameter store with the checkpoint at `path` loaded."""
    if not os.path.isfile(path):
        raise ConfigError(f"checkpoint not found: {path!r}")
    store = _fresh_store(cfg, prep)
    store.load(path)
    return store


def _nmi_from_checkpoint(cfg: RunConfig, prep, path: str) -> Optional[float]:
    if not os.path.isfile(path) or prep.graph.labels is None:
        return None
    store = _load_checkpoint(cfg, prep, path).detached()
    uniforms = encoder_uniforms(prep.n_nodes, cfg.model.total_communities,
                                cfg.seed, "nmi")
    post = encode_communities(prep, store, cfg.model, uniforms)
    gamma = gamma_node(store).value
    assign = hard_assign_communities(post.z.value, gamma,
                                     cfg.model.n_metacommunities)
    return nmi(assign, prep.graph.labels)


def _community_forward(cfg: RunConfig, prep, store, tag: str):
    """One forward-only pass up to the community-GNN bank, with encoder
    noise from the ("encoder-noise", tag) substream. Returns the posterior,
    gamma, the edge partition and the K community embeddings."""
    store = store.detached()
    uniforms = encoder_uniforms(prep.n_nodes, cfg.model.total_communities,
                                cfg.seed, tag)
    post = encode_communities(prep, store, cfg.model, uniforms)
    gamma = gamma_node(store)
    partition = partition_edges(prep.graph.adjacency, post.z, gamma, cfg.model,
                                seed=cfg.seed)
    x_star = build_input_features(prep, post.z, cfg.model, cfg.seed)
    h = community_gnn_forward(x_star, partition, store, cfg.model)
    return post, gamma, partition, np.hsplit(h.value, cfg.model.n_metacommunities)


def _community_probes(cfg: RunConfig, prep, store, out_dir: str) -> list:
    """Cross-validated linear probes on each community's embeddings,
    written as one normalized confusion matrix CSV per community."""
    _post, _gamma, _partition, h_list = _community_forward(cfg, prep, store, "probe")
    matrices, kept = community_confusion_matrices(
        h_list, prep.graph.labels, folds=cfg.folds, seed=cfg.seed)
    os.makedirs(out_dir, exist_ok=True)
    for k, mat in enumerate(matrices):
        np.savetxt(os.path.join(out_dir, f"confusion_{k}.csv"), mat, delimiter=",")
    return [m.tolist() for m in matrices]


def run_eval(cfg: RunConfig, checkpoint: Optional[str] = None,
             mc_samples: Optional[int] = None, probes: bool = False) -> EvalReport:
    if cfg.task == "graph" or cfg.keep_rate < 1.0:
        # both protocols train and evaluate their own models
        unread = [flag for flag, given in (("--checkpoint", checkpoint is not None),
                                           ("--mc-samples", mc_samples is not None),
                                           ("--probes", probes)) if given]
        if unread:
            run = ("graph cross-validation" if cfg.task == "graph"
                   else "reduced-label run (keep_rate < 1)")
            raise ConfigError(f"{', '.join(unread)} not read by the {run}")
    data = load_dataset(cfg)
    samples = cfg.model.mc_samples if mc_samples is None else mc_samples

    if cfg.task == "graph":
        return cross_validate_graphs(data, cfg.model, cfg.train,
                                     folds=cfg.folds, seed=cfg.seed,
                                     protocol=cfg.protocol)

    if cfg.keep_rate < 1.0:
        return reduced_label_run(data, cfg.keep_rate, cfg.seed, cfg.model,
                                 cfg.train, sampler=cfg.sampler)

    prep = prepare_node_graph(data)
    ckpt = checkpoint or os.path.join(cfg.out, MODEL_CKPT)
    store = _load_checkpoint(cfg, prep, ckpt)
    probs = posterior_predictive(prep, store, cfg.model, samples, cfg.seed,
                                 partition_seed=cfg.seed)
    report = EvalReport(protocol="standard-split",
                        config=_config_dict(cfg.model, cfg.train))
    g = data
    details = {}
    if g.test_mask is not None and g.test_mask.any():
        report.accuracy_mean = accuracy(probs, g.labels, g.test_mask)
        report.per_fold = [report.accuracy_mean]
    if g.train_mask is not None and g.train_mask.any():
        details["train_acc"] = accuracy(probs, g.labels, g.train_mask)
    if g.val_mask is not None and g.val_mask.any():
        details["val_acc"] = accuracy(probs, g.labels, g.val_mask)
    report.nmi_pretrain = _nmi_from_checkpoint(
        cfg, prep, os.path.join(cfg.out, PRETRAIN_CKPT))
    report.nmi_finetune = _nmi_from_checkpoint(cfg, prep, ckpt)
    details["mc_samples"] = samples
    if probes:
        details["community_confusions"] = _community_probes(
            cfg, prep, store, os.path.join(cfg.out, "probes"))
    report.details = details
    return report


def run_partition_export(cfg: RunConfig, checkpoint: str, out_dir: str):
    data = load_dataset(cfg)
    prep = _prepare(cfg, data)
    store = _load_checkpoint(cfg, prep, checkpoint)
    post, gamma, partition, h_list = _community_forward(cfg, prep, store, "export")
    mu = mu_statistic(post.z.value, gamma.value, cfg.model.n_metacommunities)
    export_partition(out_dir, partition, mu)
    export_embeddings(out_dir, h_list, post.z.value)
    return partition


ABLATION_AXES = ("partition_mode", "composer_kind", "tau", "input_mode",
                 "k_meta", "training_scheme")


def _ablate_value(cfg: RunConfig, axis: str, value: str) -> dict:
    model = cfg.model
    scheme = "pretrain_finetune"
    if axis == "partition_mode":
        model = replace(model, partition_mode=value)
    elif axis == "composer_kind":
        model = replace(model, composer_kind=value)
    elif axis == "tau":
        model = replace(model, tau=float(value))
    elif axis == "input_mode":
        model = replace(model, input_mode=value)
    elif axis == "k_meta":
        model = replace(model, n_metacommunities=int(value))
    elif axis == "training_scheme":
        if value not in ("scratch", "pretrain_finetune"):
            raise ConfigError(f"unknown training scheme {value!r}")
        scheme = value
    else:
        raise ConfigError(f"unknown ablation axis {axis!r}")

    data = load_dataset(cfg)
    if cfg.task == "graph":
        tcfg = cfg.train if scheme == "pretrain_finetune" else replace(
            cfg.train, pretrain_epochs=0)
        report = cross_validate_graphs(data, model, tcfg, folds=cfg.folds,
                                       seed=cfg.seed, protocol=cfg.protocol)
        return {"value": value, "accuracy_mean": report.accuracy_mean,
                "accuracy_stderr": report.accuracy_stderr,
                "per_fold": report.per_fold}

    prep = prepare_node_graph(data)
    store = init_params(model, prep.graph.n_features, prep.n_classes,
                        cfg.seed, "node")
    if scheme == "pretrain_finetune":
        pretrain(prep, store, model, cfg.train, sampler=cfg.sampler, seed=cfg.seed)
    finetune(prep, store, model, cfg.train, seed=cfg.seed)
    probs = posterior_predictive(prep, store, model, model.mc_samples, cfg.seed,
                                 partition_seed=cfg.seed)
    acc = accuracy(probs, data.labels, data.test_mask)
    return {"value": value, "accuracy_mean": acc, "accuracy_stderr": None,
            "per_fold": [acc]}


def run_ablate(cfg: RunConfig, axis: str, values: list[str],
               jobs: int = 1) -> list[dict]:
    if axis not in ABLATION_AXES:
        raise ConfigError(f"axis must be one of {ABLATION_AXES}")
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda v: _ablate_value(cfg, axis, v), values))
    else:
        rows = [_ablate_value(cfg, axis, v) for v in values]
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, f"ablation_{axis}.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("axis,value,accuracy_mean,accuracy_stderr\n")
        for row in rows:
            stderr = "nan" if row["accuracy_stderr"] is None else repr(row["accuracy_stderr"])
            fh.write(f"{axis},{row['value']},{row['accuracy_mean']!r},{stderr}\n")
    with open(os.path.join(cfg.out, f"ablation_{axis}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"axis": axis, "rows": rows}, fh, sort_keys=True, indent=2)
    return rows
