"""High-level run flows shared by the CLI and the test suite: dataset
loading, the pretrain/train/eval stages, partition export, and ablations."""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Optional

import numpy as np

from .evaluation import (
    EvalReport,
    community_confusion_matrices,
    cross_validate_graphs,
    hard_assign_communities,
    nmi,
    reduced_label_run,
    _config_dict,
)
from .graphs import load_graph_dataset, load_node_dataset
from .model import (
    ModelError,
    bank_inputs,
    community_gnn_forward,
    encode_communities,
    encoder_uniforms,
    export_embeddings,
    export_partition,
    gamma_node,
    init_params,
    mu_statistic,
    posterior_predictive,
    prepare_graph_selection,
    prepare_node_graph,
)
from .runconfig import ConfigError, RunConfig, parse_value
from .training import (
    OptimizerState,
    TrainResult,
    finetune,
    optimizer_entries,
    pretrain,
    restore_optimizer,
    score_masks,
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
    return prepare_graph_selection(data, np.arange(len(data)))


def _fresh_store(cfg: RunConfig, prep):
    n_feat = prep.graph.n_features
    return init_params(cfg.model, n_feat, prep.n_classes, cfg.seed, cfg.task)


# phase -> (checkpoint, metrics file prefix, optimizer state prefixes)
_PHASES = {"pretrain": (PRETRAIN_CKPT, "pretrain", ("adam",)),
           "finetune": (MODEL_CKPT, "train", ("adam_theta", "adam_phi"))}


def _run_phase(cfg: RunConfig, phase: str, resume: Optional[str]) -> TrainResult:
    """Resume from `resume`, or start fresh (finetuning from the pretraining
    checkpoint when there is one); train; then write the phase's checkpoint,
    metrics and timings to cfg.out."""
    ckpt, prefix, opt_names = _PHASES[phase]
    data = load_dataset(cfg)
    prep = _prepare(cfg, data)
    store = _fresh_store(cfg, prep)
    os.makedirs(cfg.out, exist_ok=True)

    states = [OptimizerState() for _ in opt_names]
    start, early_stop = 0, (-np.inf, 0)
    if resume:
        entries, meta = store.load(resume)
        if meta.get("phase") != phase:
            raise ConfigError(f"{resume}: a checkpoint of phase {meta.get('phase')!r} "
                              f"cannot resume phase {phase!r}")
        for state, name in zip(states, opt_names):
            restore_optimizer(state, name, entries, int(meta.get(f"{name}_t", 0)))
        start = int(meta.get("epoch", 0))
        early_stop = (float(meta.get("best", "-inf")), int(meta.get("stall", 0)))
    elif phase == "finetune":
        pre_path = os.path.join(cfg.out, PRETRAIN_CKPT)
        if os.path.isfile(pre_path):
            store.load(pre_path)
        else:
            print(f"note: {pre_path} not found; finetuning from scratch")

    if phase == "pretrain":
        result = pretrain(prep, store, cfg.model, cfg.train, sampler=cfg.sampler,
                          seed=cfg.seed, optimizer=states[0], start_epoch=start,
                          early_stop=early_stop)
    else:
        result = finetune(prep, store, cfg.model, cfg.train, seed=cfg.seed,
                          optimizers=tuple(states), start_epoch=start)
    meta = {"phase": phase, "epoch": str(start + len(result.records))}
    extra = []
    for state, name in zip(states, opt_names):
        meta[f"{name}_t"] = str(state.t)
        extra += optimizer_entries(state, name)
    if phase == "pretrain":
        meta["best"], meta["stall"] = repr(result.early_stop[0]), str(result.early_stop[1])
    meta["seed"] = str(cfg.seed)
    store.save(os.path.join(cfg.out, ckpt), meta=meta, extra=extra)
    write_metrics(os.path.join(cfg.out, f"{prefix}_metrics.csv"), result.records, start)
    write_timings(os.path.join(cfg.out, f"{prefix}_timings.csv"), result.timings, start)
    return result


def run_pretrain(cfg: RunConfig, resume: Optional[str] = None) -> TrainResult:
    return _run_phase(cfg, "pretrain", resume)


def run_train(cfg: RunConfig, resume: Optional[str] = None) -> TrainResult:
    return _run_phase(cfg, "finetune", resume)


def _load_checkpoint(cfg: RunConfig, prep, path: str):
    """A fresh parameter store with the checkpoint at `path` loaded."""
    if not os.path.isfile(path):
        raise ConfigError(f"checkpoint not found: {path!r}")
    store = _fresh_store(cfg, prep)
    store.load(path)
    return store


def _nmi(cfg: RunConfig, prep, store) -> float:
    """NMI of the hard community assignments against the node labels."""
    store = store.detached()
    uniforms = encoder_uniforms(prep.n_nodes, cfg.model.total_communities,
                                cfg.seed, "nmi")
    post = encode_communities(prep, store, cfg.model, uniforms, cfg.seed)
    gamma = gamma_node(store).value
    assign = hard_assign_communities(post.z.value, gamma,
                                     cfg.model.n_metacommunities)
    return nmi(assign, prep.graph.labels)


def _community_forward(cfg: RunConfig, prep, store, tag: str):
    """One forward-only pass up to the community-GNN bank, with encoder
    noise from the ("encoder-noise", tag) substream. Returns z, gamma, the
    edge partition and the K community embeddings."""
    store = store.detached()
    uniforms = encoder_uniforms(prep.n_nodes, cfg.model.total_communities,
                                cfg.seed, tag)
    z, gamma, partition, x_star = bank_inputs(prep, store, cfg.model, uniforms, cfg.seed)
    h = community_gnn_forward(x_star, partition, store, cfg.model, cfg.seed)
    return z, gamma, partition, np.hsplit(h.value, cfg.model.n_metacommunities)


def _community_probes(cfg: RunConfig, prep, store, out_dir: str) -> list:
    """Cross-validated linear probes on each community's embeddings,
    written as one normalized confusion matrix CSV per community."""
    _z, _gamma, _partition, h_list = _community_forward(cfg, prep, store, "probe")
    matrices, kept = community_confusion_matrices(
        h_list, prep.graph.labels, folds=cfg.folds, seed=cfg.seed)
    os.makedirs(out_dir, exist_ok=True)
    for k, mat in enumerate(matrices):
        np.savetxt(os.path.join(out_dir, f"confusion_{k}.csv"), mat, delimiter=",")
    return [m.tolist() for m in matrices]


def _train_and_score(cfg: RunConfig, data) -> EvalReport:
    """The runs that train and score their own models: k-fold
    cross-validation for graph tasks, the reduced-label run for node tasks."""
    if cfg.task == "graph":
        return cross_validate_graphs(data, cfg.model, cfg.train, folds=cfg.folds,
                                     seed=cfg.seed, protocol=cfg.protocol)
    return reduced_label_run(data, cfg.keep_rate, cfg.seed, cfg.model, cfg.train,
                             sampler=cfg.sampler)


def run_eval(cfg: RunConfig, checkpoint: Optional[str] = None,
             mc_samples: Optional[int] = None, probes: bool = False) -> EvalReport:
    if cfg.task == "graph" or cfg.keep_rate < 1.0:
        unread = [flag for flag, given in (("--checkpoint", checkpoint is not None),
                                           ("--mc-samples", mc_samples is not None),
                                           ("--probes", probes)) if given]
        if unread:
            run = ("graph cross-validation" if cfg.task == "graph"
                   else "reduced-label run (keep_rate < 1)")
            raise ConfigError(f"{', '.join(unread)} not read by the {run}")
        return _train_and_score(cfg, load_dataset(cfg))

    data = load_dataset(cfg)
    samples = cfg.model.mc_samples if mc_samples is None else mc_samples
    prep = prepare_node_graph(data)
    ckpt = checkpoint or os.path.join(cfg.out, MODEL_CKPT)
    store = _load_checkpoint(cfg, prep, ckpt)
    probs = posterior_predictive(prep, store, cfg.model, samples, cfg.seed,
                                 partition_seed=cfg.seed)
    report = EvalReport(protocol="standard-split",
                        config=_config_dict(cfg.model, cfg.train))
    scores = score_masks(probs, data.labels, {"test_acc": data.test_mask,
                                              "train_acc": data.train_mask,
                                              "val_acc": data.val_mask})
    details = {name: acc for name, acc in scores.items() if acc is not None}
    if "test_acc" in details:
        report.accuracy_mean = details.pop("test_acc")
        report.per_fold = [report.accuracy_mean]
    pre_path = os.path.join(cfg.out, PRETRAIN_CKPT)
    if os.path.isfile(pre_path):
        report.nmi_pretrain = _nmi(cfg, prep, _load_checkpoint(cfg, prep, pre_path))
    report.nmi_finetune = _nmi(cfg, prep, store)
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
    z, gamma, partition, h_list = _community_forward(cfg, prep, store, "export")
    mu = mu_statistic(z.value, gamma.value, cfg.model.n_metacommunities)
    export_partition(out_dir, partition, mu)
    export_embeddings(out_dir, h_list, z.value)
    return partition


# ablation axis -> the ModelConfig field it sets; the training scheme
# axis is apart: 'scratch' is pretrain_epochs = 0
_ABLATION_FIELDS = {
    "partition_mode": "partition_mode",
    "composer_kind": "composer_kind",
    "tau": "tau",
    "input_mode": "input_mode",
    "k_meta": "n_metacommunities",
}
ABLATION_AXES = (*_ABLATION_FIELDS, "training_scheme")


def _ablation_config(cfg: RunConfig, axis: str, value: str) -> RunConfig:
    """The run configuration of one axis value, parsed and checked."""
    if axis == "training_scheme":
        if value not in ("scratch", "pretrain_finetune"):
            raise ConfigError(f"unknown training scheme {value!r}")
        if value == "scratch":
            cfg = replace(cfg, train=replace(cfg.train, pretrain_epochs=0))
        return cfg
    name = _ABLATION_FIELDS[axis]
    key = f"model.{name}"
    try:
        return replace(cfg, model=replace(cfg.model, **{name: parse_value(key, value)}))
    except ModelError as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}: {exc}") from exc


def run_ablate(cfg: RunConfig, axis: str, values: list[str],
               jobs: int = 1) -> list[dict]:
    """Train and score each axis value through eval's protocols; every value
    is parsed and checked before the first one trains."""
    if axis not in ABLATION_AXES:
        raise ConfigError(f"axis must be one of {ABLATION_AXES}")
    if not values:
        raise ConfigError("an ablation needs at least one value")
    cfgs = [_ablation_config(cfg, axis, v) for v in values]
    data = load_dataset(cfg)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(lambda c: _train_and_score(c, data), cfgs))
    else:
        reports = [_train_and_score(c, data) for c in cfgs]
    rows = [{"value": value, "accuracy_mean": report.accuracy_mean,
             "accuracy_stderr": report.accuracy_stderr, "per_fold": report.per_fold}
            for value, report in zip(values, reports)]
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
