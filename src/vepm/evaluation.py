"""NMI, the two graph cross-validation protocols, reduced-label runs,
community agreement scores, and per-community confusion matrices."""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .graphs import Graph, GraphCollection, kfold_split
from .model import (
    ModelConfig,
    init_params,
    mu_statistic,
    posterior_predictive,
    prepare_graph_selection,
    prepare_node_graph,
)
from .rng import substream
from .training import (EvaluationError, SamplerConfig, TrainConfig, accuracy,
                       finetune, pretrain)


@dataclass
class EvalReport:
    protocol: str
    accuracy_mean: Optional[float] = None
    accuracy_stderr: Optional[float] = None
    per_fold: list = field(default_factory=list)
    best_epoch: Optional[int] = None
    nmi_pretrain: Optional[float] = None
    nmi_finetune: Optional[float] = None
    details: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2, default=_jsonable)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"cannot serialize {type(x)!r}")


def _stderr(values: np.ndarray) -> Optional[float]:
    if values.size < 2:
        return None
    return float(values.std(ddof=1) / np.sqrt(values.size))


def nmi(assignments: np.ndarray, labels: np.ndarray) -> float:
    """Mutual information normalized by the arithmetic mean of entropies.

    Degenerate single-cluster inputs score 0 by convention.
    """
    a = np.asarray(assignments)
    b = np.asarray(labels)
    if a.shape != b.shape:
        raise EvaluationError("assignment and label lengths differ")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    na, nb = ai.max() + 1, bi.max() + 1
    joint = np.zeros((na, nb))
    np.add.at(joint, (ai, bi), 1.0)
    joint /= n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    ha = -np.sum(pa[pa > 0] * np.log(pa[pa > 0]))
    hb = -np.sum(pb[pb > 0] * np.log(pb[pb > 0]))
    if ha <= 1e-12 or hb <= 1e-12:
        return 0.0
    nz = joint > 0
    mi = np.sum(joint[nz] * (np.log(joint[nz]) - np.log(np.outer(pa, pb)[nz])))
    return float(max(0.0, mi / (0.5 * (ha + hb))))


def hard_assign_communities(z: np.ndarray, gamma: np.ndarray, k: int) -> np.ndarray:
    """Argmax over per-metacommunity total interaction, ties to lowest."""
    return np.argmax(mu_statistic(z, gamma, k), axis=1)


# ---------------------------------------------------------------------------
# graph classification protocols


def _train_fold(collection, train_idx, test_idx, val_idx, cfg, tcfg, seed):
    prep = prepare_graph_selection(collection, train_idx)
    missing = set(range(prep.n_classes)) - set(prep.graph_labels.tolist())
    if missing:
        warnings.warn(f"training fold is missing classes {sorted(missing)}")
    store = init_params(cfg, collection.n_features, prep.n_classes, seed, task="graph")
    pretrain(prep, store, cfg, tcfg, seed=seed)

    test_prep = prepare_graph_selection(collection, test_idx)
    val_prep = None if val_idx is None else prepare_graph_selection(collection, val_idx)
    return finetune(prep, store, cfg, tcfg, seed=seed, test_prep=test_prep,
                    val_prep=val_prep, eval_samples=cfg.mc_samples,
                    eval_train=False)


def cross_validate_graphs(collection: GraphCollection, cfg: ModelConfig,
                          tcfg: TrainConfig, folds: int = 10, *, seed: int,
                          protocol: str = "xu") -> EvalReport:
    """k-fold graph classification.

    xu: per-epoch test accuracy averaged across folds, reported at the
    single best shared epoch. zhang: a rotating validation fold picks each
    fold's epoch and the test fold is scored once at it.
    """
    if protocol not in ("xu", "zhang"):
        raise EvaluationError("protocol must be 'xu' or 'zhang'")
    if folds < 2:
        raise EvaluationError("folds must be >= 2")
    if protocol == "zhang" and folds < 3:
        raise EvaluationError("the train-validation-test protocol needs >= 3 folds")
    if tcfg.finetune_epochs < 1:
        raise EvaluationError("graph cross-validation picks a finetuning epoch, so it "
                              "needs train.finetune_epochs >= 1")
    splits = kfold_split(len(collection), folds, seed)
    chunks = [test for _train, test in splits]

    test_curves, val_curves = [], []
    for f in range(folds):
        if protocol == "xu":
            train_idx, test_idx, val_idx = splits[f][0], splits[f][1], None
        else:
            test_idx = chunks[f]
            val_idx = chunks[(f + 1) % folds]
            drop = set(test_idx) | set(val_idx)
            train_idx = np.array(sorted(set(range(len(collection))) - drop))
        records = _train_fold(collection, train_idx, test_idx, val_idx, cfg, tcfg,
                              seed).records
        test_curves.append([rec["test_acc"] for rec in records])
        val_curves.append([rec["val_acc"] for rec in records])

    test_curves = np.asarray(test_curves)
    report = EvalReport(protocol=protocol, config=_config_dict(cfg, tcfg))
    if protocol == "xu":
        mean_curve = test_curves.mean(axis=0)
        best = int(np.argmax(mean_curve))
        per_fold = test_curves[:, best]
        report.best_epoch = best
        report.details["mean_curve"] = mean_curve
    else:
        per_fold, best_epochs = [], []
        for f in range(folds):
            e = int(np.argmax(np.asarray(val_curves[f])))
            best_epochs.append(e)
            per_fold.append(test_curves[f][e])
        per_fold = np.asarray(per_fold)
        report.details["best_epochs"] = best_epochs
    report.per_fold = [float(v) for v in per_fold]
    report.accuracy_mean = float(np.mean(per_fold))
    report.accuracy_stderr = _stderr(np.asarray(per_fold))
    return report


# ---------------------------------------------------------------------------
# reduced-label robustness


def subsample_train_mask(labels: np.ndarray, train_mask: np.ndarray,
                         keep_rate: float, seed: int) -> np.ndarray:
    """Per-class subsampling of the training mask (stratified, rounded)."""
    if not 0.0 < keep_rate <= 1.0:
        raise EvaluationError("keep_rate must lie in (0, 1]")
    if keep_rate == 1.0:
        return train_mask.copy()
    out = np.zeros_like(train_mask)
    for c in np.unique(labels[train_mask]):
        members = np.flatnonzero(train_mask & (labels == c))
        n_keep = int(np.floor(members.size * keep_rate + 0.5))
        if n_keep == 0:
            warnings.warn(f"class {c} lost all training labels at keep_rate {keep_rate}")
            continue
        chosen = substream(seed, "reduced-labels", int(c)).permutation(members)[:n_keep]
        out[chosen] = True
    return out


def reduced_label_run(graph: Graph, keep_rate: float, seed: int, cfg: ModelConfig,
                      tcfg: TrainConfig, sampler: Optional[SamplerConfig] = None
                      ) -> EvalReport:
    """Train on a label-subsampled standard split and score the test mask."""
    if graph.train_mask is None or graph.test_mask is None:
        raise EvaluationError("reduced-label runs need train/test masks")
    reduced = Graph(adjacency=graph.adjacency, features=graph.features,
                    labels=graph.labels,
                    train_mask=subsample_train_mask(graph.labels, graph.train_mask,
                                                    keep_rate, seed),
                    val_mask=graph.val_mask, test_mask=graph.test_mask)
    prep = prepare_node_graph(reduced)
    store = init_params(cfg, graph.n_features, graph.n_classes(), seed, task="node")
    pretrain(prep, store, cfg, tcfg, sampler=sampler, seed=seed)
    result = finetune(prep, store, cfg, tcfg, seed=seed)
    probs = posterior_predictive(prep, store, cfg, cfg.mc_samples, seed,
                                 partition_seed=seed)
    test_acc = accuracy(probs, graph.labels, graph.test_mask)
    report = EvalReport(protocol="reduced-label", config=_config_dict(cfg, tcfg))
    report.accuracy_mean = test_acc
    report.per_fold = [test_acc]
    report.details = {"keep_rate": keep_rate,
                      "n_train_labels": int(reduced.train_mask.sum()),
                      "best_epoch": result.best_epoch}
    return report


# ---------------------------------------------------------------------------
# per-community linear probes

# the ridge penalty of each probe's least-squares fit
PROBE_RIDGE = 1e-2


def community_confusion_matrices(h_list: list[np.ndarray], labels: np.ndarray,
                                 folds: int = 10, *, seed: int
                                 ) -> tuple[list[np.ndarray], np.ndarray]:
    """Cross-validated linear probes on each community's embeddings.

    A regularized least-squares one-vs-rest classifier is k-folded on each
    H^(k); rows of the returned confusion matrices sum to one. Classes with
    fewer than `folds` instances are dropped with a warning.
    """
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels)
    kept_classes = np.flatnonzero(counts >= folds)
    if kept_classes.size < counts.size:
        warnings.warn(
            f"dropping classes with < {folds} instances: "
            f"{sorted(set(range(counts.size)) - set(kept_classes))}")
    keep = np.isin(labels, kept_classes)
    remap = -np.ones(counts.size, dtype=np.int64)
    remap[kept_classes] = np.arange(kept_classes.size)
    y = remap[labels[keep]]
    m = kept_classes.size
    if m < 2:
        raise EvaluationError("need at least two populated classes")

    matrices = []
    splits = kfold_split(y.size, folds, seed)
    for h in h_list:
        x = np.asarray(h, dtype=np.float64)[keep]
        x = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
        confusion = np.zeros((m, m))
        for train_idx, test_idx in splits:
            xtr, ytr = x[train_idx], y[train_idx]
            onehot = np.zeros((ytr.size, m))
            onehot[np.arange(ytr.size), ytr] = 1.0
            gram = xtr.T @ xtr + PROBE_RIDGE * np.eye(x.shape[1])
            w = np.linalg.solve(gram, xtr.T @ onehot)
            pred = np.argmax(x[test_idx] @ w, axis=1)
            np.add.at(confusion, (y[test_idx], pred), 1.0)
        confusion /= confusion.sum(axis=1, keepdims=True)
        matrices.append(confusion)
    return matrices, kept_classes


def _config_dict(cfg: ModelConfig, tcfg: TrainConfig) -> dict:
    out = {f"model.{k}": v for k, v in vars(cfg).items()}
    out.update({f"train.{k}": (list(v) if isinstance(v, tuple) else v)
                for k, v in vars(tcfg).items()})
    return out
