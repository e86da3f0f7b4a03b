"""Seeded workload generators and the fixed run shape of each workload.

Every dataset is built from `--seed` alone and written to disk with the
package's own writers, so the measured set-up parses it as a user's run
would. The benchmark's own randomness (features, labels, masks, graph
sizes) comes from numpy generators seeded here, not from the package, so a
change to the package's random streams cannot change these inputs; the
edge draws go through `sample_epm_graph`, as `vepm synth` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from vepm.graphs import (
    Graph,
    GraphCollection,
    sample_epm_graph,
    save_graph_dataset,
    save_node_dataset,
)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def _split_masks(n: int, order: np.ndarray, n_train: int, n_val: int):
    """Train, val and test masks over consecutive runs of `order`; nodes
    absent from `order` belong to none."""
    train = np.zeros(n, bool)
    val = np.zeros(n, bool)
    test = np.zeros(n, bool)
    train[order[:n_train]] = True
    val[order[n_train:n_train + n_val]] = True
    test[order[n_train + n_val:]] = True
    return train, val, test


def make_planted_200(seed: int, path: str):
    """The 200-node planted oracle, with the call `vepm synth` makes for
    `--n 200 --c 4 --gamma 8e-4 x4 --boost 30`, and a 60/20/20 split."""
    graph, _planted = sample_epm_graph(200, 4, 1.0, 1.0, np.full(4, 8e-4), seed,
                                       within_boost=30.0)
    order = _rng(seed, 1).permutation(graph.n_nodes)
    graph.train_mask, graph.val_mask, graph.test_mask = _split_masks(
        graph.n_nodes, order, 120, 40)
    save_node_dataset(path, graph)


CORA_N, CORA_CLASSES, CORA_FEATURES = 2708, 7, 1433


def _topic_features(labels: np.ndarray, n_features: int, rng: np.random.Generator,
                    words_mean: float = 18.6, on_topic: float = 0.35) -> np.ndarray:
    """Sparse binary bag-of-words rows: each class owns a disjoint block of
    the vocabulary, and a node draws about `words_mean` words, a share
    `on_topic` of them from its own class's block."""
    n, n_classes = labels.size, int(labels.max()) + 1
    topics = np.array_split(rng.permutation(n_features), n_classes)
    x = np.zeros((n, n_features))
    counts = np.maximum(rng.poisson(words_mean, n), 1)
    for i in range(n):
        k = counts[i]
        own = rng.random(k) < on_topic
        topic = topics[labels[i]]
        words = np.where(own, topic[rng.integers(topic.size, size=k)],
                         rng.integers(n_features, size=k))
        x[i, words] = 1.0
    return x


def make_cora_shaped(seed: int, path: str):
    """N=2708 in 7 planted blocks, F=1433 sparse binary features and the
    Planetoid-style 140/500/1000 split (20 training nodes per class)."""
    rng = _rng(seed, 2)
    placeholder = np.zeros((CORA_N, 1))
    planted, _ = sample_epm_graph(CORA_N, CORA_CLASSES, 1.0, 1.0,
                                  np.full(CORA_CLASSES, 6e-6), seed,
                                  within_boost=40.0, features=placeholder)
    labels = planted.labels
    features = _topic_features(labels, CORA_FEATURES, rng)
    order = rng.permutation(CORA_N)
    train_idx = np.concatenate([order[labels[order] == c][:20]
                                for c in range(CORA_CLASSES)])
    rest = order[~np.isin(order, train_idx)][:1500]
    train, val, test = _split_masks(CORA_N, np.concatenate([train_idx, rest]),
                                    train_idx.size, 500)
    graph = Graph(adjacency=planted.adjacency, features=features, labels=labels,
                  train_mask=train, val_mask=val, test_mask=test)
    save_node_dataset(path, graph)


MUTAG_GRAPHS, MUTAG_TYPES = 188, 7
# per-class atom-type frequencies: each class favours its own types, so
# the pooled composition of a graph gives its label away after a few epochs
_ATOM_FREQ = np.array([[0.35, 0.30, 0.20, 0.05, 0.04, 0.03, 0.03],
                       [0.05, 0.05, 0.05, 0.25, 0.20, 0.20, 0.20]])


def make_mutag_shaped(seed: int, path: str):
    """188 graphs of 10-27 nodes with one-hot atom types and two classes
    (125/63, as in MUTAG); edges from a two-block edge model per graph.

    The seed shuffles a fixed multiset of graph sizes and fixes the
    affiliations, so the total work hardly changes from seed to seed; only
    the edge draws, the atom types and the labels' order do."""
    rng = _rng(seed, 3)
    labels = rng.permutation(np.r_[np.ones(125, np.int64), np.zeros(63, np.int64)])
    sizes = rng.permutation(np.resize(np.arange(10, 28), MUTAG_GRAPHS))
    graphs = []
    for g, n in enumerate(sizes):
        atoms = rng.choice(MUTAG_TYPES, size=n, p=_ATOM_FREQ[labels[g]])
        onehot = np.eye(MUTAG_TYPES)[atoms]
        z = np.ones((n, 2))
        z[np.arange(n), (np.arange(n) * 2) // n] += 1.0
        graph, _ = sample_epm_graph(n, 2, 1.0, 1.0, np.full(2, 0.066),
                                    int(rng.integers(2**31)), features=onehot,
                                    z_override=z)
        graphs.append(Graph(adjacency=graph.adjacency, features=onehot))
    save_graph_dataset(path, GraphCollection(graphs=graphs, graph_labels=labels))


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # "node": pretrain + finetune; "graph": cross_validate_graphs
    generate: Callable[[int, str], None]
    model: dict
    train: dict
    acc_floor: float  # a lower test accuracy marks the run incorrect
    eval_calls: int  # posterior-predictive calls timed after each training run
    why: str  # one line, copied into BENCHMARK.json
    folds: int = 10


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted-200",
            task="node",
            generate=make_planted_200,
            model=dict(n_metacommunities=4, communities_per_block=1,
                       encoder_layers=1, layer_kind="gcn", mc_samples=4),
            train=dict(pretrain_epochs=200, finetune_epochs=40, lr_unsup=0.3),
            acc_floor=0.8,
            eval_calls=20,
            why="tiny arrays, so time goes to tape and Python overhead per op, "
                "not to kernels",
        ),
        Workload(
            name="cora-shaped",
            task="node",
            generate=make_cora_shaped,
            model=dict(n_metacommunities=4, communities_per_block=4,
                       hidden_dim=64, layer_kind="gcn", mc_samples=4),
            train=dict(pretrain_epochs=50, finetune_epochs=20),
            acc_floor=0.6,
            eval_calls=10,
            why="N=2708, F=1433 sparse features: dense and edge kernels "
                "dominate; largest set-up and memory",
        ),
        Workload(
            name="mutag-shaped",
            task="graph",
            generate=make_mutag_shaped,
            model=dict(layer_kind="gin", composer_kind="gnn", mc_samples=4),
            train=dict(pretrain_epochs=10, finetune_epochs=4),
            acc_floor=0.7,
            eval_calls=20,
            why="188 small graphs: GIN path, per-fold batching and "
                "forward-only MC evaluation of held-out folds each epoch",
        ),
    )
}
