"""Converters from common raw dataset formats into the package layout.

These run offline as a preprocessing step; nothing here downloads data.

planetoid: the pickled ind.<name>.{x,tx,allx,y,ty,ally,graph,test.index}
files used by the standard citation-network splits.

tu: the text format of the TU graph-classification collections
(<NAME>_A.txt, <NAME>_graph_indicator.txt, <NAME>_graph_labels.txt,
<NAME>_node_labels.txt), with one-hot node-label features.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import scipy.sparse as sp

from .graphs import (Graph, GraphCollection, _first_outside, _read_int_rows,
                     _refuse_count, _refuse_row, _require, save_graph_dataset,
                     save_node_dataset, split_graphs)
from .sparse import adjacency_from_edges


def _load_pickle(path: str):
    with open(path, "rb") as fh:
        return pickle.load(fh, encoding="latin1")


def convert_planetoid(raw_dir: str, name: str, out_dir: str) -> Graph:
    """Rebuild the standard split: train = first len(y) nodes, val = the
    next 500, test = the published test index list."""
    parts = {}
    for suffix in ("x", "tx", "allx", "y", "ty", "ally"):
        parts[suffix] = _load_pickle(os.path.join(raw_dir, f"ind.{name}.{suffix}"))
    test_idx = np.loadtxt(os.path.join(raw_dir, f"ind.{name}.test.index"),
                          dtype=np.int64)
    graph_dict = _load_pickle(os.path.join(raw_dir, f"ind.{name}.graph"))

    test_sorted = np.sort(test_idx)
    allx = sp.vstack([parts["allx"], parts["tx"]]).tolil()
    ally = np.vstack([parts["ally"], parts["ty"]])
    # test rows arrive in published order; place them at their true ids
    allx[test_idx] = allx[test_sorted]
    ally[test_idx] = ally[test_sorted]
    features = np.asarray(allx.todense(), dtype=np.float64)
    labels = np.argmax(ally, axis=1).astype(np.int64)

    n = features.shape[0]
    edges = []
    for src, neighbors in graph_dict.items():
        for dst in neighbors:
            if src != dst:
                edges.append((src, dst))
    adjacency = adjacency_from_edges(n, np.asarray(edges, dtype=np.int64))

    n_train = parts["y"].shape[0]
    train_mask = np.zeros(n, bool)
    train_mask[:n_train] = True
    test_mask = np.zeros(n, bool)
    test_mask[test_idx] = True
    val_mask = np.zeros(n, bool)
    val_mask[n_train : n_train + 500] = True
    val_mask &= ~(train_mask | test_mask)

    graph = Graph(adjacency=adjacency, features=features, labels=labels,
                  train_mask=train_mask, val_mask=val_mask, test_mask=test_mask)
    save_node_dataset(out_dir, graph)
    return graph


def convert_tu(raw_dir: str, name: str, out_dir: str) -> GraphCollection:
    """TU text files -> documented layout with one-hot node-label features.

    Each file is parsed as the package's own files are, so a bad field,
    an id out of range, a gap in the graph ids or an edge between two
    graphs exits naming the raw file and its 1-based line."""
    def path(kind):
        return os.path.join(raw_dir, f"{name}_{kind}.txt")

    for kind in ("A", "graph_indicator", "graph_labels", "node_labels"):
        _require(path(kind))
    # the files count nodes and graphs from 1; these arrays count from 0
    edges = _read_int_rows(path("A"), 2) - 1
    indicator = _read_int_rows(path("graph_indicator"), 1) - 1
    graph_labels = _read_int_rows(path("graph_labels"), 1)[:, 0]
    node_labels = _read_int_rows(path("node_labels"), 1)[:, 0]
    n = node_labels.size
    if indicator.shape[0] != n:
        _refuse_count(path("graph_indicator"), indicator.shape[0], n, "graph ids, one per node")
    for ids, kind, what in ((edges, "A", "node id"), (indicator, "graph_indicator", "graph id")):
        hit = _first_outside(ids, n)
        if hit is not None:
            row, field = hit
            _refuse_row(path(kind), row, f"{what} {ids[row, field - 1] + 1} outside "
                        f"1..{n} in field {field}")
    indicator = indicator[:, 0]

    uniq = np.unique(node_labels)
    features = np.zeros((n, uniq.size))
    features[np.arange(n), np.searchsorted(uniq, node_labels)] = 1.0

    label_ids = np.unique(graph_labels)
    graph_labels = np.searchsorted(label_ids, graph_labels)

    collection = split_graphs(features, edges, indicator, graph_labels, base=1,
                              files=(path("A"), path("graph_indicator"), path("graph_labels")))
    save_graph_dataset(out_dir, collection)
    return collection
