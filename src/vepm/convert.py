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

from .graphs import (DatasetError, Graph, GraphCollection, _first_outside, _read_int_rows,
                     _refuse_count, _refuse_row, _require, save_graph_dataset,
                     save_node_dataset, split_graphs)
from .sparse import SparseMatrix, adjacency_from_edges, stored_mask


_MATRIX = (lambda o: (sp.issparse(o) or isinstance(o, np.ndarray)) and o.ndim == 2,
           "a 2-D feature matrix")
_LABELS = (lambda o: isinstance(o, np.ndarray) and o.ndim == 2, "a 2-D label array")
# per pickle: what it must hold, as a check and as the refusal names it
_PICKLED = {"x": _MATRIX, "tx": _MATRIX, "allx": _MATRIX,
            "y": _LABELS, "ty": _LABELS, "ally": _LABELS,
            "graph": (lambda o: isinstance(o, dict), "a dict of neighbour lists")}


def _load_pickle(path: str, suffix: str):
    """The object pickled in `path`, checked to be of the type the
    planetoid format gives `suffix`. A missing file, one that does not
    unpickle, or one of another type raises DatasetError naming it."""
    _require(path)
    try:
        with open(path, "rb") as fh:
            obj = pickle.load(fh, encoding="latin1")
    # a truncated or foreign file fails with any of a dozen exception types
    except Exception as exc:
        raise DatasetError(f"{path}: not a readable pickle "
                           f"({type(exc).__name__}: {exc})") from None
    check, what = _PICKLED[suffix]
    if not check(obj):
        raise DatasetError(f"{path}: expected {what}, found {type(obj).__name__}")
    return obj


def convert_planetoid(raw_dir: str, name: str, out_dir: str) -> Graph:
    """Rebuild the standard split: train = first len(y) nodes, val = the
    next 500, test = the published test index list. The features stay
    sparse throughout; every file is checked, and a fault exits naming it."""
    def path(suffix):
        return os.path.join(raw_dir, f"ind.{name}.{suffix}")

    parts = {suffix: _load_pickle(path(suffix), suffix) for suffix in _PICKLED}
    n = parts["allx"].shape[0] + parts["tx"].shape[0]
    for x, y in (("allx", "ally"), ("tx", "ty"), ("x", "y")):
        if parts[y].shape[0] != parts[x].shape[0]:
            raise DatasetError(f"{path(y)}: {parts[y].shape[0]} label rows for the "
                               f"{parts[x].shape[0]} feature rows of {path(x)}")
    for a, b in (("allx", "tx"), ("ally", "ty")):
        if parts[b].shape[1] != parts[a].shape[1]:
            raise DatasetError(f"{path(b)}: {parts[b].shape[1]} columns, where "
                               f"{path(a)} has {parts[a].shape[1]}")
    _require(path("test.index"))
    test_idx = _read_int_rows(path("test.index"), 1)[:, 0]
    if test_idx.size != parts["tx"].shape[0]:
        _refuse_count(path("test.index"), test_idx.size, parts["tx"].shape[0],
                      "test ids, one per row of tx")
    hit = _first_outside(test_idx[:, None], n)
    if hit is not None:
        _refuse_row(path("test.index"), hit[0],
                    f"test id {test_idx[hit[0]]} outside 0..{n - 1}")
    try:
        edges = np.asarray([(src, dst) for src, neighbors in parts["graph"].items()
                            for dst in neighbors], dtype=np.int64).reshape(-1, 2)
    except (TypeError, ValueError):
        raise DatasetError(f"{path('graph')}: expected a dict of neighbour lists "
                           f"of integer node ids") from None
    hit = _first_outside(edges, n)
    if hit is not None:
        raise DatasetError(f"{path('graph')}: node id {edges[hit[0], hit[1] - 1]} "
                           f"outside 0..{n - 1}")

    # test rows arrive in published order; place them at their true ids
    source = np.arange(n)
    source[test_idx] = np.sort(test_idx)
    x = sp.vstack([sp.csr_matrix(parts["allx"]), sp.csr_matrix(parts["tx"])],
                  format="csr")[source]
    x.sum_duplicates()
    x = x.tocoo()
    stored = stored_mask(x.data)
    features = SparseMatrix(n, x.shape[1], x.row[stored], x.col[stored], x.data[stored])
    labels = np.argmax(np.vstack([parts["ally"], parts["ty"]])[source], axis=1)
    adjacency = adjacency_from_edges(n, edges)

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
    nodes = np.arange(n)
    features = SparseMatrix(n, uniq.size, nodes, np.searchsorted(uniq, node_labels),
                            np.ones(n))

    label_ids = np.unique(graph_labels)
    graph_labels = np.searchsorted(label_ids, graph_labels)

    collection = split_graphs(features, edges, indicator, graph_labels, base=1,
                              files=(path("A"), path("graph_indicator"), path("graph_labels")))
    save_graph_dataset(out_dir, collection)
    return collection
