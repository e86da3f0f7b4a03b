"""Graph containers, dataset IO, k-fold splits, and a synthetic generator.

Dataset directory layout (UTF-8 text, no headers, everything 0-indexed):

    edges.csv            one "i,j" pair per line
    features.csv         N rows of F comma-separated finite reals
    labels.csv           one integer per node (node tasks) or per graph
    masks.csv            optional; three 0/1 columns: train,val,test
    graph_indicator.csv  graph tasks only; one graph id per node

Directed edge lists are symmetrized by union, duplicates deduplicated,
self-loops dropped. Counts are inferred from the files.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import substream
from .sparse import SparseMatrix, adjacency_from_edges


class DatasetError(ValueError):
    pass


@dataclass
class Graph:
    adjacency: SparseMatrix
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    train_mask: Optional[np.ndarray] = None
    val_mask: Optional[np.ndarray] = None
    test_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DatasetError("features must be a 2-D matrix")
        if self.features.shape[0] != self.adjacency.n_rows:
            raise DatasetError(
                f"feature rows ({self.features.shape[0]}) do not match "
                f"adjacency dimension ({self.adjacency.n_rows})"
            )
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.n_nodes,):
                raise DatasetError("labels must have one entry per node")
        masks = [self.train_mask, self.val_mask, self.test_mask]
        masks = [None if m is None else np.asarray(m, dtype=bool) for m in masks]
        self.train_mask, self.val_mask, self.test_mask = masks
        present = [m for m in masks if m is not None]
        for m in present:
            if m.shape != (self.n_nodes,):
                raise DatasetError("masks must have one entry per node")
        for a in range(len(present)):
            for b in range(a + 1, len(present)):
                if np.any(present[a] & present[b]):
                    raise DatasetError("masks must be pairwise disjoint")

    @property
    def n_nodes(self) -> int:
        return self.adjacency.n_rows

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_edges(self) -> int:
        return self.adjacency.nnz // 2

    def n_classes(self) -> int:
        if self.labels is None:
            raise DatasetError("graph has no labels")
        return int(self.labels.max()) + 1


@dataclass
class GraphCollection:
    graphs: list[Graph]
    graph_labels: np.ndarray

    def __post_init__(self):
        self.graph_labels = np.asarray(self.graph_labels, dtype=np.int64)
        if len(self.graphs) != self.graph_labels.shape[0]:
            raise DatasetError("one label per graph required")

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def n_features(self) -> int:
        return self.graphs[0].n_features

    def n_classes(self) -> int:
        return int(self.graph_labels.max()) + 1


@dataclass
class PlantedCommunities:
    z_true: np.ndarray
    gamma_true: np.ndarray
    hard_labels: np.ndarray

    def __post_init__(self):
        self.z_true = np.asarray(self.z_true, dtype=np.float64)
        self.gamma_true = np.asarray(self.gamma_true, dtype=np.float64)
        self.hard_labels = np.asarray(self.hard_labels, dtype=np.int64)
        if np.any(self.z_true < 0):
            raise DatasetError("z_true must be nonnegative")
        if np.any(self.gamma_true <= 0):
            raise DatasetError("gamma_true must be positive")


def sample_epm_graph(
    n: int,
    c: int,
    alpha: float,
    beta: float,
    gamma: np.ndarray,
    seed: int,
    within_boost: float = 0.0,
    features: Optional[np.ndarray] = None,
    z_override: Optional[np.ndarray] = None,
) -> tuple[Graph, PlantedCommunities]:
    """Draw a graph whose edges follow the overlapping-community edge model.

    Affiliations Z[i,k] ~ Gamma(alpha, beta) independently; each unordered
    pair (i, j) is an edge with probability 1 - exp(-sum_k gamma_k Z_ik Z_jk).
    A positive `within_boost` is added to each node's affiliation with one
    planted block (contiguous groups of n/c nodes), producing separable
    communities for oracle tests; the default 0 leaves Z exactly i.i.d.
    """
    if n < 2 or c < 1:
        raise DatasetError("need n >= 2 and c >= 1")
    if alpha <= 0 or beta <= 0:
        raise DatasetError("alpha and beta must be positive")
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (c,):
        raise DatasetError(f"gamma must have length c={c}")
    if np.any(gamma <= 0):
        raise DatasetError("gamma entries must be > 0")
    if within_boost < 0:
        raise DatasetError("within_boost must be nonnegative")

    rng = substream(seed, "epm")
    if z_override is not None:
        z = np.asarray(z_override, dtype=np.float64)
        if z.shape != (n, c) or np.any(z < 0):
            raise DatasetError("z_override must be a nonnegative n-by-c matrix")
    else:
        z = rng.gamma(shape=alpha, scale=1.0 / beta, size=(n, c))
        blocks = (np.arange(n) * c) // n
        if within_boost > 0.0:
            z[np.arange(n), blocks] += within_boost

    rates = (z * gamma) @ z.T
    prob = 1.0 - np.exp(-rates)
    iu, ju = np.triu_indices(n, k=1)
    draw = rng.random(iu.size)
    hit = draw < prob[iu, ju]
    edges = np.stack([iu[hit], ju[hit]], axis=1)
    adjacency = adjacency_from_edges(n, edges)

    if features is None:
        features = np.eye(n)
    hard = np.argmax(z, axis=1)
    graph = Graph(adjacency=adjacency, features=features, labels=hard)
    return graph, PlantedCommunities(z_true=z, gamma_true=gamma, hard_labels=hard)


# ---------------------------------------------------------------------------
# dataset IO


def _parse_rows(path: str, dtype, width: Optional[int], problem: str) -> np.ndarray:
    """Parse the non-blank lines of a file as comma-separated rows of
    `width` fields (the first row's field count when None) with one pass of
    numpy's C reader. Blank and whitespace-only lines are skipped; '#' is
    data, not a comment. A row with another field count, or a field that
    does not parse as `dtype`, raises DatasetError naming its line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    data = [line for line in lines if line and not line.isspace()]
    if not data:
        return np.zeros((0, width or 0), dtype=dtype)
    width = width or data[0].count(",") + 1
    try:
        rows = np.loadtxt(data, dtype=dtype, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        _check_field_counts(path, lines, width, problem)
        # numpy names the data row (0-based) and the field (1-based)
        where = re.search(r"\s*at row (\d+), column (\d+)\.?$", str(exc))
        if where is None:
            raise
        raise DatasetError(f"{path}:{_line_of_row(lines, int(where[1]))}: "
                           f"{str(exc)[:where.start()]} in field {where[2]}") from None
    if rows.shape[1] != width:
        _check_field_counts(path, lines, width, problem)
    return rows


def _check_field_counts(path: str, lines: list[str], width: int, problem: str):
    """Raise DatasetError at the first non-blank line (1-based) that does
    not hold `width` comma-separated fields."""
    for ln, line in enumerate(lines, 1):
        if line and not line.isspace() and line.count(",") + 1 != width:
            raise DatasetError(f"{path}:{ln}: {problem}") from None


def _line_of_row(lines: list[str], row: int) -> int:
    """The line (1-based) of data row `row`: the row-th non-blank line, as
    `_parse_rows` counts them."""
    data = [ln for ln, line in enumerate(lines, 1) if line and not line.isspace()]
    return data[row]


def _refuse_row(path: str, row: int, problem: str):
    """Raise DatasetError naming the line of data row `row`."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    raise DatasetError(f"{path}:{_line_of_row(lines, row)}: {problem}")


def _read_int_rows(path: str, width: int) -> np.ndarray:
    return _parse_rows(path, np.int64, width, f"expected {width} fields")


def _read_float_matrix(path: str) -> np.ndarray:
    rows = _parse_rows(path, np.float64, None, "ragged feature row")
    if not rows.size:
        raise DatasetError(f"{path}: empty feature file")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        _refuse_row(path, int(np.argmin(finite)), "non-finite feature value")
    return rows


def _require(path: str):
    if not os.path.isfile(path):
        raise DatasetError(f"missing dataset file: {path}")


def _load_common(path: str):
    edges_f = os.path.join(path, "edges.csv")
    feats_f = os.path.join(path, "features.csv")
    labels_f = os.path.join(path, "labels.csv")
    _require(edges_f)
    _require(feats_f)
    _require(labels_f)
    features = _read_float_matrix(feats_f)
    n = features.shape[0]
    edges = _read_int_rows(edges_f, 2)
    outside = edges[(edges < 0) | (edges >= n)]
    if outside.size:
        raise DatasetError(
            f"edge index out of range: features give N={n}, "
            f"edges reference node {outside[0]}"
        )
    labels = _read_int_rows(labels_f, 1)[:, 0]
    return features, edges, labels


def load_node_dataset(path: str) -> Graph:
    """Load a single node-classification graph from the documented layout."""
    features, edges, labels = _load_common(path)
    n = features.shape[0]
    if labels.shape[0] != n:
        raise DatasetError(f"expected {n} node labels, found {labels.shape[0]}")
    if labels.min() < 0:
        raise DatasetError("labels must be nonnegative")
    adjacency = adjacency_from_edges(n, edges)
    masks_f = os.path.join(path, "masks.csv")
    kw = {}
    if os.path.isfile(masks_f):
        masks = _read_int_rows(masks_f, 3)
        if masks.shape[0] != n:
            raise DatasetError("masks.csv must have one row per node")
        binary = ((masks == 0) | (masks == 1)).all(axis=1)
        if not binary.all():
            _refuse_row(masks_f, int(np.argmin(binary)), "mask values must be 0 or 1")
        kw = dict(
            train_mask=masks[:, 0] == 1,
            val_mask=masks[:, 1] == 1,
            test_mask=masks[:, 2] == 1,
        )
    return Graph(adjacency=adjacency, features=features, labels=labels, **kw)


def load_graph_dataset(path: str) -> GraphCollection:
    """Load a multi-graph classification dataset from the documented layout."""
    features, edges, labels = _load_common(path)
    ind_f = os.path.join(path, "graph_indicator.csv")
    _require(ind_f)
    return split_graphs(features, edges, _read_int_rows(ind_f, 1)[:, 0], labels)


def split_graphs(features: np.ndarray, edges: np.ndarray, indicator: np.ndarray,
                 labels: np.ndarray) -> GraphCollection:
    """Cut one node-indexed edge list into the graphs that `indicator`
    names: one graph id per node, consecutive from 0, one nonnegative label
    per graph, and no edge between two graphs. The nodes may come in any
    order; each graph keeps its own in id order.

    One stable sort renumbers the nodes graph by graph, so each graph is a
    diagonal block of one adjacency over all nodes, and its entries and
    features are slices: no step scans all nodes once per graph.
    """
    n = features.shape[0]
    if indicator.shape[0] != n:
        raise DatasetError("the graph indicator must have one entry per node")
    order = np.argsort(indicator, kind="stable")
    ids = indicator[order]
    if n and (ids[0] != 0 or np.any(np.diff(ids) > 1)):
        raise DatasetError("graph ids must be consecutive from 0")
    n_graphs = int(ids[-1]) + 1 if n else 0
    if labels.shape[0] != n_graphs:
        raise DatasetError(f"expected {n_graphs} graph labels, found {labels.shape[0]}")
    if labels.size and labels.min() < 0:
        raise DatasetError("graph labels must be nonnegative")
    if edges.size and np.any(indicator[edges[:, 0]] != indicator[edges[:, 1]]):
        raise DatasetError("edge crosses graph boundary")

    renumber = np.empty(n, dtype=np.int64)
    renumber[order] = np.arange(n)
    union = adjacency_from_edges(n, renumber[edges])
    starts = np.searchsorted(ids, np.arange(n_graphs + 1))
    shift = starts[ids[union.rows]]
    rows, cols = union.rows - shift, union.cols - shift
    # as Python ints, so each SparseMatrix gets int dimensions
    nodes, entries = starts.tolist(), np.searchsorted(union.rows, starts).tolist()
    features = features[order]
    graphs = []
    for g in range(n_graphs):
        lo, hi = nodes[g], nodes[g + 1]
        a, b = entries[g], entries[g + 1]
        adjacency = SparseMatrix(hi - lo, hi - lo, rows[a:b], cols[a:b], union.vals[a:b])
        graphs.append(Graph(adjacency=adjacency, features=features[lo:hi]))
    return GraphCollection(graphs=graphs, graph_labels=labels)


def _fmt(x: float) -> str:
    return repr(float(x))


def save_node_dataset(path: str, graph: Graph):
    """Write a node-task graph in the documented layout (exact round trip)."""
    os.makedirs(path, exist_ok=True)
    iu, ju = graph.adjacency.rows, graph.adjacency.cols
    keep = iu < ju
    with open(os.path.join(path, "edges.csv"), "w", encoding="utf-8") as fh:
        for i, j in zip(iu[keep], ju[keep]):
            fh.write(f"{i},{j}\n")
    with open(os.path.join(path, "features.csv"), "w", encoding="utf-8") as fh:
        for row in graph.features:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    labels = graph.labels if graph.labels is not None else np.zeros(graph.n_nodes, np.int64)
    with open(os.path.join(path, "labels.csv"), "w", encoding="utf-8") as fh:
        for v in labels:
            fh.write(f"{v}\n")
    if graph.train_mask is not None:
        with open(os.path.join(path, "masks.csv"), "w", encoding="utf-8") as fh:
            for a, b, c in zip(graph.train_mask, graph.val_mask, graph.test_mask):
                fh.write(f"{int(a)},{int(b)},{int(c)}\n")


def save_graph_dataset(path: str, collection: GraphCollection):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "edges.csv"), "w", encoding="utf-8") as fh_e, open(
        os.path.join(path, "features.csv"), "w", encoding="utf-8"
    ) as fh_f, open(
        os.path.join(path, "graph_indicator.csv"), "w", encoding="utf-8"
    ) as fh_g:
        offset = 0
        for gid, graph in enumerate(collection.graphs):
            iu, ju = graph.adjacency.rows, graph.adjacency.cols
            keep = iu < ju
            for i, j in zip(iu[keep], ju[keep]):
                fh_e.write(f"{i + offset},{j + offset}\n")
            for row in graph.features:
                fh_f.write(",".join(_fmt(v) for v in row) + "\n")
            for _ in range(graph.n_nodes):
                fh_g.write(f"{gid}\n")
            offset += graph.n_nodes
    with open(os.path.join(path, "labels.csv"), "w", encoding="utf-8") as fh:
        for v in collection.graph_labels:
            fh.write(f"{v}\n")


# ---------------------------------------------------------------------------
# splits and batching


def kfold_split(n_items: int, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic k-fold partition; fold sizes differ by at most one."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if folds > n_items:
        raise ValueError("folds must not exceed n_items")
    perm = substream(seed, "kfold", n_items, folds).permutation(n_items)
    chunks = np.array_split(perm, folds)
    out = []
    for f in range(folds):
        test = np.sort(chunks[f])
        train = np.sort(np.concatenate([chunks[g] for g in range(folds) if g != f]))
        out.append((train, test))
    return out


def batch_graphs(
    collection: GraphCollection, indices: np.ndarray
) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Disjoint union of the selected graphs.

    Returns the union graph, the node->graph position array (positions index
    into `indices`), and the per-graph labels.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise DatasetError("cannot batch an empty graph selection")
    rows, cols, feats, gids = [], [], [], []
    offset = 0
    for pos, gi in enumerate(indices):
        g = collection.graphs[gi]
        rows.append(g.adjacency.rows + offset)
        cols.append(g.adjacency.cols + offset)
        feats.append(g.features)
        gids.append(np.full(g.n_nodes, pos, dtype=np.int64))
        offset += g.n_nodes
    rows = np.concatenate(rows) if rows else np.zeros(0, np.int64)
    cols = np.concatenate(cols) if cols else np.zeros(0, np.int64)
    adjacency = SparseMatrix(offset, offset, rows, cols, np.ones(rows.size))
    union = Graph(adjacency=adjacency, features=np.concatenate(feats, axis=0))
    return union, np.concatenate(gids), collection.graph_labels[indices]
