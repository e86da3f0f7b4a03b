"""Graph containers, dataset IO, k-fold splits, and a synthetic generator.

Dataset directory layout (UTF-8 text, everything 0-indexed):

    edges.csv            one "i,j" pair per line
    features.csv         a header "N,F" of two positive integers, then one
                         "node,feature,value" line per stored entry, in any
                         order; entries not listed are 0
    labels.csv           one integer per node (node tasks) or per graph
    masks.csv            optional; three 0/1 columns: train,val,test
    graph_indicator.csv  graph tasks only; one graph id per node

Directed edge lists are symmetrized by union, duplicates deduplicated,
self-loops dropped. The node count N and feature count F come from the
features.csv header: labels.csv (node tasks), masks.csv and
graph_indicator.csv must hold N rows, and every node id must lie below N.
Blank and whitespace-only lines are skipped. A malformed line raises
DatasetError naming its file and 1-based line.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import substream
from .sparse import SparseMatrix, adjacency_from_edges, stored_mask


class DatasetError(ValueError):
    pass


def _as_features(features) -> SparseMatrix:
    """`features` as the one form the package keeps them in: a
    SparseMatrix is kept as it is, and a dense matrix is converted to its
    entries that are nonzero or -0.0."""
    if isinstance(features, SparseMatrix):
        return features
    if np.ndim(features) != 2:
        raise DatasetError("features must be a 2-D matrix")
    return SparseMatrix.from_dense(features)


@dataclass
class Graph:
    """A graph, its node features as a CSR `SparseMatrix` (a dense N x F
    array passed in is converted once) and its optional labels and masks."""

    adjacency: SparseMatrix
    features: SparseMatrix
    labels: Optional[np.ndarray] = None
    train_mask: Optional[np.ndarray] = None
    val_mask: Optional[np.ndarray] = None
    test_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = _as_features(self.features)
        if self.features.n_rows != self.adjacency.n_rows:
            raise DatasetError(
                f"feature rows ({self.features.n_rows}) do not match "
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
        return self.features.n_cols

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


# pairs drawn at a time; bounds the generator's working memory whatever the rates
_PAIR_CHUNK = 1 << 20
# the largest mean numpy's Generator.poisson accepts
_POISSON_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


def sample_epm_graph(
    n: int,
    c: int,
    alpha: float,
    beta: float,
    gamma: np.ndarray,
    seed: int,
    within_boost: float = 0.0,
    features=None,
    z_override: Optional[np.ndarray] = None,
) -> tuple[Graph, PlantedCommunities]:
    """Draw a graph whose edges follow the overlapping-community edge model.

    Affiliations Z[i,k] ~ Gamma(alpha, beta) independently; each unordered
    pair (i, j) is an edge with probability 1 - exp(-sum_k gamma_k Z_ik Z_jk),
    independently of every other pair. A positive `within_boost` is added to
    each node's affiliation with one planted block (contiguous groups of n/c
    nodes), producing separable communities for oracle tests; the default 0
    leaves Z exactly i.i.d.

    The edges are drawn by Poisson splitting, the edge partition model's own
    augmentation. With S_k = sum_i Z_ik, community k makes
    M_k ~ Poisson(gamma_k S_k^2 / 2) draws of an ordered pair (i, j), i and j
    independent with P(i) = Z_ik / S_k; pairs with i = j are dropped. Split
    over the pairs, the draws landing on (i, j) or (j, i) are independent
    Poisson counts with mean gamma_k Z_ik Z_jk, and summed over the
    communities, with mean sum_k gamma_k Z_ik Z_jk. A pair is an edge when
    its count is nonzero, which has the probability above; repeated draws of
    one pair make one edge.

    `features` defaults to the N x N identity, kept sparse.

    Cost: with M = sum_k M_k, about the expected edge count while the rates
    are small, O(N C + M log N) time and O(N C + E + 2^20) memory, with no
    N^2 stage. The draws are made 2^20 pairs at a time, and the pairs held
    are reduced to distinct keys before they outgrow the edges, so
    saturated rates (more draws than the N^2 / 2 pairs) still fit. The
    graph drawn for a seed differs from the one earlier versions of this
    function, which drew one uniform per pair, drew for it.
    """
    if n < 2 or c < 1:
        raise DatasetError("need n >= 2 and c >= 1")
    if not (np.isfinite(alpha) and np.isfinite(beta) and alpha > 0 and beta > 0):
        raise DatasetError("alpha and beta must be positive and finite")
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (c,):
        raise DatasetError(f"gamma must have length c={c}")
    if not np.all(np.isfinite(gamma) & (gamma > 0)):
        raise DatasetError("gamma entries must be finite and > 0")
    if not (np.isfinite(within_boost) and within_boost >= 0):
        raise DatasetError("within_boost must be finite and nonnegative")

    rng = substream(seed, "epm")
    if z_override is not None:
        z = np.asarray(z_override, dtype=np.float64)
        if z.shape != (n, c) or not np.all(np.isfinite(z) & (z >= 0)):
            raise DatasetError("z_override must be a finite nonnegative n-by-c matrix")
    else:
        z = rng.gamma(shape=alpha, scale=1.0 / beta, size=(n, c))
        blocks = (np.arange(n) * c) // n
        if within_boost > 0.0:
            z[np.arange(n), blocks] += within_boost

    with np.errstate(over="ignore"):
        means = gamma * z.sum(axis=0) ** 2 / 2
        total = means.sum()
    if total > _POISSON_MAX:
        raise DatasetError(f"the rates ask for {total:.3g} pair draws, more than "
                           f"the {_POISSON_MAX:.3g} one Poisson count can hold")
    draws = rng.poisson(means)
    keys, held = np.zeros(0, np.int64), []
    for k in np.flatnonzero(draws):
        nodes = np.flatnonzero(z[:, k])
        cdf = np.cumsum(z[nodes, k])
        for start in range(0, int(draws[k]), _PAIR_CHUNK):
            # consecutive (m, 2) blocks read one stream, so the graph does
            # not depend on the chunk size
            u = rng.random((min(_PAIR_CHUNK, int(draws[k]) - start), 2))
            u *= cdf[-1]
            pairs = nodes[np.minimum(np.searchsorted(cdf, u, side="right"), nodes.size - 1)]
            pairs.sort(axis=1)
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            held.append(pairs[:, 0] * n + pairs[:, 1])
            if sum(h.size for h in held) >= max(keys.size, _PAIR_CHUNK):
                keys, held = np.unique(np.concatenate([keys, *held])), []
    keys = np.unique(np.concatenate([keys, *held]))
    adjacency = adjacency_from_edges(n, np.stack([keys // n, keys % n], axis=1))

    if features is None:
        nodes = np.arange(n)
        features = SparseMatrix(n, n, nodes, nodes, np.ones(n))
    hard = np.argmax(z, axis=1)
    graph = Graph(adjacency=adjacency, features=features, labels=hard)
    return graph, PlantedCommunities(z_true=z, gamma_true=gamma, hard_labels=hard)


# ---------------------------------------------------------------------------
# dataset IO

# one features.csv entry line: node id, feature id, value
_ENTRY = np.dtype([("node", np.int64), ("feature", np.int64), ("value", np.float64)])
_HEADER = re.compile(r"\s*(\d+)\s*,\s*(\d+)\s*", re.ASCII)


def _data_lines(path: str, skip: int = 0) -> list[tuple[int, str]]:
    """The non-blank lines of `path` after its first `skip` lines, each with
    its 1-based line number. Blank and whitespace-only lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return [(ln, line) for ln, line in enumerate(lines, 1)
            if ln > skip and line and not line.isspace()]


def _parse_rows(path: str, dtype: np.dtype, problem: str, skip: int = 0) -> np.ndarray:
    """Parse the non-blank lines of `path` after its first `skip` lines as
    rows of the structured `dtype`, one comma-separated field per dtype
    field, with one pass of numpy's C reader over the file; '#' is data,
    not a comment. A row with another field count raises DatasetError
    naming its line with `problem`; a field that does not parse as its
    type raises one naming its line and field.

    numpy refuses a whitespace-only line, so a file that holds one, or a
    fault, is parsed again from its non-blank lines alone: only then are
    line numbers worked out."""
    read = dict(dtype=dtype, delimiter=",", comments=None, ndmin=1)
    with warnings.catch_warnings():
        # a file with no data rows is an empty array, not a warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            return np.loadtxt(path, skiprows=skip, encoding="utf-8", **read)
        except ValueError:
            pass
        data = _data_lines(path, skip)
        try:
            return np.loadtxt([line for _ln, line in data], **read)
        except ValueError as exc:
            width = len(dtype.names)
            for ln, line in data:
                if line.count(",") + 1 != width:
                    raise DatasetError(f"{path}:{ln}: {problem}") from None
            # numpy names the data row (0-based) and the field (1-based)
            where = re.search(r"\s*at row (\d+), column (\d+)\.?$", str(exc))
            if where is None:
                raise
            raise DatasetError(f"{path}:{data[int(where[1])][0]}: "
                               f"{str(exc)[:where.start()]} in field {where[2]}") from None


def _refuse_row(path: str, row: int, problem: str, skip: int = 0):
    """Raise DatasetError naming the line of data row `row`, counting the
    non-blank lines after the first `skip` lines."""
    raise DatasetError(f"{path}:{_data_lines(path, skip)[row][0]}: {problem}")


def _refuse_count(path: str, found: int, expected: int, what: str):
    """Raise DatasetError for a file of `found` rows where `expected` are
    due, naming the line of its first surplus row or, for a short file, the
    line after its last row."""
    data = _data_lines(path)
    ln = data[expected][0] if found > expected else (data[-1][0] + 1 if data else 1)
    raise DatasetError(f"{path}:{ln}: expected {expected} {what}, found {found}")


def _first_outside(ids: np.ndarray, bound: int):
    """(row, field) of the first id outside 0..bound-1 in the rows of
    `ids`, fields 1-based, or None."""
    outside = (ids < 0) | (ids >= bound)
    if not outside.any():
        return None
    row, col = divmod(int(np.argmax(outside)), outside[0].size)
    return row, col + 1


def _read_int_rows(path: str, width: int) -> np.ndarray:
    rows = _parse_rows(path, np.dtype([("", np.int64)] * width),
                       f"expected {width} fields")
    return rows.view(np.int64).reshape(-1, width)


def _read_features(path: str) -> SparseMatrix:
    """The N x F matrix of a sparse features.csv: a header line "N,F" of
    two positive integers, then one "node,feature,value" line per stored
    entry, in any order; entries not listed are 0. The matrix stores the
    listed entries that are nonzero or -0.0, in row-major order; memory
    is linear in the entries and N, whatever F is."""
    with open(path, encoding="utf-8") as fh:
        for head_ln, head in enumerate(fh, 1):
            if not head.isspace():
                break
        else:
            raise DatasetError(f"{path}: empty feature file")
    shape = _HEADER.fullmatch(head)
    n, f = (int(shape[1]), int(shape[2])) if shape else (0, 0)
    if not n or not f:
        raise DatasetError(
            f"{path}:{head_ln}: expected the header 'N,F' of two positive integers, "
            f"then one 'node,feature,value' line per stored entry (a dense "
            f"features.csv, one row of values per node, is not read)")
    rows = _parse_rows(path, _ENTRY, "expected 3 fields: node,feature,value",
                       skip=head_ln)
    node, feature, value = rows["node"], rows["feature"], rows["value"]
    for ids, bound, what, field in ((node, n, "node id", 1),
                                    (feature, f, "feature id", 2)):
        hit = _first_outside(ids, bound)
        if hit is not None:
            _refuse_row(path, hit[0], f"{what} {ids[hit[0]]} outside 0..{bound - 1} "
                        f"(header N={n}, F={f}) in field {field}", head_ln)
    finite = np.isfinite(value)
    if not finite.all():
        _refuse_row(path, int(np.argmin(finite)), "non-finite feature value in field 3",
                    head_ln)
    flat = node * f + feature
    # the writers list entries in row-major order; any other order is
    # sorted, which also finds a repeated entry
    if np.any(flat[1:] <= flat[:-1]):
        order = np.argsort(flat, kind="stable")
        repeat = np.flatnonzero(flat[order[1:]] == flat[order[:-1]])
        if repeat.size:
            # the stable sort keeps each entry's lines in file order
            k = int(np.argmin(order[1:][repeat]))
            first, second = int(order[repeat[k]]), int(order[repeat[k] + 1])
            data = _data_lines(path, head_ln)
            raise DatasetError(
                f"{path}:{data[second][0]}: repeats the entry of node {node[second]}, "
                f"feature {feature[second]} from line {data[first][0]}")
        node, feature, value = node[order], feature[order], value[order]
    # the stored entries, each field as a contiguous array of its own
    stored = stored_mask(value)
    return SparseMatrix._trusted(n, f, node[stored], feature[stored], value[stored])


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
    features = _read_features(feats_f)
    n = features.n_rows
    edges = _read_int_rows(edges_f, 2)
    hit = _first_outside(edges, n)
    if hit is not None:
        _refuse_row(edges_f, hit[0], f"edge index out of range in field {hit[1]}: "
                    f"features give N={n}, edges reference node {edges[hit[0], hit[1] - 1]}")
    labels = _read_int_rows(labels_f, 1)[:, 0]
    return features, edges, labels


def _check_labels(path: str, labels: np.ndarray, expected: int, what: str):
    if labels.shape[0] != expected:
        _refuse_count(path, labels.shape[0], expected, what)
    if labels.size and labels.min() < 0:
        _refuse_row(path, int(np.argmin(labels)), f"{what} must be nonnegative")


def load_node_dataset(path: str) -> Graph:
    """Load a single node-classification graph from the documented layout."""
    features, edges, labels = _load_common(path)
    n = features.n_rows
    _check_labels(os.path.join(path, "labels.csv"), labels, n, "node labels")
    adjacency = adjacency_from_edges(n, edges)
    masks_f = os.path.join(path, "masks.csv")
    kw = {}
    if os.path.isfile(masks_f):
        masks = _read_int_rows(masks_f, 3)
        if masks.shape[0] != n:
            _refuse_count(masks_f, masks.shape[0], n, "mask rows, one per node")
        binary = ((masks == 0) | (masks == 1)).all(axis=1)
        if not binary.all():
            _refuse_row(masks_f, int(np.argmin(binary)), "mask values must be 0 or 1")
        single = masks.sum(axis=1) <= 1
        if not single.all():
            _refuse_row(masks_f, int(np.argmin(single)),
                        "a node belongs to at most one of train, val and test")
        kw = dict(
            train_mask=masks[:, 0] == 1,
            val_mask=masks[:, 1] == 1,
            test_mask=masks[:, 2] == 1,
        )
    return Graph(adjacency=adjacency, features=features, labels=labels, **kw)


def load_graph_dataset(path: str) -> GraphCollection:
    """Load a multi-graph classification dataset from the documented layout."""
    features, edges, labels = _load_common(path)
    n = features.n_rows
    ind_f = os.path.join(path, "graph_indicator.csv")
    _require(ind_f)
    indicator = _read_int_rows(ind_f, 1)[:, 0]
    if indicator.shape[0] != n:
        _refuse_count(ind_f, indicator.shape[0], n, "graph ids, one per node")
    hit = _first_outside(indicator, n)
    if hit is not None:
        _refuse_row(ind_f, hit[0], f"graph id {indicator[hit[0]]} outside 0..{n - 1}")
    return split_graphs(features, edges, indicator, labels,
                        files=(os.path.join(path, "edges.csv"), ind_f,
                               os.path.join(path, "labels.csv")))


def _refuse_at(path: Optional[str], row: int, problem: str):
    """Raise DatasetError for data row `row` of `path`, naming its line,
    or for `problem` alone when the rows come from no file."""
    if path is None:
        raise DatasetError(problem)
    _refuse_row(path, row, problem)


def split_graphs(features, edges: np.ndarray, indicator: np.ndarray,
                 labels: np.ndarray, files: Optional[tuple[str, str, str]] = None,
                 base: int = 0) -> GraphCollection:
    """Cut one node-indexed edge list into the graphs that `indicator`
    names: one graph id per node, consecutive from 0, one nonnegative label
    per graph, and no edge between two graphs. The nodes may come in any
    order; each graph keeps its own in id order.

    `files` names the (edges, graph indicator, graph labels) files that the
    arrays were parsed from, one row per data line, so that a refusal names
    its file and line; `base` is the id those files give their first node
    and graph (1 in the TU format), so that a refusal quotes their ids.

    One stable sort renumbers the nodes graph by graph, so each graph is a
    diagonal block of one adjacency over all nodes, and a row block of the
    features (a SparseMatrix, or a dense matrix, converted once); both are
    cut from slices of the validated whole: no step scans all nodes once
    per graph.
    """
    edges_f, ind_f, labels_f = files or (None, None, None)
    features = _as_features(features)
    n = features.n_rows
    if indicator.shape[0] != n:
        raise DatasetError("the graph indicator must have one entry per node")
    order = np.argsort(indicator, kind="stable")
    ids = indicator[order]
    gaps = np.flatnonzero(np.diff(ids) > 1) + 1
    if n and (ids[0] != 0 or gaps.size):
        # named at the first node, in file order, of the id that breaks the run
        p = 0 if ids[0] != 0 else int(gaps[0])
        found = (f"the smallest is {ids[0] + base}" if p == 0
                 else f"no node has graph id {ids[p - 1] + 1 + base}")
        _refuse_at(ind_f, int(order[p]),
                   f"graph ids must be consecutive from {base}, and {found}")
    n_graphs = int(ids[-1]) + 1 if n else 0
    if labels.shape[0] != n_graphs:
        if labels_f is None:
            raise DatasetError(f"expected {n_graphs} graph labels, found {labels.shape[0]}")
        _refuse_count(labels_f, labels.shape[0], n_graphs, "graph labels")
    if labels.size and labels.min() < 0:
        _refuse_at(labels_f, int(np.argmin(labels)), "graph labels must be nonnegative")
    if edges.size:
        cross = np.flatnonzero(indicator[edges[:, 0]] != indicator[edges[:, 1]])
        if cross.size:
            e = int(cross[0])
            (i, j), (gi, gj) = edges[e] + base, indicator[edges[e]] + base
            _refuse_at(edges_f, e, f"edge crosses graph boundary: node {i} is in "
                       f"graph {gi}, node {j} in graph {gj}")

    renumber = np.empty(n, dtype=np.int64)
    renumber[order] = np.arange(n)
    union = adjacency_from_edges(n, renumber[edges])
    features = features.take_rows(order)
    # as Python ints, so each SparseMatrix gets int dimensions
    starts = np.searchsorted(ids, np.arange(n_graphs + 1)).tolist()
    graphs = [Graph(adjacency=union.diagonal_block(lo, hi),
                    features=features.row_block(lo, hi))
              for lo, hi in zip(starts[:-1], starts[1:])]
    return GraphCollection(graphs=graphs, graph_labels=labels)


def _write_rows(path: str, rows: np.ndarray):
    """Write integer rows as comma-separated lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows.tolist())


def _write_features(path: str, features: SparseMatrix):
    """Write `features` in the sparse form: the header "N,F", then one
    "node,feature,value" line per `stored_mask` entry, in row-major order,
    with `repr` values (an exact round trip)."""
    n, f = features.shape
    stored = stored_mask(features.vals)
    nodes, feats = features.rows[stored], features.cols[stored]
    values = features.vals[stored]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n},{f}\n")
        fh.writelines(f"{i},{j},{v!r}\n" for i, j, v in
                      zip(nodes.tolist(), feats.tolist(), values.tolist()))


def _upper_edges(adjacency: SparseMatrix, offset: int = 0) -> np.ndarray:
    keep = adjacency.rows < adjacency.cols
    return np.stack([adjacency.rows[keep], adjacency.cols[keep]], axis=1) + offset


def save_node_dataset(path: str, graph: Graph):
    """Write a node-task graph in the documented layout, an exact round
    trip: features.csv in the sparse form, each edge once as "i,j" with
    i < j, and masks.csv only when the graph has a train mask. Time and
    space are linear in nodes, edges and stored feature entries."""
    os.makedirs(path, exist_ok=True)
    _write_rows(os.path.join(path, "edges.csv"), _upper_edges(graph.adjacency))
    _write_features(os.path.join(path, "features.csv"), graph.features)
    labels = graph.labels if graph.labels is not None else np.zeros(graph.n_nodes, np.int64)
    _write_rows(os.path.join(path, "labels.csv"), labels[:, None])
    if graph.train_mask is not None:
        masks = np.stack([graph.train_mask, graph.val_mask, graph.test_mask], axis=1)
        _write_rows(os.path.join(path, "masks.csv"), masks.astype(np.int64))


def save_graph_dataset(path: str, collection: GraphCollection):
    """Write a graph collection in the documented layout, an exact round
    trip: the graphs' nodes one graph after another, so graph g's nodes
    follow graph g-1's, and features.csv in the sparse form over all of
    them."""
    os.makedirs(path, exist_ok=True)
    graphs = collection.graphs
    sizes = [g.n_nodes for g in graphs]
    offsets = np.cumsum([0] + sizes[:-1])
    _write_rows(os.path.join(path, "edges.csv"), np.concatenate(
        [_upper_edges(g.adjacency, o) for g, o in zip(graphs, offsets)]))
    _write_features(os.path.join(path, "features.csv"),
                    SparseMatrix.vstack([g.features for g in graphs]))
    _write_rows(os.path.join(path, "graph_indicator.csv"),
                np.repeat(np.arange(len(graphs)), sizes)[:, None])
    _write_rows(os.path.join(path, "labels.csv"), collection.graph_labels[:, None])


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
    union = Graph(adjacency=adjacency, features=SparseMatrix.vstack(feats))
    return union, np.concatenate(gids), collection.graph_labels[indices]
