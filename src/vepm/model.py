"""The model: community encoder, edge partitioner, community-GNN bank,
representation composer, pooling, and the Monte Carlo label predictor.

Aggregation comes in two kinds: degree-normalized with self-loops for node
tasks, and sum aggregation with a learnable self-weight and a two-layer
per-node transform for graph tasks. Each partitioned graph is normalized
with its own weighted degrees, differentiably, so gradients reach the
partition weights (and through them the affiliations and activations); the
binary support of the adjacency stays constant, and every weighted
aggregation over it, self-loops included, is one `edge_spmm`. Node
features are kept as a CSR constant and multiplied with the sparse kernel.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import diffmath as dm
from .diffmath import Node, ParameterStore
from .distributions import (
    CommunityActivations,
    block_structure,
    clamp_weibull,
    weibull_rsample,
)
from .graphs import Graph
from .rng import substream
from .sparse import SparseMatrix, normalize_adjacency

LAYER_KINDS = ("gcn", "gin")
COMPOSER_KINDS = ("gnn", "dense")
PARTITION_MODES = ("learned", "even", "random")
INPUT_MODES = ("features_and_z", "features_only", "z_only", "random")


class ModelError(ValueError):
    pass


@dataclass
class ModelConfig:
    n_metacommunities: int = 4
    communities_per_block: int = 4
    tau: float = 1.0
    encoder_layers: int = 2
    bank_layers: int = 2
    composer_layers: int = 2
    hidden_dim: int = 64
    layer_kind: str = "gcn"
    composer_kind: str = "gnn"
    partition_mode: str = "learned"
    input_mode: str = "features_and_z"
    mc_samples: int = 4
    dropout: float = 0.5

    def __post_init__(self):
        for name in ("n_metacommunities", "communities_per_block", "encoder_layers",
                     "bank_layers", "composer_layers", "hidden_dim", "mc_samples"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ModelError("tau must be finite and positive")
        try:
            dm.dropout_threshold(self.dropout)
        except dm.DiffMathError as exc:
            raise ModelError(str(exc)) from None
        if self.layer_kind not in LAYER_KINDS:
            raise ModelError(f"layer_kind must be one of {LAYER_KINDS}")
        if self.composer_kind not in COMPOSER_KINDS:
            raise ModelError(f"composer_kind must be one of {COMPOSER_KINDS}")
        if self.partition_mode not in PARTITION_MODES:
            raise ModelError(f"partition_mode must be one of {PARTITION_MODES}")
        if self.input_mode not in INPUT_MODES:
            raise ModelError(f"input_mode must be one of {INPUT_MODES}")

    @property
    def total_communities(self) -> int:
        return self.n_metacommunities * self.communities_per_block

    @property
    def bank_width(self) -> int:
        # per-community hidden budget: 1/K of the shared hidden dimension
        return math.ceil(self.hidden_dim / self.n_metacommunities)


@dataclass
class AffiliationPosterior:
    weibull_shape: Node
    weibull_scale: Node
    z: Node


@dataclass
class EdgePartition:
    """K weighted edge sets sharing the adjacency support.

    `weights` has one row per stored (directed) entry of `support`, in its
    row-major order, and K columns; each row sums to one, the value of
    every stored entry of a binary adjacency.
    """

    support: SparseMatrix
    weights: Node
    _gcn: Optional[tuple] = field(default=None, init=False, repr=False)

    @property
    def k(self) -> int:
        return self.weights.value.shape[1]

    def gcn_normalization(self) -> tuple[Node, Node, sp.csr_matrix]:
        """`_gcn_normalization` of the weights and its K-part block CSR for
        `edge_spmm`, computed once per partition and read by every bank
        layer (and, for the partition frozen across the theta steps, by
        every theta step) that aggregates over it."""
        if self._gcn is None:
            ew, self_w = _gcn_normalization(self.weights, self.support)
            operator = self.support.block_csr_with_diagonal(
                ew.value, self_w.value.T, shared=False)
            self._gcn = (ew, self_w, operator)
        return self._gcn


@dataclass
class PreparedGraph:
    """A graph plus the constants every forward pass reuses."""

    graph: Graph
    task: str
    n_classes: int
    a_norm: SparseMatrix = field(init=False)
    x_csr: SparseMatrix = field(init=False)
    graph_ids: Optional[np.ndarray] = None
    graph_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.task not in ("node", "graph"):
            raise ModelError("task must be 'node' or 'graph'")
        self.a_norm = normalize_adjacency(self.graph.adjacency)
        self.x_csr = SparseMatrix.from_dense(self.graph.features)
        if self.task == "graph":
            if self.graph_ids is None or self.graph_labels is None:
                raise ModelError("graph task requires graph_ids and graph_labels")
            self.graph_ids = np.asarray(self.graph_ids, dtype=np.int64)
            self.graph_labels = np.asarray(self.graph_labels, dtype=np.int64)

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def n_graphs(self) -> int:
        return 0 if self.graph_ids is None else int(self.graph_ids.max()) + 1


def prepare_node_graph(graph: Graph) -> PreparedGraph:
    return PreparedGraph(graph=graph, task="node", n_classes=graph.n_classes())


def prepare_graph_batch(union: Graph, graph_ids, graph_labels, n_classes) -> PreparedGraph:
    return PreparedGraph(graph=union, task="graph", n_classes=n_classes,
                         graph_ids=graph_ids, graph_labels=graph_labels)


# ---------------------------------------------------------------------------
# parameters


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def _bank_input_dim(cfg: ModelConfig, n_features: int) -> int:
    return {
        "features_and_z": n_features + cfg.total_communities,
        "features_only": n_features,
        "z_only": cfg.total_communities,
        "random": n_features,
    }[cfg.input_mode]


def _add_layer(store, rng, name, din, dout, kind, group):
    if kind == "gcn" or kind == "dense":
        store.add(f"{name}.W", _glorot(rng, din, dout), group)
        store.add(f"{name}.b", np.zeros(dout), group)
    else:  # gin: learnable self-weight + two-layer transform
        store.add(f"{name}.eps", np.zeros(()), group)
        store.add(f"{name}.W1", _glorot(rng, din, dout), group)
        store.add(f"{name}.b1", np.zeros(dout), group)
        store.add(f"{name}.W2", _glorot(rng, dout, dout), group)
        store.add(f"{name}.b2", np.zeros(dout), group)


def _add_bank(store, cfg, din, seed):
    """The K community GNNs' parameters, stacked per layer.

    Layer li holds `bank.{li}.W` (K*din_li, bw), the K weights stacked as
    row blocks, and `bank.{li}.b` (K, bw), one bias row per community; GIN
    stacks `W1`/`W2` and `b1`/`b2` the same way and has one `eps` per
    community, (K,). The GCN's first layer is one fused product over the
    shared input, so it is `bank.0.W` (din, K*bw) with the K weights as
    column blocks and `bank.0.b` (K*bw,). Community k's blocks are drawn
    from the ("init", "bank", k, li) substream.
    """
    k_meta, bw = cfg.n_metacommunities, cfg.bank_width
    bdims = [din] + [bw] * cfg.bank_layers
    for li in range(cfg.bank_layers):
        name, a = f"bank.{li}", bdims[li]
        rngs = [substream(seed, "init", "bank", k, li) for k in range(k_meta)]
        if cfg.layer_kind == "gcn" and li == 0:
            store.add(f"{name}.W", np.hstack([_glorot(r, a, bw) for r in rngs]), "theta")
            store.add(f"{name}.b", np.zeros(k_meta * bw), "theta")
        elif cfg.layer_kind == "gcn":
            store.add(f"{name}.W", np.vstack([_glorot(r, a, bw) for r in rngs]), "theta")
            store.add(f"{name}.b", np.zeros((k_meta, bw)), "theta")
        else:
            w1 = [_glorot(r, a, bw) for r in rngs]
            w2 = [_glorot(r, bw, bw) for r in rngs]
            store.add(f"{name}.eps", np.zeros(k_meta), "theta")
            store.add(f"{name}.W1", np.vstack(w1), "theta")
            store.add(f"{name}.b1", np.zeros((k_meta, bw)), "theta")
            store.add(f"{name}.W2", np.vstack(w2), "theta")
            store.add(f"{name}.b2", np.zeros((k_meta, bw)), "theta")


def init_params(cfg: ModelConfig, n_features: int, n_classes: int, seed: int,
                task: str) -> ParameterStore:
    """Fresh parameter store for the full architecture."""
    store = ParameterStore()
    c_total = cfg.total_communities

    dims = [n_features] + [cfg.hidden_dim] * (cfg.encoder_layers - 1) + [2 * c_total]
    for li in range(cfg.encoder_layers):
        rng = substream(seed, "init", "enc", li)
        _add_layer(store, rng, f"enc.{li}", dims[li], dims[li + 1], "gcn", "phi")

    store.add("gamma_raw", CommunityActivations.initial_raw(c_total), "shared")

    _add_bank(store, cfg, _bank_input_dim(cfg, n_features), seed)

    comp_out = n_classes if task == "node" else cfg.hidden_dim
    cdims = ([cfg.n_metacommunities * cfg.bank_width]
             + [cfg.hidden_dim] * (cfg.composer_layers - 1) + [comp_out])
    comp_kind = cfg.layer_kind if cfg.composer_kind == "gnn" else "dense"
    for li in range(cfg.composer_layers):
        rng = substream(seed, "init", "comp", li)
        _add_layer(store, rng, f"comp.{li}", cdims[li], cdims[li + 1], comp_kind, "theta")

    if task == "graph":
        rng = substream(seed, "init", "out")
        store.add("out.W", _glorot(rng, cfg.hidden_dim, n_classes), "theta")
        store.add("out.b", np.zeros(n_classes), "theta")
    return store


def gamma_node(store: ParameterStore) -> Node:
    return CommunityActivations.gamma(store["gamma_raw"])


# ---------------------------------------------------------------------------
# module 4: community encoder


def encode_communities(prep: PreparedGraph, store: ParameterStore, cfg: ModelConfig,
                       uniforms: np.ndarray, seed: int,
                       step: Optional[int] = None) -> AffiliationPosterior:
    """Variational Weibull posterior over node-community affiliations.

    The encoder GNN emits 2C columns, split into shape and scale halves and
    mapped through softplus; the sample is the inverse-CDF transform of the
    supplied uniforms, differentiable in both halves. Dropout is drawn at
    training step `step`; a forward-only pass (`step` None) draws none.
    """
    h = None
    for li in range(cfg.encoder_layers):
        name = f"enc.{li}"
        if li == 0:
            m = dm.sparse_dense_matmul(prep.x_csr, store[f"{name}.W"]) + store[f"{name}.b"]
        else:
            m = _linear(h, store, name)
        h = dm.sparse_dense_matmul(prep.a_norm, m)
        if li < cfg.encoder_layers - 1:
            h = _relu_dropout(h, cfg, step, seed, ("enc", li + 1))
    c = cfg.total_communities
    if h.value.shape[1] != 2 * c:
        raise ModelError(f"encoder output width {h.value.shape[1]} != 2C = {2 * c}")
    shape_k, scale = clamp_weibull(dm.slice_columns(h, 0, c), dm.slice_columns(h, c, 2 * c))
    z = weibull_rsample(shape_k, scale, uniforms)
    return AffiliationPosterior(weibull_shape=shape_k, weibull_scale=scale, z=z)


def encoder_uniforms(n: int, c: int, seed: int, *path) -> np.ndarray:
    return substream(seed, "encoder-noise", *path).random((n, c))


# ---------------------------------------------------------------------------
# module 1: edge partitioner


def draw_random_partition_weights(adjacency: SparseMatrix, cfg: ModelConfig,
                                  seed: int) -> np.ndarray:
    """Frozen random partition: U(0,100) per undirected edge and block,
    softmax-normalized at temperature tau, mirrored to both directions."""
    layout = adjacency.pair_layout()
    raw = substream(seed, "random-partition").uniform(0.0, 100.0,
                                                      (layout.iu.size, cfg.n_metacommunities))
    return dm.softmax_rows(raw, cfg.tau)[layout.entry_pair]


def _learned_partition(adjacency: SparseMatrix, z: Node, gamma: Node, k: int,
                       tau: float) -> Node:
    """Per stored entry, the softmax at temperature tau of its pair's K
    block rates r_k = sum_{c in block k} z_ic gamma_c z_jc, computed once
    per unordered pair {i, j} and mirrored to both stored directions.

    One tape op over (z, gamma). Its reverse rule adds the gradients of
    each pair's two entries, applies the softmax rule, and spreads each
    block's rate gradient q over the block's communities; then
        dz_i   = gamma * sum over the stored entries (i, j) of q_ij z_j
        dgamma = sum over pairs of q_ij z_i z_j
    where the z sum is one reduction over the support's row pointer.
    """
    zv, gv = z.value, gamma.value
    c = zv.shape[1]
    if c % k:
        raise ModelError(f"C={c} communities do not split into K={k} blocks")
    iu, ju, entry_pair, upper, lower, _mirror = adjacency.pair_layout()
    zj = np.take(zv, ju, axis=0)
    prod = np.take(zv * gv, iu, axis=0) * zj
    w_pair = dm.softmax_rows(prod.reshape(iu.size, k, c // k).sum(axis=2), tau)

    def vjp(g, needs):
        q = dm.softmax_rows_grad(
            w_pair, np.take(g, upper, axis=0) + np.take(g, lower, axis=0), tau)
        if c > k:
            q = np.repeat(q, c // k, axis=1)
        g_z = g_gamma = None
        if needs[0]:
            g_z = adjacency.entry_row_sums(np.take(q, entry_pair, axis=0)
                                           * np.take(zv, adjacency.cols, axis=0))
            g_z *= gv
        if needs[1]:
            g_gamma = (q * np.take(zv, iu, axis=0) * zj).sum(axis=0)
        return g_z, g_gamma

    return dm.make_node("partition", np.take(w_pair, entry_pair, axis=0), (z, gamma), vjp)


def partition_edges(adjacency: SparseMatrix, z: Optional[Node], gamma: Optional[Node],
                    cfg: ModelConfig, seed: int) -> EdgePartition:
    """Split each edge of a binary adjacency into K weights summing to one.

    learned: per-edge softmax of the K metacommunity interaction rates at
    temperature tau; even: every weight 1/K; random: frozen seeded weights.
    """
    k = cfg.n_metacommunities
    if cfg.partition_mode == "learned":
        if z is None or gamma is None:
            raise ModelError("learned partition requires affiliations and activations")
        weights = _learned_partition(adjacency, z, gamma, k, cfg.tau)
    elif cfg.partition_mode == "even":
        weights = dm.constant(np.full((adjacency.nnz, k), 1.0 / k))
    else:
        weights = dm.constant(draw_random_partition_weights(adjacency, cfg, seed))
    return EdgePartition(support=adjacency, weights=weights)


# ---------------------------------------------------------------------------
# layers


def _relu_dropout(h, cfg, step, seed, layer):
    """The ReLU at a layer boundary, fused with the dropout on the next
    layer's input, whose mask (for all K row blocks of a stacked `h` at
    once) is drawn from the ("dropout", *layer, step) substream. A
    forward-only pass (`step` None) takes the ReLU alone and draws nothing."""
    if step is None:
        return dm.relu(h)
    return dm.relu_dropout(h, cfg.dropout, substream(seed, "dropout", *layer, step))


def _linear(h, store, name):
    return dm.matmul(h, store[f"{name}.W"], store[f"{name}.b"])


def _gcn_normalization(weights: Node, support: SparseMatrix) -> tuple[Node, Node]:
    """Per-part normalization D^{-1/2} (A^(k) + I) D^{-1/2} of K weighted
    edge sets on one symmetric support, differentiable in the weights.

    Column k of `weights` (E x K) is A^(k); its weighted degrees d include
    the unit self-loop. Returns the normalized edge weights (E x K),
    w_ij s_i s_j with s = d^{-1/2}, and the self-loop weights 1/d (N x K):
    one forward pass, whose two outputs are tape nodes with a reverse rule
    each. The edge side's is g s_i s_j plus its degree term gd[i] with
        gs = sum over the stored entries (i, j) of (t_ij + t_ji) s_j,
        gd = -gs d^{-3/2} / 2,    t = g w,
    where t_ji, the column side, is read through the support's mirror
    permutation; the self-loop side's is -(g / d^2)[i].
    """
    wv = weights.value
    rows, cols = support.rows, support.cols
    deg = support.entry_row_sums(wv) + 1.0
    dinv_sqrt = deg ** -0.5
    scale = np.take(dinv_sqrt, rows, axis=0) * np.take(dinv_sqrt, cols, axis=0)
    self_w = deg ** -1.0

    def edge_vjp(g, needs):
        t = g * wv
        t += np.take(t, support.pair_layout().mirror, axis=0)
        t *= np.take(dinv_sqrt, cols, axis=0)
        g_deg = support.entry_row_sums(t) * (-0.5 * deg ** -1.5)
        return (g * scale + np.take(g_deg, rows, axis=0),)

    def self_vjp(g, needs):
        return (np.take(-g * self_w * self_w, rows, axis=0),)

    return (dm.make_node("gcn_norm", wv * scale, (weights,), edge_vjp),
            dm.make_node("gcn_self_loops", self_w, (weights,), self_vjp))


def _gin_layer(h, support, w_edge, store, name):
    """Sum aggregation over the K parts of `w_edge`, with learnable self-weights,
    and the 2-layer transform of each part, one `block_mlp`."""
    k = w_edge.value.shape[1]
    agg = dm.edge_spmm(support, w_edge, h, diag=dm.constant(np.ones(k)) + store[f"{name}.eps"])
    return dm.block_mlp(agg, store[f"{name}.W1"], store[f"{name}.b1"],
                        store[f"{name}.W2"], store[f"{name}.b2"])


# ---------------------------------------------------------------------------
# module 2: community-GNN bank


def build_input_features(prep: PreparedGraph, z: Node, cfg: ModelConfig,
                         seed: int) -> list:
    """The bank input x* as a list of column blocks.

    For GCN the node features stay the CSR constant `prep.x_csr`, which the
    fused first transform multiplies with the sparse kernel. GIN aggregates
    x* before transforming it, so it gets one dense [X | z] block.
    """
    if cfg.input_mode == "random":
        noise = substream(seed, "input-noise").standard_normal(prep.graph.features.shape)
        return [dm.constant(noise)]
    x = prep.x_csr if cfg.layer_kind == "gcn" else dm.constant(prep.graph.features)
    blocks = {"features_and_z": [x, z], "features_only": [x], "z_only": [z]}[cfg.input_mode]
    if len(blocks) > 1 and cfg.layer_kind == "gin":
        return [dm.concat_columns(blocks)]
    return blocks


def _blocks_matmul(blocks: list, w: Node) -> Node:
    """[B_1 | B_2 | ...] @ w for column blocks that are CSR constants or
    nodes; w is split into the matching row blocks."""
    widths = [b.shape[1] for b in blocks]
    if sum(widths) != w.value.shape[0]:
        raise ModelError(f"input width {sum(widths)} != weight rows {w.value.shape[0]}")
    out, r0 = None, 0
    for b, width in zip(blocks, widths):
        w_b = w if len(blocks) == 1 else dm.slice_rows(w, r0, r0 + width)
        prod = (dm.sparse_dense_matmul(b, w_b) if isinstance(b, SparseMatrix)
                else dm.matmul(b, w_b))
        out = prod if out is None else out + prod
        r0 += width
    return out


def community_gnn_forward(x_star: list, partition: EdgePartition,
                          store: ParameterStore, cfg: ModelConfig, seed: int,
                          step: Optional[int] = None) -> Node:
    """One L2-layer GNN per metacommunity over its partitioned graph, run
    as one stacked computation: between the layers the K communities'
    activations are the row blocks of one (K*N, bw) node, and each layer
    is one `edge_spmm` over all K parts. Returns the N x (K*bw) node whose
    column block k is community k's embedding.

    `x_star` is the list of column blocks from `build_input_features`.
    """
    k_meta = cfg.n_metacommunities
    support = partition.support
    if cfg.layer_kind == "gcn":
        ew, self_w, operator = partition.gcn_normalization()
    elif len(x_star) != 1:
        raise ModelError("the GIN bank takes its input as one dense block")

    h = None
    for li in range(cfg.bank_layers):
        name = f"bank.{li}"
        if cfg.layer_kind == "gcn":
            if li == 0:
                # the first transform shares its (wide) input across
                # communities, so it runs as one fused product
                m = dm.column_blocks_to_rows(
                    _blocks_matmul(x_star, store[f"{name}.W"]) + store[f"{name}.b"], k_meta)
            else:
                m = dm.matmul(h, store[f"{name}.W"], store[f"{name}.b"])
            h = dm.edge_spmm(support, ew, m, diag=self_w, operator=operator)
        else:
            # the first layer aggregates the shared input once per part
            h = _gin_layer(x_star[0] if li == 0 else h, support, partition.weights,
                           store, name)
        if li < cfg.bank_layers - 1:
            h = _relu_dropout(h, cfg, step, seed, ("bank", li + 1))
    return dm.row_blocks_to_columns(h, k_meta)


# ---------------------------------------------------------------------------
# module 3: representation composer


def compose_representations(h: Node, prep: PreparedGraph,
                            store: ParameterStore, cfg: ModelConfig, seed: int,
                            step: Optional[int] = None) -> Node:
    """Fuse the K community embeddings (the column blocks of `h`) into one
    representation.

    The gnn composer aggregates them over the full (normalized or binary,
    matching the layer kind) graph; the dense variant is a per-node map
    that never touches the adjacency.
    """
    adj = prep.graph.adjacency
    for li in range(cfg.composer_layers):
        name = f"comp.{li}"
        if cfg.composer_kind == "dense":
            h = _linear(h, store, name)
        elif cfg.layer_kind == "gcn":
            h = dm.sparse_dense_matmul(prep.a_norm, _linear(h, store, name))
        else:
            h = _gin_layer(h, adj, dm.constant(np.ones((adj.nnz, 1))), store, name)
        if li < cfg.composer_layers - 1:
            h = _relu_dropout(h, cfg, step, seed, ("comp", li + 1))
    return h


def graph_pool(h_v: Node, graph_ids: np.ndarray, n_graphs: int) -> Node:
    """Sum node rows within each graph."""
    if h_v.value.shape[0] == 0:
        raise ModelError("cannot pool an empty graph")
    return dm.scatter_add_rows(h_v, graph_ids, n_graphs)


# ---------------------------------------------------------------------------
# pipeline


def bank_inputs(prep: PreparedGraph, store: ParameterStore, cfg: ModelConfig,
                uniforms: np.ndarray, seed: int, step: Optional[int] = None):
    """What the community-GNN bank reads for one affiliation sample: z
    encoded from `uniforms`, gamma, the edge partition and the bank input
    x*, computed on `store` as given (a detached store records no tape).
    Returns (z, gamma, partition, x_star)."""
    z = encode_communities(prep, store, cfg, uniforms, seed, step).z
    gamma = gamma_node(store)
    partition = partition_edges(prep.graph.adjacency, z, gamma, cfg, seed)
    return z, gamma, partition, build_input_features(prep, z, cfg, seed)


def forward_logits(prep: PreparedGraph, z: Node, partition: EdgePartition,
                   store: ParameterStore, cfg: ModelConfig, seed: int,
                   step: Optional[int] = None, x_star: Optional[list] = None) -> Node:
    if x_star is None:
        x_star = build_input_features(prep, z, cfg, seed)
    h = community_gnn_forward(x_star, partition, store, cfg, seed, step)
    h_v = compose_representations(h, prep, store, cfg, seed, step)
    if prep.task == "node":
        return h_v
    pooled = graph_pool(h_v, prep.graph_ids, prep.n_graphs)
    return dm.matmul(pooled, store["out.W"], store["out.b"])


# A batch of at least this many nodes runs its Monte Carlo samples on a
# thread pool, a smaller one runs them in turn. The large sparse and BLAS
# products release the interpreter lock; the many small ops of a small
# batch mostly hand it back and forth. Threaded over serial time of four
# samples, cora-shaped configuration, 2 cores: 1.41 at 300 nodes, 1.06 at
# 600, 0.91 at 1000, 0.73 at 1500 and 0.68 at 2708.
PARALLEL_MIN_NODES = 1000


def sample_workers(s: int, n_nodes: int) -> int:
    """Threads that run `s` posterior samples of an `n_nodes` batch: one
    below PARALLEL_MIN_NODES, else one per sample up to the usable CPUs."""
    if n_nodes < PARALLEL_MIN_NODES:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(s, cpus)


def posterior_predictive(prep: PreparedGraph, store: ParameterStore, cfg: ModelConfig,
                         s: int, seed: int, *, partition_seed: int,
                         uniforms_list=None) -> np.ndarray:
    """Monte Carlo average of the predicted class distributions.

    Draws `s` affiliation samples from the (sample-independent) posterior,
    runs the generative pipeline for each, and averages the probability
    outputs (not the logits). Runs forward-only on the detached parameters,
    so no tape is recorded and no dropout is drawn. Every run path passes
    the run's seed as both `seed` and `partition_seed`.

    The encoder pass, gamma and the uniforms are computed once, here; the
    samples then run on `sample_workers` threads, and their probabilities
    are summed in sample order, so the result does not depend on the
    thread count. A sample shares only read-only state with the others:
    the posterior, the detached store and the lazy caches of the
    `SparseMatrix` supports, which two racing threads fill with equal
    values. Its `EdgePartition` (with the `_gcn` cache) and generators are
    its own, and no module-level state is written.
    """
    if s < 1:
        raise ModelError("need at least one posterior sample")
    store = store.detached()
    if uniforms_list is None:
        uniforms_list = [encoder_uniforms(prep.n_nodes, cfg.total_communities, seed,
                                          "predict", i) for i in range(s)]
    post = encode_communities(prep, store, cfg, uniforms_list[0], seed)
    gamma = gamma_node(store)

    def sample_probabilities(i: int) -> np.ndarray:
        z = post.z if i == 0 else weibull_rsample(post.weibull_shape,
                                                  post.weibull_scale, uniforms_list[i])
        part = partition_edges(prep.graph.adjacency, z, gamma, cfg, partition_seed)
        logits = forward_logits(prep, z, part, store, cfg, seed)
        return dm.row_softmax_with_temperature(logits, 1.0).value

    workers = sample_workers(s, prep.n_nodes)
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        acc = None
        for p in (map if pool is None else pool.map)(sample_probabilities, range(s)):
            acc = p if acc is None else acc + p
    return acc / s


# ---------------------------------------------------------------------------
# exports


def mu_statistic(z: np.ndarray, gamma: np.ndarray, k: int) -> np.ndarray:
    """Total interaction each node engages per metacommunity:
    mu[u, k] = sum_v (block-k rate between u and v)."""
    z = np.asarray(z, dtype=np.float64)
    blocks = block_structure(z.shape[1], k)
    return (z * gamma * z.sum(axis=0)) @ blocks


def node_ordering(mu: np.ndarray) -> np.ndarray:
    """Bucket nodes by argmax metacommunity; buckets sorted by size
    descending, nodes within a bucket by descending mu."""
    assign = np.argmax(mu, axis=1)
    sizes = np.bincount(assign, minlength=mu.shape[1])
    bucket_order = np.argsort(-sizes, kind="stable")
    order = []
    for b in bucket_order:
        members = np.flatnonzero(assign == b)
        order.extend(members[np.argsort(-mu[members, b], kind="stable")])
    return np.asarray(order, dtype=np.int64)


def export_partition(out_dir: str, partition: EdgePartition, mu: np.ndarray):
    """part_k.csv files (one undirected edge per row) plus the node order."""
    os.makedirs(out_dir, exist_ok=True)
    layout = partition.support.pair_layout()
    w = partition.weights.value[layout.upper]
    for k in range(partition.k):
        with open(os.path.join(out_dir, f"part_{k}.csv"), "w", encoding="utf-8") as fh:
            for i, j, v in zip(layout.iu, layout.ju, w[:, k]):
                fh.write(f"{i},{j},{float(v)!r}\n")
    assign = np.argmax(mu, axis=1)
    with open(os.path.join(out_dir, "node_order.csv"), "w", encoding="utf-8") as fh:
        for u in node_ordering(mu):
            fh.write(f"{u},{assign[u]},{float(mu[u, assign[u]])!r}\n")


def export_embeddings(out_dir: str, h_list: list[np.ndarray], z: np.ndarray):
    os.makedirs(out_dir, exist_ok=True)
    for k, h in enumerate(h_list):
        np.savetxt(os.path.join(out_dir, f"embedding_{k}.csv"), h, delimiter=",")
    np.savetxt(os.path.join(out_dir, "affiliations.csv"), z, delimiter=",")

