import sys
import threading
import time

import numpy as np
import pytest

import vepm.model as model_mod
from conftest import masked_node_graph, planted_graph, synthetic_collection
from reference import dropout_mask
from vepm import diffmath as dm
from vepm.distributions import block_structure, weibull_rsample
from vepm.graphs import Graph, batch_graphs
from vepm.diffmath import ParameterStore
from vepm.model import (
    EdgePartition,
    ModelConfig,
    ModelError,
    build_input_features,
    community_gnn_forward,
    compose_representations,
    encode_communities,
    encoder_uniforms,
    forward_logits,
    gamma_node,
    graph_pool,
    init_params,
    mu_statistic,
    node_ordering,
    partition_edges,
    posterior_predictive,
    prepare_graph_batch,
    prepare_node_graph,
)
from vepm.rng import substream
from vepm.sparse import SparseMatrix, adjacency_from_edges
from vepm.verify import edge_weight_entropies


def small_setup(seed=0, **cfg_kw):
    graph = masked_node_graph(seed=seed, n=40)
    defaults = dict(n_metacommunities=4, communities_per_block=1, hidden_dim=16,
                    dropout=0.0)
    defaults.update(cfg_kw)
    cfg = ModelConfig(**defaults)
    prep = prepare_node_graph(graph)
    store = init_params(cfg, graph.n_features, graph.n_classes(), seed, "node")
    return graph, cfg, prep, store


def reference_support(kind):
    """A support with isolated nodes 4 and 6, or a 40-node masked graph's."""
    if kind == "isolated_node":
        return adjacency_from_edges(7, np.array([[0, 1], [1, 2], [2, 5], [0, 5],
                                                 [3, 5], [1, 3]]))
    return masked_node_graph(seed=1, n=40).adjacency


def values_and_grads(store, build, mix):
    """The output values of `build()` (a node or a tuple of nodes) and the
    gradients of every parameter for the loss sum(output * mix)."""
    outs = build()
    outs, mix = (outs, mix) if isinstance(outs, tuple) else ((outs,), [mix])
    loss = dm.reduce_sum(dm.elementwise_mul(outs[0], mix[0]))
    for out, m in zip(outs[1:], mix[1:]):
        loss = loss + dm.reduce_sum(dm.elementwise_mul(out, m))
    store.zero_grad()
    dm.backward(loss)
    return [o.value for o in outs] + [store.grad(n).copy() for n in store.names()]


def assert_close_relative(got, ref, rel=1e-12):
    for a, b in zip(got, ref, strict=True):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= rel * max(1.0, np.abs(b).max())


def predict_probabilities(prep, store, cfg, uniforms, seed):
    """Single-sample class probabilities (forward-only, no dropout)."""
    store = store.detached()
    post = encode_communities(prep, store, cfg, uniforms, seed)
    part = partition_edges(prep.graph.adjacency, post.z, gamma_node(store), cfg, seed)
    logits = forward_logits(prep, post.z, part, store, cfg, seed)
    return dm.row_softmax_with_temperature(logits, 1.0).value


class TestModelConfig:
    def test_bank_width_is_hidden_over_k_rounded_up(self):
        assert ModelConfig(hidden_dim=64, n_metacommunities=4).bank_width == 16
        assert ModelConfig(hidden_dim=65, n_metacommunities=4).bank_width == 17

    def test_total_communities(self):
        cfg = ModelConfig(n_metacommunities=3, communities_per_block=5)
        assert cfg.total_communities == 15

    def test_validation(self):
        with pytest.raises(ModelError):
            ModelConfig(tau=0.0)
        with pytest.raises(ModelError):
            ModelConfig(layer_kind="attention")
        with pytest.raises(ModelError):
            ModelConfig(hidden_dim=0)

    def test_refuses_a_dropout_that_keeps_no_unit(self):
        # the keep threshold round(rate * 2^16) reaches 2^16 at 1 - 2^-17
        assert ModelConfig(dropout=np.nextafter(1 - 2**-17, 0)).dropout < 1
        for rate in (1 - 2**-17, 1.0, -0.5):
            with pytest.raises(ModelError, match="dropout"):
                ModelConfig(dropout=rate)


class TestEncoder:
    def test_zero_weights_give_softplus_zero(self):
        graph, cfg, prep, store = small_setup()
        for name in store.names("phi"):
            store.set_value(name, np.zeros_like(store[name].value))
        u = encoder_uniforms(40, cfg.total_communities, 0, "t")
        post = encode_communities(prep, store, cfg, u, 0)
        np.testing.assert_allclose(post.weibull_shape.value, np.log(2.0), atol=1e-12)
        np.testing.assert_allclose(post.weibull_scale.value, np.log(2.0), atol=1e-12)

    def test_isomorphic_nodes_identical_posteriors(self):
        # path 1-0-2 with identical features: nodes 1 and 2 are isomorphic
        adj = adjacency_from_edges(3, np.array([[0, 1], [0, 2]]))
        graph = Graph(adjacency=adj, features=np.ones((3, 2)),
                      labels=np.array([0, 1, 1]))
        cfg = ModelConfig(n_metacommunities=2, communities_per_block=1,
                          hidden_dim=8, dropout=0.0)
        prep = prepare_node_graph(graph)
        store = init_params(cfg, 2, 2, 3, "node")
        u = encoder_uniforms(3, 2, 1, "iso")
        post = encode_communities(prep, store, cfg, u, 0)
        np.testing.assert_allclose(post.weibull_shape.value[1],
                                   post.weibull_shape.value[2], atol=1e-12)
        np.testing.assert_allclose(post.weibull_scale.value[1],
                                   post.weibull_scale.value[2], atol=1e-12)

    def test_fixed_seed_reproducible_sample(self):
        graph, cfg, prep, store = small_setup()
        u = encoder_uniforms(40, cfg.total_communities, 7, "rep")
        z1 = encode_communities(prep, store, cfg, u, 0).z.value
        z2 = encode_communities(prep, store, cfg, u, 0).z.value
        assert np.array_equal(z1, z2)


class TestPartitioner:
    def test_single_part_equals_adjacency(self):
        graph, cfg, prep, store = small_setup(n_metacommunities=1)
        u = encoder_uniforms(40, cfg.total_communities, 0, "t")
        post = encode_communities(prep, store, cfg, u, 0)
        part = partition_edges(graph.adjacency, post.z, gamma_node(store), cfg, 0)
        np.testing.assert_allclose(part.weights.value,
                                   graph.adjacency.vals[:, None], atol=1e-12)

    def test_block_rates_softmax_example(self):
        # rates (1, 2) at unit temperature split an edge 0.26894 / 0.73106
        adj = adjacency_from_edges(2, np.array([[0, 1]]))
        cfg = ModelConfig(n_metacommunities=2, communities_per_block=1, tau=1.0)
        z = dm.constant(np.array([[1.0, 1.0], [1.0, 2.0]]))
        gamma = dm.constant(np.ones(2))
        part = partition_edges(adj, z, gamma, cfg, 0)
        np.testing.assert_allclose(part.weights.value,
                                   [[0.26894142, 0.73105858]] * 2, atol=1e-8)

    def test_equal_rates_give_uniform_weights(self):
        adj = adjacency_from_edges(2, np.array([[0, 1]]))
        for tau in (0.1, 1.0, 100.0):
            cfg = ModelConfig(n_metacommunities=4, communities_per_block=1, tau=tau)
            z = dm.constant(np.ones((2, 4)))
            part = partition_edges(adj, z, dm.constant(np.ones(4)), cfg, 0)
            np.testing.assert_allclose(part.weights.value, 0.25, atol=1e-12)

    @pytest.mark.parametrize("mode", ["learned", "even", "random"])
    def test_sum_invariant_all_modes(self, mode):
        graph, cfg, prep, store = small_setup(partition_mode=mode)
        u = encoder_uniforms(40, cfg.total_communities, 0, "t")
        post = encode_communities(prep, store, cfg, u, 0)
        part = partition_edges(graph.adjacency, post.z, gamma_node(store), cfg, seed=5)
        deviation = np.abs(part.weights.value.sum(axis=1) - part.support.vals).max()
        assert deviation < 1e-9

    def test_random_mode_frozen_and_symmetric(self):
        graph, cfg, prep, store = small_setup(partition_mode="random")
        part1 = partition_edges(graph.adjacency, None, None, cfg, seed=5)
        part2 = partition_edges(graph.adjacency, None, None, cfg, seed=5)
        assert np.array_equal(part1.weights.value, part2.weights.value)
        # mirrored entries carry the same weights
        w = part1.weights.value
        support = part1.support
        key = {(r, c): w[e] for e, (r, c) in enumerate(zip(support.rows, support.cols))}
        for (r, c), v in key.items():
            np.testing.assert_array_equal(v, key[(c, r)])
        assert not np.array_equal(
            w, partition_edges(graph.adjacency, None, None, cfg, seed=6).weights.value)

    @pytest.mark.parametrize("graph_kind", ["isolated_node", "batched_union"])
    def test_random_weights_match_the_pair_key_reference(self, graph_kind):
        """The random partition read through `pair_layout` equals the
        earlier standalone pair search (pair key, `np.unique`,
        `searchsorted`) bit for bit."""
        if graph_kind == "isolated_node":
            adj = adjacency_from_edges(7, np.array([[0, 1], [1, 2], [2, 5], [0, 5],
                                                    [3, 5], [1, 3]]))  # 4 and 6 isolated
        else:
            adj = batch_graphs(synthetic_collection(n_graphs=5, seed=4),
                               np.array([4, 0, 2]))[0].adjacency
        cfg = ModelConfig(n_metacommunities=3, communities_per_block=1, tau=0.7,
                          partition_mode="random")
        n, rows, cols = adj.n_rows, adj.rows, adj.cols
        pair_key = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        uniq = np.unique(pair_key)
        raw = substream(5, "random-partition").uniform(0.0, 100.0, (uniq.size, 3))
        ref = dm.row_softmax_with_temperature(dm.constant(raw), 0.7).value
        got = partition_edges(adj, None, None, cfg, seed=5).weights.value
        np.testing.assert_array_equal(got, ref[np.searchsorted(uniq, pair_key)])

    def test_learned_weights_are_the_softmax_of_block_rates_bit_for_bit(self):
        graph, cfg, prep, store = small_setup(communities_per_block=3, tau=0.6)
        u = encoder_uniforms(40, cfg.total_communities, 0, "t")
        z = encode_communities(prep, store, cfg, u, 0).z
        gamma = gamma_node(store)
        part = partition_edges(graph.adjacency, z, gamma, cfg, 0)
        rows, cols = graph.adjacency.rows, graph.adjacency.cols
        prod = np.take(z.value * gamma.value, rows, axis=0) * np.take(z.value, cols, axis=0)
        rates = prod @ block_structure(cfg.total_communities, cfg.n_metacommunities)
        ref = dm.row_softmax_with_temperature(dm.constant(rates), cfg.tau).value
        np.testing.assert_array_equal(part.weights.value, ref)

    def test_both_directions_of_an_edge_get_bit_identical_weights(self):
        graph, cfg, prep, store = small_setup(communities_per_block=3, tau=0.6)
        rng = substream(2, "directions")
        z = dm.constant(rng.uniform(0.2, 1.5, (40, cfg.total_communities)))
        gamma = dm.constant(rng.uniform(0.3, 1.2, cfg.total_communities))
        part = partition_edges(graph.adjacency, z, gamma, cfg, 0)
        w = part.weights.value
        support = part.support
        entry = {(r, c): e for e, (r, c) in enumerate(zip(support.rows, support.cols))}
        mirror = np.array([entry[(c, r)] for r, c in zip(support.rows, support.cols)])
        assert np.array_equal(w, w[mirror])

    @pytest.mark.parametrize("per_block", [1, 3])
    @pytest.mark.parametrize("graph_kind", ["isolated_node", "masked"])
    def test_learned_op_matches_the_generic_op_chain(self, graph_kind, per_block):
        """The one-op learned partition against the chain of generic ops it
        replaced (two gathers, a product, a block-sum matmul, a softmax):
        values and the gradients of z and gamma agree to 1e-12 relative."""
        adj = reference_support(graph_kind)
        cfg = ModelConfig(n_metacommunities=2, communities_per_block=per_block, tau=0.7)
        rng = substream(per_block, "partition-reference")
        store = ParameterStore()
        store.add("z", rng.uniform(0.2, 1.5, (adj.n_rows, cfg.total_communities)), "phi")
        store.add("gamma", rng.uniform(0.3, 1.2, cfg.total_communities), "shared")
        mix = dm.constant(rng.standard_normal((adj.nnz, 2)))

        def chain(adjacency, z, gamma, cfg_):
            prod = dm.elementwise_mul(dm.gather_rows(dm.elementwise_mul(z, gamma), adjacency.rows),
                                      dm.gather_rows(z, adjacency.cols))
            blocks = block_structure(cfg_.total_communities, cfg_.n_metacommunities)
            return dm.row_softmax_with_temperature(dm.matmul(prod, dm.constant(blocks)),
                                                   cfg_.tau)

        got = values_and_grads(
            store, lambda: partition_edges(adj, store["z"], store["gamma"], cfg, 0).weights, mix)
        ref = values_and_grads(store, lambda: chain(adj, store["z"], store["gamma"], cfg), mix)
        assert_close_relative(got, ref)

    @pytest.mark.parametrize("graph_kind", ["isolated_node", "masked"])
    def test_gcn_normalization_matches_the_generic_op_chain(self, graph_kind):
        """The fused per-part GCN normalization against the chain it
        replaced (a scatter, powers, two gathers, products), for weights
        that differ between the two directions of an edge."""
        adj = reference_support(graph_kind)
        rng = substream(3, "normalization-reference")
        store = ParameterStore()
        store.add("w", rng.uniform(0.1, 2.0, (adj.nnz, 3)), "phi")
        mix = [dm.constant(rng.standard_normal((adj.nnz, 3))),
               dm.constant(rng.standard_normal((adj.n_rows, 3)))]

        def chain(weights, support):
            deg = dm.scatter_add_rows(weights, support.rows, support.n_rows) + dm.constant(1.0)
            dinv_sqrt = dm.power(deg, -0.5)
            ew = dm.elementwise_mul(
                weights, dm.elementwise_mul(dm.gather_rows(dinv_sqrt, support.rows),
                                            dm.gather_rows(dinv_sqrt, support.cols)))
            return ew, dm.power(deg, -1.0)

        got = values_and_grads(store, lambda: EdgePartition(
            support=adj, weights=store["w"]).gcn_normalization()[:2], mix)
        ref = values_and_grads(store, lambda: chain(store["w"], adj), mix)
        assert_close_relative(got, ref)

    def test_entropy_monotone_in_tau(self):
        ents = edge_weight_entropies((0.1, 1.0, 10.0, 100.0, 1000.0), seed=0)
        assert np.all(np.diff(ents) >= -1e-12)

    def test_one_hot_limit_as_tau_vanishes(self):
        adj = adjacency_from_edges(2, np.array([[0, 1]]))
        cfg = ModelConfig(n_metacommunities=2, communities_per_block=1, tau=1e-3)
        z = dm.constant(np.array([[1.0, 1.0], [1.0, 2.0]]))
        part = partition_edges(adj, z, dm.constant(np.ones(2)), cfg, 0)
        assert part.weights.value.max() > 0.999

    def test_to_sparse_matrices_share_support(self):
        graph, cfg, prep, store = small_setup()
        u = encoder_uniforms(40, cfg.total_communities, 0, "t")
        post = encode_communities(prep, store, cfg, u, 0)
        part = partition_edges(graph.adjacency, post.z, gamma_node(store), cfg, 0)
        w = part.weights.value
        mats = [SparseMatrix(40, 40, part.support.rows, part.support.cols, w[:, j])
                for j in range(part.k)]
        assert len(mats) == 4
        total = sum(m.to_dense() for m in mats)
        np.testing.assert_allclose(total, graph.adjacency.to_dense(), atol=1e-9)

    def test_gcn_normalization_memoized_for_any_weights(self):
        """Each partition normalizes its weights and builds their K-part
        operator once, differentiable weights or not; the operator is the
        one `edge_spmm` would build from the normalized values."""
        graph, cfg, prep, store = small_setup()
        u = encoder_uniforms(40, cfg.total_communities, 0, "t")
        z = encode_communities(prep, store, cfg, u, 0).z
        learned = partition_edges(graph.adjacency, z, gamma_node(store), cfg, 0)
        frozen = partition_edges(graph.adjacency, dm.constant(z.value),
                                 dm.constant(gamma_node(store).value), cfg, 0)
        assert learned.weights.requires_grad and not frozen.weights.requires_grad
        for part in (learned, frozen):
            assert part.gcn_normalization() is part.gcn_normalization()
        (ew_l, self_l, op_l), (ew_f, self_f, op_f) = (
            learned.gcn_normalization(), frozen.gcn_normalization())
        assert ew_l.requires_grad and self_l.requires_grad
        for a, b in ((ew_l, ew_f), (self_l, self_f)):
            np.testing.assert_array_equal(a.value, b.value)
        built = graph.adjacency.block_csr_with_diagonal(ew_l.value, self_l.value.T,
                                                        shared=False)
        for op in (op_l, op_f):
            assert (op != built).nnz == 0


class TestBankAndComposer:
    def test_identical_parts_and_params_give_identical_embeddings(self):
        graph, cfg, prep, store = small_setup(n_metacommunities=2, hidden_dim=8,
                                              input_mode="features_only")
        # community 1 gets community 0's blocks of the stacked parameters
        bw = cfg.bank_width
        w0, b0 = store["bank.0.W"].value, store["bank.0.b"].value
        w0[:, bw:] = w0[:, :bw]
        b0[bw:] = b0[:bw]
        w1, b1 = store["bank.1.W"].value, store["bank.1.b"].value
        w1[bw:] = w1[:bw]
        b1[1] = b1[0]
        e = graph.adjacency.nnz
        part = partition_edges(graph.adjacency, None, None,
                               ModelConfig(n_metacommunities=2,
                                           communities_per_block=1,
                                           partition_mode="even"), 0)
        x_star = [dm.constant(graph.features.to_dense())]
        h = np.hsplit(community_gnn_forward(x_star, part, store, cfg, 0).value, 2)
        np.testing.assert_allclose(h[0], h[1], atol=1e-12)

    def test_zero_weight_part_reduces_to_per_node_transform(self):
        graph, cfg, prep, store = small_setup(n_metacommunities=1, hidden_dim=4,
                                              bank_layers=1,
                                              input_mode="features_only")
        e = graph.adjacency.nnz
        from vepm.model import EdgePartition

        part = EdgePartition(support=graph.adjacency,
                             weights=dm.constant(np.zeros((e, 1))))
        h = community_gnn_forward([dm.constant(graph.features.to_dense())], part, store, cfg, 0)
        expected = graph.features.to_dense() @ store["bank.0.W"].value + store["bank.0.b"].value
        np.testing.assert_allclose(h.value, expected, atol=1e-12)

    def test_sparse_feature_blocks_match_dense_input(self):
        graph, cfg, prep, store = small_setup()
        u = encoder_uniforms(40, cfg.total_communities, 0, "t")
        z = dm.constant(encode_communities(prep, store, cfg, u, 0).z.value)
        part = partition_edges(graph.adjacency, z, gamma_node(store), cfg, 0)
        blocks = build_input_features(prep, z, cfg, 0)
        assert isinstance(blocks[0], SparseMatrix)
        dense = dm.concat_columns([dm.constant(graph.features.to_dense()), z])
        k = cfg.n_metacommunities
        for a, b in zip(np.hsplit(community_gnn_forward(blocks, part, store, cfg, 0).value, k),
                        np.hsplit(community_gnn_forward([dense], part, store, cfg, 0).value, k)):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_dense_composer_ignores_adjacency(self):
        graph, cfg, prep, store = small_setup(composer_kind="dense")
        u = encoder_uniforms(40, cfg.total_communities, 0, "t")
        post = encode_communities(prep, store, cfg, u, 0)
        z_const = dm.constant(post.z.value)
        part = partition_edges(graph.adjacency, z_const, dm.constant(
            gamma_node(store).value), cfg, 0)
        logits1 = forward_logits(prep, z_const, part, store, cfg, 0).value

        # rewire the composer's graph: shuffle edges, keep the partition
        rng = substream(3, "shuffle")
        e2 = rng.integers(0, 40, (graph.n_edges, 2))
        g2 = Graph(adjacency=adjacency_from_edges(40, e2), features=graph.features,
                   labels=graph.labels, train_mask=graph.train_mask,
                   val_mask=graph.val_mask, test_mask=graph.test_mask)
        prep2 = prepare_node_graph(g2)
        logits2 = forward_logits(prep2, z_const, part, store, cfg, 0).value
        np.testing.assert_allclose(logits1, logits2, atol=1e-12)

    def test_single_community_identity_composer_is_degree_smoothing(self):
        graph, cfg, prep, store = small_setup(n_metacommunities=1, hidden_dim=4,
                                              bank_layers=1, composer_layers=1)
        u = encoder_uniforms(40, cfg.total_communities, 0, "t")
        post = encode_communities(prep, store, cfg, u, 0)
        z_const = dm.constant(post.z.value)
        part = partition_edges(graph.adjacency, z_const,
                               dm.constant(gamma_node(store).value), cfg, 0)
        x_star = build_input_features(prep, z_const, cfg, 0)
        h1 = community_gnn_forward(x_star, part, store, cfg, 0)
        store.set_value("comp.0.W", np.eye(4, graph.n_classes()))
        store.set_value("comp.0.b", np.zeros(graph.n_classes()))
        out = compose_representations(h1, prep, store, cfg, 0).value
        expected = prep.a_norm.matmul_dense(h1.value @ np.eye(4, graph.n_classes()))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_node_logits_width_is_class_count(self):
        graph, cfg, prep, store = small_setup()
        u = encoder_uniforms(40, cfg.total_communities, 0, "t")
        post = encode_communities(prep, store, cfg, u, 0)
        part = partition_edges(graph.adjacency, post.z, gamma_node(store), cfg, 0)
        logits = forward_logits(prep, post.z, part, store, cfg, 0)
        assert logits.value.shape == (40, graph.n_classes())


def per_community_bank(x, part, store, cfg, seed, step):
    """The bank as K separate chains, one per community, built from the
    one-part primitives over slices of the stacked parameters: the
    reference for the stacked bank. Returns the K outputs."""
    k_meta, bw = cfg.n_metacommunities, cfg.bank_width
    support = part.support

    def block(name, k):
        """Community k's block of a stacked parameter."""
        p = store[name]
        if p.value.ndim == 1:  # eps (K,) or the GCN's first bias (K*bw,)
            width = p.value.shape[0] // k_meta
            row = dm.slice_columns(dm.reshape(p, (1, p.value.shape[0])),
                                   k * width, (k + 1) * width)
            return dm.reshape(row, (1,)) if width == 1 else row
        if name == "bank.0.W" and cfg.layer_kind == "gcn":
            return dm.slice_columns(p, k * bw, (k + 1) * bw)
        rows = p.value.shape[0] // k_meta
        return dm.slice_rows(p, k * rows, (k + 1) * rows)

    def dropout(h, k, li):
        """Community k's rows of layer li's dropout mask, which is drawn for
        all K communities at once."""
        rows = h.value.shape[0]
        mask = dropout_mask(substream(seed, "dropout", "bank", li, step),
                            (k_meta * rows, h.value.shape[1]), cfg.dropout)
        return dm.elementwise_mul(h, dm.constant(mask[k * rows:(k + 1) * rows]))

    if cfg.layer_kind == "gcn":
        ew, self_w, _operator = part.gcn_normalization()
    outs = []
    for k in range(k_meta):
        h = x
        for li in range(cfg.bank_layers):
            name = f"bank.{li}"
            if step is not None and li > 0:
                h = dropout(h, k, li)
            if cfg.layer_kind == "gcn":
                m = dm.matmul(h, block(f"{name}.W", k), block(f"{name}.b", k))
                h = dm.edge_spmm(support, dm.slice_columns(ew, k, k + 1),
                                 m, dm.slice_columns(self_w, k, k + 1))
            else:
                w_k = dm.slice_columns(part.weights, k, k + 1)
                agg = dm.edge_spmm(support, w_k, h,
                                   dm.constant(np.ones(1)) + block(f"{name}.eps", k))
                m = dm.relu(dm.matmul(agg, block(f"{name}.W1", k), block(f"{name}.b1", k)))
                h = dm.matmul(m, block(f"{name}.W2", k), block(f"{name}.b2", k))
            if li < cfg.bank_layers - 1:
                h = dm.relu(h)
        outs.append(h)
    return outs


class TestStackedBank:
    """The stacked bank against the K-chain reference, in values and in
    the gradients of a random mix of its output."""

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("layer_kind", ["gcn", "gin"])
    def test_matches_per_community_chains(self, layer_kind, training):
        graph, cfg, prep, store = small_setup(layer_kind=layer_kind, dropout=0.4,
                                              bank_layers=3)
        k_meta, n = cfg.n_metacommunities, graph.n_nodes
        u = encoder_uniforms(n, cfg.total_communities, 0, "ref")
        z = encode_communities(prep, store, cfg, u, 0).z
        part = partition_edges(graph.adjacency, z, gamma_node(store), cfg, 0)
        x = dm.concat_columns([dm.constant(graph.features.to_dense()), z])
        mix = substream(4, "ref-mix").standard_normal((n, k_meta * cfg.bank_width))
        names = [name for name in store.names() if name.startswith("bank.")]

        def loss_and_grads(outputs):
            loss = dm.reduce_sum(dm.elementwise_mul(outputs, dm.constant(mix)))
            store.zero_grad()
            dm.backward(loss)
            return outputs.value, {name: store.grad(name).copy()
                                   for name in names + ["gamma_raw", "enc.0.W"]}

        step = 3 if training else None
        got, got_grads = loss_and_grads(community_gnn_forward([x], part, store, cfg, 9, step))
        ref, ref_grads = loss_and_grads(dm.concat_columns(
            per_community_bank(x, part, store, cfg, 9, step)))
        assert np.abs(got - ref).max() <= 1e-12
        for name, g in ref_grads.items():
            assert np.abs(got_grads[name] - g).max() <= 1e-12 * max(1.0, np.abs(g).max()), name
        if training:
            eval_out = community_gnn_forward([x], part, store, cfg, 9).value
            assert np.abs(eval_out - got).max() > 1e-3


class TestDropoutDraws:
    @pytest.mark.parametrize("layer_kind", ["gcn", "gin"])
    def test_one_generator_per_layer_boundary_and_none_forward_only(
            self, layer_kind, monkeypatch):
        graph, cfg, prep, store = small_setup(layer_kind=layer_kind, dropout=0.5,
                                              encoder_layers=3, bank_layers=3,
                                              composer_layers=2)
        paths = []

        def recording(seed, *path):
            paths.append(path)
            return substream(seed, *path)

        monkeypatch.setattr(model_mod, "substream", recording)
        posterior_predictive(prep, store, cfg, 2, 0, partition_seed=0)
        assert paths and not [p for p in paths if p[0] == "dropout"]

        u = encoder_uniforms(40, cfg.total_communities, 0, "t")
        z = encode_communities(prep, store, cfg, u, 0, step=5).z
        part = partition_edges(graph.adjacency, z, gamma_node(store), cfg, 0)
        forward_logits(prep, z, part, store, cfg, 0, step=5)
        assert [p for p in paths if p[0] == "dropout"] == [
            ("dropout", "enc", 1, 5), ("dropout", "enc", 2, 5),
            ("dropout", "bank", 1, 5), ("dropout", "bank", 2, 5),
            ("dropout", "comp", 1, 5)]


class TestPooling:
    def test_single_node_graph_pool_is_identity(self):
        h = dm.constant(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(graph_pool(h, np.array([0]), 1).value,
                                      [[1.0, 2.0, 3.0]])

    def test_disjoint_self_union_doubles(self):
        rng = substream(0, "pool")
        h = rng.random((6, 3))
        single = graph_pool(dm.constant(h), np.zeros(6, np.int64), 1).value
        doubled = graph_pool(dm.constant(np.vstack([h, h])),
                             np.zeros(12, np.int64), 1).value
        np.testing.assert_allclose(doubled, 2 * single, atol=1e-12)

    def test_permutation_invariance(self):
        rng = substream(1, "pool2")
        h = rng.random((8, 3))
        gids = np.array([0, 0, 1, 1, 0, 1, 0, 1])
        base = graph_pool(dm.constant(h), gids, 2).value
        perm = rng.permutation(8)
        again = graph_pool(dm.constant(h[perm]), gids[perm], 2).value
        np.testing.assert_allclose(base, again, atol=1e-12)


class TestPosteriorPredictive:
    def test_identical_uniforms_collapse_to_single_sample(self):
        graph, cfg, prep, store = small_setup()
        u = encoder_uniforms(40, cfg.total_communities, 3, "pp")
        single = predict_probabilities(prep, store, cfg, u, 0)
        avg = posterior_predictive(prep, store, cfg, 3, 0, partition_seed=0,
                                   uniforms_list=[u, u, u])
        np.testing.assert_allclose(avg, single, atol=1e-12)

    def test_rows_sum_to_one(self):
        graph, cfg, prep, store = small_setup()
        probs = posterior_predictive(prep, store, cfg, 4, seed=5, partition_seed=5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("layer_kind", ["gcn", "gin"])
    def test_matches_a_reference_over_the_live_store_bit_for_bit(self, layer_kind,
                                                                 monkeypatch):
        import vepm.model as model_mod

        graph, cfg, prep, store = small_setup(layer_kind=layer_kind)
        us = [encoder_uniforms(40, cfg.total_communities, 3, "live", i) for i in range(3)]
        post = encode_communities(prep, store, cfg, us[0], 0)
        assert post.z.requires_grad
        shape_k = dm.constant(post.weibull_shape.value)
        scale = dm.constant(post.weibull_scale.value)
        acc = None
        for i, u in enumerate(us):
            z = post.z if i == 0 else weibull_rsample(shape_k, scale, u)
            part = partition_edges(graph.adjacency, z, gamma_node(store), cfg, seed=2)
            logits = forward_logits(prep, z, part, store, cfg, 0)
            p = dm.row_softmax_with_temperature(logits, 1.0).value
            acc = p if acc is None else acc + p
        # the predictive pass itself records no tape
        taped, original = [], model_mod.forward_logits

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            taped.append(out.requires_grad)
            return out

        monkeypatch.setattr(model_mod, "forward_logits", spy)
        got = posterior_predictive(prep, store, cfg, 3, 0, partition_seed=2,
                                   uniforms_list=us)
        assert taped == [False] * 3
        np.testing.assert_array_equal(got, acc / 3)

    def test_sample_order_does_not_matter(self):
        graph, cfg, prep, store = small_setup()
        u1 = encoder_uniforms(40, cfg.total_communities, 3, "a")
        u2 = encoder_uniforms(40, cfg.total_communities, 3, "b")
        p12 = posterior_predictive(prep, store, cfg, 2, 0, partition_seed=0,
                                   uniforms_list=[u1, u2])
        p21 = posterior_predictive(prep, store, cfg, 2, 0, partition_seed=0,
                                   uniforms_list=[u2, u1])
        np.testing.assert_allclose(p12, p21, atol=1e-12)


def predict_on(monkeypatch, workers, prep, store, cfg, s, gate=0, **kwargs):
    """posterior_predictive on a host with `workers` usable CPUs, its
    samples threaded from `gate` nodes on, and the ids of the threads
    that ran them."""
    monkeypatch.setattr(model_mod, "PARALLEL_MIN_NODES", gate)
    monkeypatch.setattr(model_mod.os, "sched_getaffinity",
                        lambda pid: set(range(workers)), raising=False)
    threads = []

    def spy(*args, **kw):
        threads.append(threading.get_ident())
        return forward_logits(*args, **kw)

    monkeypatch.setattr(model_mod, "forward_logits", spy)
    kwargs.setdefault("partition_seed", 3)
    probs = posterior_predictive(prep, store, cfg, s, 5, **kwargs)
    return probs, threads


class TestConcurrentPredictive:
    @pytest.mark.parametrize("layer_kind", ["gcn", "gin"])
    @pytest.mark.parametrize("partition_mode", ["learned", "even", "random"])
    def test_two_threads_match_one_bit_for_bit(self, layer_kind, partition_mode,
                                               monkeypatch):
        graph, cfg, prep, store = small_setup(layer_kind=layer_kind,
                                              partition_mode=partition_mode)
        serial, ran_serial = predict_on(monkeypatch, 1, prep, store, cfg, 4)
        threaded, ran_threaded = predict_on(monkeypatch, 2, prep, store, cfg, 4)
        np.testing.assert_array_equal(threaded, serial)
        main = threading.get_ident()
        assert ran_serial == [main] * 4
        assert len(ran_threaded) == 4 and main not in ran_threaded

    def test_given_uniforms_match_bit_for_bit(self, monkeypatch):
        graph, cfg, prep, store = small_setup()
        us = [encoder_uniforms(40, cfg.total_communities, 3, "given", i) for i in range(3)]
        serial, _ = predict_on(monkeypatch, 1, prep, store, cfg, 3, uniforms_list=us)
        threaded, _ = predict_on(monkeypatch, 2, prep, store, cfg, 3, uniforms_list=us)
        np.testing.assert_array_equal(threaded, serial)

    @pytest.mark.parametrize("layer_kind", ["gcn", "gin"])
    def test_a_graph_above_the_gate_runs_threaded(self, layer_kind, monkeypatch):
        n = model_mod.PARALLEL_MIN_NODES
        graph = masked_node_graph(seed=0, n=n, gamma=2e-5)
        cfg = ModelConfig(n_metacommunities=2, communities_per_block=2, hidden_dim=8,
                          layer_kind=layer_kind)
        store = init_params(cfg, graph.n_features, graph.n_classes(), 0, "node")
        serial, _ = predict_on(monkeypatch, 2, prepare_node_graph(graph), store, cfg,
                               4, gate=n + 1)
        threaded, ran = predict_on(monkeypatch, 2, prepare_node_graph(graph), store,
                                   cfg, 4, gate=n)
        np.testing.assert_array_equal(threaded, serial)
        assert threading.get_ident() not in ran

    def test_more_threads_than_cores_on_fresh_caches(self, monkeypatch):
        """Eight threads fill one support's lazy layouts at once, with the
        interpreter switching threads as often as it can."""
        graph, cfg, prep, store = small_setup(communities_per_block=2)
        serial, _ = predict_on(monkeypatch, 1, prepare_node_graph(graph), store, cfg, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                threaded, ran = predict_on(monkeypatch, 8, prepare_node_graph(graph),
                                           store, cfg, 8)
                np.testing.assert_array_equal(threaded, serial)
        finally:
            sys.setswitchinterval(interval)
        assert len(ran) == 8

    def test_the_lowest_failing_sample_raises(self, monkeypatch):
        graph, cfg, prep, store = small_setup()
        us = [encoder_uniforms(40, cfg.total_communities, 3, "fail", i) for i in range(4)]
        original = model_mod.weibull_rsample

        def failing(shape_k, scale, u):
            k = next(i for i, ui in enumerate(us) if ui is u)
            if k == 1:
                time.sleep(0.05)  # sample 3 fails first in time
            if k in (1, 3):
                raise dm.NonFiniteError(f"sample {k}")
            return original(shape_k, scale, u)

        monkeypatch.setattr(model_mod, "weibull_rsample", failing)
        for workers in (1, 2):
            with pytest.raises(dm.NonFiniteError, match=r"^sample 1$"):
                predict_on(monkeypatch, workers, prep, store, cfg, 4, uniforms_list=us)

    def test_a_non_finite_sample_raises_the_serial_error(self, monkeypatch):
        graph, cfg, prep, store = small_setup()
        us = [encoder_uniforms(40, cfg.total_communities, 3, "nan", i) for i in range(4)]
        us[2] = us[2].copy()
        us[2][7, 1] = np.nan
        errors = []
        for workers in (1, 2):
            with pytest.raises(dm.NonFiniteError) as info:
                predict_on(monkeypatch, workers, prep, store, cfg, 4, uniforms_list=us)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert "weibull_rsample" in errors[0][1]

    def test_workers_are_capped_by_the_cpus_and_the_gate(self, monkeypatch):
        gate = model_mod.PARALLEL_MIN_NODES
        monkeypatch.setattr(model_mod.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert model_mod.sample_workers(10**6, gate) == 2
        assert model_mod.sample_workers(10**6, gate - 1) == 1
        assert model_mod.sample_workers(1, gate) == 1


class TestEquivariance:
    def test_full_pipeline_permutation_equivariance(self):
        feats = substream(5, "feat").standard_normal((40, 6))
        graph, _ = planted_graph(5, n=40, boost=10.0, gamma=2e-3)
        graph = Graph(adjacency=graph.adjacency, features=feats,
                      labels=graph.labels)
        cfg = ModelConfig(n_metacommunities=4, communities_per_block=1,
                          hidden_dim=16, dropout=0.0)
        prep = prepare_node_graph(graph)
        store = init_params(cfg, 6, graph.n_classes(), 2, "node")
        u = encoder_uniforms(40, 4, 11, "pp")
        base = predict_probabilities(prep, store, cfg, u, 0)

        perm = substream(8, "perm").permutation(40)
        inv = np.argsort(perm)
        adj = graph.adjacency
        padj = SparseMatrix(40, 40, inv[adj.rows], inv[adj.cols], adj.vals.copy())
        pgraph = Graph(adjacency=padj, features=graph.features.to_dense()[perm],
                       labels=graph.labels[perm])
        pprep = prepare_node_graph(pgraph)
        permuted = predict_probabilities(pprep, store, cfg, u[perm], 0)
        assert np.abs(permuted - base[perm]).max() < 1e-9

    def test_gin_bank_permutes_rows(self):
        coll = synthetic_collection(n_graphs=2, seed=3)
        union, gids, labels = batch_graphs(coll, np.array([0, 1]))
        cfg = ModelConfig(layer_kind="gin", n_metacommunities=2,
                          communities_per_block=1, hidden_dim=8, dropout=0.0,
                          input_mode="features_only")
        prep = prepare_graph_batch(union, gids, labels, 2)
        store = init_params(cfg, 2, 2, 4, "graph")
        part = partition_edges(union.adjacency, None, None,
                               ModelConfig(layer_kind="gin", n_metacommunities=2,
                                           communities_per_block=1,
                                           partition_mode="even"), 0)
        x_star = [dm.constant(union.features.to_dense())]
        h = np.hsplit(community_gnn_forward(x_star, part, store, cfg, 0).value, 2)
        n = union.n_nodes
        perm = substream(2, "gperm").permutation(n)
        inv = np.argsort(perm)
        padj = SparseMatrix(n, n, inv[union.adjacency.rows],
                            inv[union.adjacency.cols], union.adjacency.vals.copy())
        part_p = partition_edges(padj, None, None,
                                 ModelConfig(layer_kind="gin", n_metacommunities=2,
                                             communities_per_block=1,
                                             partition_mode="even"), 0)
        h_p = np.hsplit(community_gnn_forward([dm.constant(union.features.to_dense()[perm])],
                                              part_p, store, cfg, 0).value, 2)
        for a, b in zip(h, h_p):
            assert np.abs(b - a[perm]).max() < 1e-9


class TestExports:
    def test_mu_statistic_and_ordering(self):
        z = np.array([[5.0, 0.1], [4.0, 0.2], [0.1, 3.0], [0.3, 0.2]])
        gamma = np.ones(2)
        mu = mu_statistic(z, gamma, 2)
        s = z.sum(axis=0)
        np.testing.assert_allclose(mu, z * s, atol=1e-12)
        order = node_ordering(mu)
        # bucket 0 holds nodes {0, 1, 3} (largest first), bucket 1 holds {2}
        assert list(order) == [0, 1, 3, 2]

    def test_mass_in_block_two_assigned_two(self):
        z = np.zeros((1, 6))
        z[0, 4] = 3.0  # third block of width 2
        mu = mu_statistic(z, np.ones(6), 3)
        assert np.argmax(mu[0]) == 2
