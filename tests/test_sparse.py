import tracemalloc

import numpy as np
import pytest

from reference import adjacency_from_edges_mirrored, undirected_pairs
from vepm.sparse import (
    SparseError,
    SparseMatrix,
    adjacency_from_edges,
    degree_vector,
    induced_adjacency,
    normalize_adjacency,
)
from vepm.rng import substream


def test_normalize_two_node_single_edge():
    adj = adjacency_from_edges(2, np.array([[0, 1]]))
    out = normalize_adjacency(adj).to_dense()
    np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]])


def test_normalize_edgeless_is_identity():
    for n in (1, 3, 7):
        adj = adjacency_from_edges(n, np.zeros((0, 2), np.int64))
        np.testing.assert_array_equal(normalize_adjacency(adj).to_dense(), np.eye(n))


def test_normalize_triangle_all_one_third():
    adj = adjacency_from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))
    np.testing.assert_allclose(normalize_adjacency(adj).to_dense(), np.full((3, 3), 1 / 3))


def test_normalize_rejects_asymmetric():
    bad = SparseMatrix(2, 2, np.array([0]), np.array([1]), np.array([1.0]))
    with pytest.raises(SparseError):
        normalize_adjacency(bad)


def test_normalize_values_in_unit_interval_and_symmetric():
    rng = substream(3, "rand-adj")
    edges = rng.integers(0, 30, (60, 2))
    adj = adjacency_from_edges(30, edges)
    out = normalize_adjacency(adj)
    dense = out.to_dense()
    assert np.all(dense >= 0) and np.all(dense <= 1)
    assert np.abs(dense - dense.T).max() < 1e-12
    # the spectral radius is at most 1; per-row sums can exceed 1 on
    # irregular graphs (a star's hub row sums to ~sqrt(d/2)), so the
    # eigenvalue bound is the right global statement
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.max() <= 1 + 1e-12


def test_normalize_regular_neighborhood_rows_sum_to_one():
    # every node of a cycle has a degree-regular neighborhood
    cycle = adjacency_from_edges(5, np.array([[i, (i + 1) % 5] for i in range(5)]))
    dense = normalize_adjacency(cycle).to_dense()
    np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-12)


def test_degree_examples():
    path = adjacency_from_edges(3, np.array([[0, 1], [1, 2]]))
    np.testing.assert_array_equal(degree_vector(path), [1, 2, 1])
    empty = adjacency_from_edges(4, np.zeros((0, 2), np.int64))
    np.testing.assert_array_equal(degree_vector(empty), [0, 0, 0, 0])
    k4 = adjacency_from_edges(4, np.array([[i, j] for i in range(4) for j in range(i + 1, 4)]))
    np.testing.assert_array_equal(degree_vector(k4), [3, 3, 3, 3])


def test_duplicate_entries_rejected():
    with pytest.raises(SparseError):
        SparseMatrix(3, 3, np.array([0, 0]), np.array([1, 1]), np.array([1.0, 1.0]))


def test_edge_list_dedup_and_self_loop_drop():
    adj = adjacency_from_edges(3, np.array([[0, 1], [1, 0], [0, 1], [2, 2]]))
    assert adj.nnz == 2
    assert adj.has_zero_diagonal()


def _assert_same_matrix(a, b):
    assert (a.n_rows, a.n_cols) == (b.n_rows, b.n_cols)
    for name in ("rows", "cols", "vals", "_indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
        np.testing.assert_array_equal(np.signbit(x), np.signbit(y), err_msg=name)


def test_edge_list_is_placed_in_row_major_order_directly():
    rng = substream(5, "edge-lists")
    for trial in range(200):
        n = int(rng.integers(1, 40))
        edges = rng.integers(0, n, (int(rng.integers(0, 120)), 2))
        # repeated pairs in both directions, and self-loops
        edges = np.concatenate([edges, edges[: trial % 7, ::-1], edges[: trial % 3],
                                np.repeat(np.arange(min(n, trial % 4))[:, None], 2, 1)])
        _assert_same_matrix(adjacency_from_edges(n, edges),
                            adjacency_from_edges_mirrored(n, edges))


def test_edge_list_out_of_range_rejected():
    for edges in ([[0, 3]], [[-1, 1]]):
        with pytest.raises(SparseError, match="out of range"):
            adjacency_from_edges(3, np.array(edges))


def test_edge_list_memory_is_a_few_arrays_per_edge():
    # 100k nodes and about 256k edges, as a Pubmed-sized planted draw. The
    # result holds 48 bytes per edge (rows, cols, vals, both directions);
    # 81 bytes per edge measured at peak, where stacking the mirrored
    # halves and sorting them took 201 (2-core x86-64, numpy 2.4).
    n = 100_000
    edges = substream(6, "edge-memory").integers(0, n, (256_000, 2))
    tracemalloc.start()
    try:
        adj = adjacency_from_edges(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_edge = peak / (adj.nnz // 2)
    assert per_edge < 110, per_edge


def _random_matrix(rng, n_rows, n_cols, density=0.3):
    dense = rng.standard_normal((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < density)
    dense[rng.random((n_rows, n_cols)) < 0.05] = -0.0
    return dense


def test_from_dense_stores_nonzero_and_negative_zero_entries():
    dense = np.array([[0.0, -0.0, 1.5], [0.0, 0.0, 0.0], [-2.0, 0.0, -0.0]])
    x = SparseMatrix.from_dense(dense)
    np.testing.assert_array_equal(x.rows, [0, 0, 2, 2])
    np.testing.assert_array_equal(x.cols, [1, 2, 0, 2])
    np.testing.assert_array_equal(np.signbit(x.to_dense()), np.signbit(dense))
    _assert_same_matrix(x, SparseMatrix(3, 3, x.rows, x.cols, x.vals))


def test_row_and_diagonal_blocks_equal_validated_matrices():
    rng = substream(7, "row-blocks")
    dense = _random_matrix(rng, 9, 4)
    x = SparseMatrix.from_dense(dense)
    for lo, hi in ((0, 9), (0, 0), (2, 5), (8, 9), (4, 4)):
        _assert_same_matrix(x.row_block(lo, hi), SparseMatrix.from_dense(dense[lo:hi]))
    # two diagonal blocks, nodes 0..2 and 3..6
    adj = adjacency_from_edges(7, np.array([[0, 1], [1, 2], [3, 6], [4, 5], [3, 4]]))
    for lo, hi in ((0, 3), (3, 7)):
        block = adj.diagonal_block(lo, hi)
        _assert_same_matrix(block, SparseMatrix.from_dense(adj.to_dense()[lo:hi, lo:hi]))
        block.check_adjacency()


def test_take_rows_and_vstack_equal_validated_matrices():
    rng = substream(8, "take-rows")
    dense = _random_matrix(rng, 12, 5)
    x = SparseMatrix.from_dense(dense)
    for order in (np.arange(12), rng.permutation(12), np.arange(12)[::-1]):
        _assert_same_matrix(x.take_rows(order), SparseMatrix.from_dense(dense[order]))
    parts = [dense[:4], dense[4:4], dense[4:11], dense[11:]]
    _assert_same_matrix(SparseMatrix.vstack([SparseMatrix.from_dense(p) for p in parts]), x)
    with pytest.raises(SparseError, match="column count"):
        SparseMatrix.vstack([x, SparseMatrix.from_dense(dense[:, :3])])


def test_undirected_pairs_each_edge_once():
    adj = adjacency_from_edges(4, np.array([[0, 1], [2, 3], [1, 2]]))
    iu, ju = undirected_pairs(adj)
    assert len(iu) == 3
    assert np.all(iu < ju)


def test_induced_adjacency():
    adj = adjacency_from_edges(5, np.array([[0, 1], [1, 2], [3, 4]]))
    sub = induced_adjacency(adj, np.array([0, 1, 2]))
    np.testing.assert_array_equal(sub.to_dense(),
                                  adj.to_dense()[:3, :3])


def test_pair_layout_shares_one_pair_per_edge():
    adj = adjacency_from_edges(5, np.array([[0, 3], [1, 2], [2, 4], [0, 1]]))
    layout = adj.pair_layout()
    ref_iu, ref_ju = undirected_pairs(adj)
    np.testing.assert_array_equal(layout.iu, ref_iu)
    np.testing.assert_array_equal(layout.ju, ref_ju)
    np.testing.assert_array_equal(layout.iu[layout.entry_pair], np.minimum(adj.rows, adj.cols))
    np.testing.assert_array_equal(layout.ju[layout.entry_pair], np.maximum(adj.rows, adj.cols))
    assert adj.pair_layout() is layout
    # one direction only, a missing mirror, a diagonal entry (with and
    # without a mirrored edge beside it)
    for rows, cols in (([0], [1]), ([1], [0]), ([0, 0, 1], [1, 2, 0]),
                       ([1], [1]), ([0, 1, 1], [1, 0, 1])):
        with pytest.raises(SparseError, match="symmetric"):
            SparseMatrix(3, 3, np.array(rows), np.array(cols), np.ones(len(rows))).pair_layout()


def test_pair_layout_locates_both_directions_of_each_pair():
    adj = adjacency_from_edges(6, np.array([[0, 3], [1, 2], [2, 4], [0, 1], [3, 4]]))
    layout = adj.pair_layout()
    np.testing.assert_array_equal(adj.rows[layout.upper], layout.iu)
    np.testing.assert_array_equal(adj.cols[layout.upper], layout.ju)
    np.testing.assert_array_equal(adj.rows[layout.lower], layout.ju)
    np.testing.assert_array_equal(adj.cols[layout.lower], layout.iu)
    np.testing.assert_array_equal(layout.entry_pair[layout.upper], np.arange(layout.iu.size))
    np.testing.assert_array_equal(layout.entry_pair[layout.lower], np.arange(layout.iu.size))
    rev = layout.mirror
    np.testing.assert_array_equal(adj.rows[rev], adj.cols)
    np.testing.assert_array_equal(adj.cols[rev], adj.rows)
    np.testing.assert_array_equal(rev[rev], np.arange(adj.nnz))
    empty = adjacency_from_edges(3, np.zeros((0, 2), np.int64)).pair_layout()
    assert all(field.size == 0 for field in empty)


@pytest.mark.parametrize("rows,cols,message", [
    ([0, 1, 2], [1, 2, 1], "adjacency must be symmetric"),
    ([0, 1, 1], [1, 0, 1], "adjacency must have a zero diagonal"),
    ([0, 1], [1, 1], "adjacency must have a zero diagonal"),
])
def test_check_adjacency_names_the_broken_invariant(rows, cols, message):
    adj = SparseMatrix(3, 3, np.array(rows), np.array(cols), np.ones(len(rows)))
    with pytest.raises(SparseError, match=message):
        adj.check_adjacency()


def test_entry_row_sums_add_each_row_in_entry_order():
    # node 5 is isolated, so its row sums to zero
    adj = adjacency_from_edges(6, np.array([[0, 3], [1, 2], [2, 4], [0, 1], [3, 4]]))
    x = substream(2, "row-sums").standard_normal((adj.nnz, 3))
    ref = np.zeros((6, 3))
    for e in range(adj.nnz):
        ref[adj.rows[e]] += x[e]
    np.testing.assert_array_equal(adj.entry_row_sums(x), ref)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("per_node", [False, True])
def test_block_csr_places_every_value(shared, per_node):
    rng = substream(12, "block-csr")
    # node 4 has no edges; rows 1 and 3 hold entries on both sides of the diagonal
    adj = SparseMatrix(5, 5, np.array([0, 1, 1, 2, 3, 3]), np.array([1, 0, 3, 3, 1, 2]),
                       np.ones(6))
    k = 3
    vals = rng.uniform(0.5, 2.0, (adj.nnz, k))
    diag = rng.uniform(0.5, 2.0, (k, 5 if per_node else 1))
    out = adj.block_csr_with_diagonal(vals, diag, shared).toarray()
    assert out.shape == (k * 5, 5 if shared else k * 5)
    for b in range(k):
        block = np.zeros((5, 5))
        block[adj.rows, adj.cols] = vals[:, b]
        block[np.arange(5), np.arange(5)] = diag[b]
        cols = slice(0, 5) if shared else slice(b * 5, (b + 1) * 5)
        np.testing.assert_array_equal(out[b * 5:(b + 1) * 5, cols], block)
        out[b * 5:(b + 1) * 5, cols] = 0.0
    assert not out.any()
