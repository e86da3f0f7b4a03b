import numpy as np
import pytest

from reference import undirected_pairs
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
