"""Sparse matrices for graph adjacency and its normalized variants.

Entries are kept in canonical row-major COO order with a CSR row pointer;
heavy products delegate to scipy.sparse internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp


class SparseError(ValueError):
    pass


def stored_mask(values: np.ndarray) -> np.ndarray:
    """Which values a `SparseMatrix` built from them stores: those that are
    nonzero or -0.0; an explicit +0.0 is not stored. A stored -0.0 keeps its sign
    through `to_dense`, and adds nothing to a product, whose sums start at
    +0.0."""
    return (values != 0) | np.signbit(values)


class PairLayout(NamedTuple):
    """The mirror structure of a symmetric support without diagonal
    entries, in its row-major entry order."""

    iu: np.ndarray          # each unordered pair (i, j) once, i < j,
    ju: np.ndarray          # in row-major order
    entry_pair: np.ndarray  # per stored entry, the position of its pair
    upper: np.ndarray       # per pair, the position of its entry (i, j)
    lower: np.ndarray       # per pair, the position of its mirror (j, i)
    mirror: np.ndarray      # per stored entry (i, j), the position of (j, i)


@dataclass
class SparseMatrix:
    """Immutable COO matrix with no duplicate entries, sorted row-major.

    The derived layouts (scipy CSR and its transpose, block layouts, pair
    layout, row incidence) are built on first use and kept. Each is a pure
    function of the entries, stored with one assignment, so threads that
    race to build one store equal values.
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    _indptr: np.ndarray = field(init=False, repr=False)
    _csr: object = field(default=None, init=False, repr=False)
    _csr_t: object = field(default=None, init=False, repr=False)
    _block_layouts: dict = field(default_factory=dict, init=False, repr=False)
    _pair_layout: object = field(default=None, init=False, repr=False)
    _incidence: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.rows = np.array(self.rows, dtype=np.int64)
        self.cols = np.array(self.cols, dtype=np.int64)
        self.vals = np.array(self.vals, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise SparseError("rows, cols, vals must have identical length")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.n_rows:
                raise SparseError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.n_cols:
                raise SparseError("column index out of range")
        key = self.rows * self.n_cols + self.cols
        if np.any(key[1:] <= key[:-1]):
            order = np.lexsort((self.cols, self.rows))
            self.rows = self.rows[order]
            self.cols = self.cols[order]
            self.vals = self.vals[order]
            if np.any(np.diff(key[order]) == 0):
                raise SparseError("duplicate (row, col) entry")
        # sorted row-major: row i starts where the first row id >= i would go
        self._indptr = np.searchsorted(self.rows, np.arange(self.n_rows + 1))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseMatrix":
        """The `stored_mask` entries of a dense matrix."""
        dense = np.asarray(dense, dtype=np.float64)
        # numpy scans a boolean mask about twice as fast as a float array
        rows, cols = np.nonzero(stored_mask(dense))
        return cls._trusted(dense.shape[0], dense.shape[1], rows, cols,
                            dense[rows, cols])

    @classmethod
    def _trusted(cls, n_rows: int, n_cols: int, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray, indptr=None) -> "SparseMatrix":
        """A matrix of int64 `rows`, `cols` and float64 `vals` that are in
        range, free of duplicates and in row-major order, as a valid
        matrix's slices or a row-major scan are, stored as given: none of
        the checks and copies of the constructor."""
        m = cls.__new__(cls)
        m.n_rows, m.n_cols, m.rows, m.cols, m.vals = n_rows, n_cols, rows, cols, vals
        m._indptr = (np.searchsorted(rows, np.arange(n_rows + 1)) if indptr is None
                     else indptr)
        m._csr = m._csr_t = m._pair_layout = m._incidence = None
        m._block_layouts = {}
        return m

    def row_block(self, lo: int, hi: int) -> "SparseMatrix":
        """Rows lo..hi-1 as a (hi - lo) x n_cols matrix, cut from this
        one's arrays without re-validating them."""
        a, b = self._indptr[lo], self._indptr[hi]
        return SparseMatrix._trusted(hi - lo, self.n_cols, self.rows[a:b] - lo,
                                     self.cols[a:b], self.vals[a:b],
                                     self._indptr[lo:hi + 1] - a)

    def diagonal_block(self, lo: int, hi: int) -> "SparseMatrix":
        """Rows and columns lo..hi-1 as a square matrix, cut without
        re-validation, for a block-diagonal matrix: every stored entry of
        rows lo..hi-1 must lie in columns lo..hi-1, which is not checked."""
        block = self.row_block(lo, hi)
        block.n_cols, block.cols = hi - lo, block.cols - lo
        return block

    def take_rows(self, order: np.ndarray) -> "SparseMatrix":
        """The matrix whose row i is row order[i] of this one; `order` is a
        permutation of the rows."""
        counts = np.diff(self._indptr)[order]
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # entry e of new row i is entry e - indptr[i] + old_indptr[order[i]]
        source = np.arange(self.nnz) + np.repeat(self._indptr[:-1][order] - indptr[:-1],
                                                  counts)
        return SparseMatrix._trusted(self.n_rows, self.n_cols,
                                     np.repeat(np.arange(self.n_rows), counts),
                                     self.cols[source], self.vals[source], indptr)

    @classmethod
    def vstack(cls, blocks: list) -> "SparseMatrix":
        """The matrices of `blocks`, which share their column count, stacked
        as row blocks, without re-validation."""
        n_cols = blocks[0].n_cols
        if any(b.n_cols != n_cols for b in blocks):
            raise SparseError("stacked blocks must have the same column count")
        offsets = np.cumsum([0] + [b.n_rows for b in blocks])
        starts = np.cumsum([0] + [b.nnz for b in blocks])
        return cls._trusted(
            int(offsets[-1]), n_cols,
            np.concatenate([b.rows + o for b, o in zip(blocks, offsets)]),
            np.concatenate([b.cols for b in blocks]),
            np.concatenate([b.vals for b in blocks]),
            np.concatenate([[0]] + [b._indptr[1:] + s for b, s in zip(blocks, starts)]))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def block_csr_with_diagonal(self, vals: np.ndarray, diag: np.ndarray,
                                shared: bool) -> sp.csr_matrix:
        """K copies of this support with the diagonal merged in, stacked as
        row blocks of one scipy CSR matrix.

        Block k carries `vals[:, k]` (vals is nnz x K) on the stored entries
        and row k of `diag` on the diagonal: `diag` is K x N, or K x 1 for
        one value per block. The blocks sit on the block diagonal of a
        (K*N) x (K*N) matrix, or, when `shared`, all over the same N
        columns, so one product with an N x d operand gives every block.

        The layout is built on first use per (K, shared, diag width) and
        reused, so a call only fills the data array: one gather from vals
        and diag through a cached source index. The support must be square
        and store no diagonal entry.
        """
        k, n, dw = vals.shape[1], self.n_rows, diag.shape[1]
        shape = (k * n, n if shared else k * n)
        layout = self._block_layouts.get((k, shared, dw))
        if layout is None:
            if self.n_rows != self.n_cols or not self.has_zero_diagonal():
                raise SparseError("the diagonal merges only into a square support "
                                  "without diagonal entries")
            # one block: row i moves right by i slots; entries right of the
            # diagonal by one more
            entry_slots = np.arange(self.nnz) + self.rows + (self.cols > self.rows)
            left = np.bincount(self.rows[self.cols < self.rows], minlength=n)
            diag_slots = self._indptr[:-1] + np.arange(n) + left
            width = self.nnz + n
            indices = np.empty(width, dtype=np.int64)
            indices[entry_slots] = self.cols
            indices[diag_slots] = np.arange(n)
            indptr = self._indptr[:-1] + np.arange(n)
            blocks = [indices if shared else indices + b * n for b in range(k)]
            ptrs = [indptr + b * width for b in range(k)] + [[k * width]]
            # scipy picks the index dtype once here, not on every call
            template = sp.csr_matrix((np.zeros(k * width), np.concatenate(blocks),
                                      np.concatenate(ptrs)), shape=shape)
            # slot (b, s) of the data reads vals.flat[e*K + b] for entry e,
            # or diag.flat[b*dw + i] for node i, both offset as in
            # concatenate((vals, diag), axis=None)
            block = np.arange(k)[:, None]
            source = np.empty((k, width), dtype=np.int64)
            source[:, entry_slots] = np.arange(self.nnz) * k + block
            source[:, diag_slots] = self.nnz * k + block * dw + np.arange(n) % dw
            layout = (template.indices, template.indptr, source.reshape(-1))
            self._block_layouts[(k, shared, dw)] = layout
        indices, indptr, source = layout
        data = np.take(np.concatenate((vals, diag), axis=None), source)
        return sp.csr_matrix((data, indices, indptr), shape=shape)

    def pair_layout(self) -> PairLayout:
        """The mirror structure of a symmetric support, built in one pass on
        first use and reused. A support that is not symmetric, or stores a
        diagonal entry, raises SparseError.
        """
        if self._pair_layout is None:
            # in row-major order the entries with i < j come in pair order
            upper = np.flatnonzero(self.rows < self.cols)
            below = np.flatnonzero(self.rows > self.cols)
            iu, ju = self.rows[upper], self.cols[upper]
            n = self.n_rows
            pair_keys = iu * n + ju
            key = self.cols[below] * n + self.rows[below]
            index = np.searchsorted(pair_keys, key)
            # without duplicates, each pair has both directions exactly when
            # there is no diagonal entry, the entries below the diagonal are
            # as many as those above, and each of them finds its pair
            if (upper.size + below.size != self.nnz or below.size != upper.size
                    or np.any(index >= upper.size) or np.any(pair_keys[index] != key)):
                raise SparseError("adjacency must be symmetric")
            lower = np.empty_like(upper)
            lower[index] = below
            entry_pair = np.empty(self.nnz, dtype=np.int64)
            entry_pair[upper] = np.arange(upper.size)
            entry_pair[below] = index
            mirror = np.empty(self.nnz, dtype=np.int64)
            mirror[upper] = lower
            mirror[lower] = upper
            self._pair_layout = PairLayout(iu, ju, entry_pair, upper, lower, mirror)
        return self._pair_layout

    def entry_row_sums(self, x: np.ndarray) -> np.ndarray:
        """out[i] = the sum of x[e] over the stored entries e of row i,
        added in entry order; x has one row per stored entry.

        One product with the (n_rows x nnz) row incidence, which is built
        once from the row pointer.
        """
        if self._incidence is None:
            self._incidence = sp.csr_matrix(
                (np.ones(self.nnz), np.arange(self.nnz), self._indptr),
                shape=(self.n_rows, self.nnz))
        return np.asarray(self._incidence @ x)

    def to_scipy(self) -> sp.csr_matrix:
        if self._csr is None:
            # built from the row pointer, without sorting
            self._csr = sp.csr_matrix((self.vals, self.cols, self._indptr),
                                      shape=self.shape)
        return self._csr

    def transpose_scipy(self) -> sp.csr_matrix:
        """The transpose as CSR, built once: `to_scipy().T` builds a new
        scipy object on every call, which dominates a small product."""
        if self._csr_t is None:
            self._csr_t = self.to_scipy().T.tocsr()
        return self._csr_t

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        out = self.to_scipy() @ dense
        return np.asarray(out)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.rows, self.cols] = self.vals
        return out

    def has_zero_diagonal(self) -> bool:
        return not np.any(self.rows == self.cols)

    def is_binary(self) -> bool:
        return bool(np.all(self.vals == 1.0))

    def check_adjacency(self):
        """Validate the invariants required of a raw adjacency matrix."""
        if self.n_rows != self.n_cols:
            raise SparseError("adjacency must be square")
        if not self.has_zero_diagonal():
            raise SparseError("adjacency must have a zero diagonal")
        self.pair_layout()
        if not self.is_binary():
            raise SparseError("adjacency values must all be 1")


def adjacency_from_edges(n: int, edges: np.ndarray) -> SparseMatrix:
    """Binary symmetric adjacency from an undirected edge list.

    Directed duplicates and self-loops are dropped; each surviving edge is
    stored in both directions. The entries are placed in row-major order
    directly: row r holds its edges (j, r) with j < r, which are the
    deduplicated pairs in the order of their larger end, then its edges
    (r, j) with j > r, which are the pairs in their own sorted order.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise SparseError("row index out of range")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    # each pair once as the key lo * n + hi; every array is dropped once
    # used, as at Pubmed scale and beyond this call bounds a synthetic
    # draw's memory
    lo *= n
    lo += hi
    del hi
    key = np.unique(lo[keep])
    del lo, keep
    lo, hi = np.divmod(key, n)
    del key
    m = lo.size
    below = np.bincount(hi, minlength=n)  # per row, its entries left of the diagonal
    above = np.bincount(lo, minlength=n)  # and right of it
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(below + above, out=indptr[1:])
    rows = np.repeat(np.arange(n), np.diff(indptr))
    cols = np.empty(2 * m, dtype=np.int64)
    # pair e, e-th in sorted order, sits right of the diagonal in row lo[e]
    # after the entries left of the diagonal in rows <= lo[e]
    np.cumsum(below, out=below)
    cols[np.arange(m) + below[lo]] = hi
    # and left of it in row hi[e], in the order of the larger end
    order = np.argsort(hi, kind="stable")
    hi, lo = hi[order], lo[order]
    del order
    np.cumsum(above, out=above)
    cols[np.arange(m) + above[hi - 1]] = lo
    return SparseMatrix._trusted(n, n, rows, cols, np.ones(2 * m), indptr)


def degree_vector(adjacency: SparseMatrix) -> np.ndarray:
    """Per-node edge counts of a binary symmetric adjacency."""
    adjacency.check_adjacency()
    return np.diff(adjacency._indptr).astype(np.int64)


def normalize_adjacency(adjacency: SparseMatrix) -> SparseMatrix:
    """Symmetric degree normalization of the self-loop-augmented adjacency.

    Returns D^{-1/2} (A + I) D^{-1/2} with D the degree matrix of A + I.
    Isolated nodes end up with degree 1 and a unit diagonal entry.
    """
    adjacency.check_adjacency()
    n = adjacency.n_rows
    deg = np.diff(adjacency._indptr).astype(np.float64) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    edge_vals = adjacency.vals * inv_sqrt[adjacency.rows] * inv_sqrt[adjacency.cols]
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([adjacency.rows, diag])
    cols = np.concatenate([adjacency.cols, diag])
    vals = np.concatenate([edge_vals, 1.0 / deg])
    return SparseMatrix(n, n, rows, cols, vals)


def induced_adjacency(adjacency: SparseMatrix, nodes: np.ndarray) -> SparseMatrix:
    """Subgraph adjacency over `nodes` (sorted unique ids), reindexed densely."""
    nodes = np.asarray(nodes, dtype=np.int64)
    lookup = -np.ones(adjacency.n_rows, dtype=np.int64)
    lookup[nodes] = np.arange(nodes.size)
    keep = (lookup[adjacency.rows] >= 0) & (lookup[adjacency.cols] >= 0)
    return SparseMatrix(
        nodes.size,
        nodes.size,
        lookup[adjacency.rows[keep]],
        lookup[adjacency.cols[keep]],
        adjacency.vals[keep],
    )
