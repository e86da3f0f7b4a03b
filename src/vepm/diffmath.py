"""Reverse-mode differentiable computation over numpy arrays.

Rank <= 2 tensors only. Each primitive computes its forward value eagerly
and registers a reverse rule through `make_node`, which other modules use
for primitives of their own; `backward` walks the tape in deterministic
topological order. Values are 64-bit, and a non-finite value is rejected
at the node that produced it.

Gradients of constants are never materialized: an op whose inputs all have
requires_grad=False folds into a fresh constant, and a two-input reverse
rule skips the product for a constant side. `ParameterStore.detached(keep)`
turns every parameter outside `keep` into a constant over the same array.
A forward-only pass runs over `detached()`, with `keep` empty, so it records
no tape at all; a step that updates only some parameters runs over
`detached(keep=those names)`, so its reverse pass reaches no other one.

The dense per-node work of a graph layer takes few passes over its N x d
arrays: `matmul` carries an optional bias, `edge_spmm` a self-loop
diagonal, and the gradient of a broadcast scalar, row or column
operand is summed in one reduction.

K independent parts of one layer (the community GNNs) are one op each:
their activations are the row blocks of one (K*N, d) array, which
`edge_spmm` aggregates over K edge-weight columns and `matmul`
transforms with K stacked weights, K = 1 being the plain product.

A training pass records no ReLU of its own: `relu_dropout` is a layer
boundary's ReLU together with the dropout on the next layer's input, one
stored mask and one product in reverse, and `block_mlp` is a GIN layer's
two-layer transform, rectified in place. The plain `relu` serves
forward-only passes.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.special import digamma
from scipy.special import gammaln as _sp_gammaln

from .rng import substream
from .sparse import SparseError, SparseMatrix


class DiffMathError(ValueError):
    pass


class NonFiniteError(DiffMathError):
    pass


def precision() -> str:
    """The floating-point format of every tape value."""
    return "f64"


class Node:
    """One tape entry: cached output, parent references, reverse rule."""

    __slots__ = ("value", "grad", "parents", "op", "vjp", "requires_grad", "needs",
                 "__weakref__")

    def __init__(self, value, op="leaf", parents=(), vjp=None, requires_grad=False,
                 needs=()):
        value = np.asarray(value, dtype=np.float64)
        if value.ndim > 2:
            raise DiffMathError(f"rank {value.ndim} tensor in op {op!r}")
        if not np.isfinite(value).all():
            raise NonFiniteError(f"non-finite value produced by op {op!r}")
        self.value = value
        self.grad: Optional[np.ndarray] = None
        self.parents: tuple[Node, ...] = parents
        self.op = op
        self.vjp: Optional[Callable] = vjp
        self.requires_grad = requires_grad
        # which parents actually need a gradient; lets two-input reverse
        # rules skip the product for a constant side
        self.needs: tuple[bool, ...] = needs

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape})"

    # operator sugar; scalars fold into constants
    def __add__(self, other):
        return add(self, as_node(other))

    def __mul__(self, other):
        return elementwise_mul(self, as_node(other))


def constant(value) -> Node:
    return Node(value, op="const")


def parameter(value) -> Node:
    return Node(value, op="param", requires_grad=True)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def make_node(op, value, parents, vjp) -> Node:
    """The tape node of one primitive: `value` computed from `parents`, and
    `vjp(g, needs)` returning one gradient per parent (None where
    needs[i] is False). With no parent requiring a gradient the result is
    a constant, and the reverse rule is dropped."""
    needs = tuple(p.requires_grad for p in parents)
    if not any(needs):
        return Node(value, op=op)
    return Node(value, op=op, parents=tuple(parents), vjp=vjp,
                requires_grad=True, needs=needs)


def segment_sum(values: np.ndarray, indices: np.ndarray, n_rows: int) -> np.ndarray:
    """out[indices[e]] += values[e], accumulated in entry order."""
    # (E x n_rows) selector with a 1 at (e, indices[e]), built in O(E)
    e = indices.shape[0]
    select = sp.csr_matrix((np.ones(e), indices, np.arange(e + 1)), shape=(e, n_rows))
    return np.asarray(select.T @ values)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to the shape of an operand that was broadcast to it: a
    scalar, a row ((d,) or (1, d)) or a column ((n, 1))."""
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return np.asarray(g.sum()).reshape(shape)
    if g.ndim == 2 and shape == (g.shape[0], 1):
        return g.sum(axis=1, keepdims=True)
    if g.ndim == 2 and shape[-1] == g.shape[1]:
        return (np.ones(g.shape[0], dtype=g.dtype) @ g).reshape(shape)
    raise DiffMathError(f"cannot reduce a gradient of shape {g.shape} to {shape}")


# ---------------------------------------------------------------------------
# primitives


def add(a: Node, b: Node) -> Node:
    val = a.value + b.value

    def vjp(g, needs):
        return (_unbroadcast(g, a.value.shape) if needs[0] else None,
                _unbroadcast(g, b.value.shape) if needs[1] else None)

    return make_node("add", val, (a, b), vjp)


def negate(a: Node) -> Node:
    return make_node("negate", -a.value, (a,), lambda g, needs: (-g,))


def elementwise_mul(a: Node, b: Node) -> Node:
    val = a.value * b.value
    av, bv = a.value, b.value

    def vjp(g, needs):
        return (_unbroadcast(g * bv, av.shape) if needs[0] else None,
                _unbroadcast(g * av, bv.shape) if needs[1] else None)

    return make_node("mul", val, (a, b), vjp)


def _block_affine(hv: np.ndarray, wv: np.ndarray, bv: Optional[np.ndarray],
                  k: int) -> np.ndarray:
    """The K products h_k @ w_k + b_k over the row blocks of hv, one batched
    matmul over (K, N, d) views; bv is (K, dout), or None for no bias."""
    (rows, din), dout = hv.shape, wv.shape[1]
    out = np.matmul(hv.reshape(k, rows // k, din), wv.reshape(k, din, dout))
    if bv is not None:
        out += bv[:, None, :]
    return out.reshape(rows, dout)


def _block_affine_vjp(g: np.ndarray, hv: np.ndarray, wv: np.ndarray, k: int,
                      needs) -> tuple:
    """The gradients of `_block_affine` for h, w and its (K, dout) bias,
    each one batched matmul; None where needs[i] is False or absent."""
    (rows, din), dout = hv.shape, wv.shape[1]
    n = rows // k
    g3 = g.reshape(k, n, dout)
    gh = gw = gb = None
    if needs[0]:
        gh = np.matmul(g3, wv.reshape(k, din, dout).transpose(0, 2, 1)).reshape(hv.shape)
    if needs[1]:
        gw = np.matmul(hv.reshape(k, n, din).transpose(0, 2, 1), g3).reshape(wv.shape)
    if len(needs) > 2 and needs[2]:
        gb = np.matmul(np.ones(n), g3)
    return gh, gw, gb


def matmul(a: Node, w: Node, bias: Optional[Node] = None) -> Node:
    """The K products a_k @ w_k + bias_k over the row blocks of a, as one
    op: a is (K*N, din), w stacks the K weights as row blocks, (K*din,
    dout), and K is read from the shapes. `bias` is optional: one row per
    block, (K, dout), or for K = 1 also one (dout,) row. K = 1 is the
    plain a @ w + bias.

    The forward product and each product of the reverse rule are one
    batched matmul over (K, N, d) views, and the bias gradient is the
    column sum of each block of g, taken as one product.
    """
    av, wv = a.value, w.value
    if av.ndim != 2 or wv.ndim != 2:
        raise DiffMathError("matmul expects two matrices")
    din, dout = av.shape[1], wv.shape[1]
    k = wv.shape[0] // din if din else 1
    if k == 0 or wv.shape[0] != k * din or av.shape[0] % k:
        raise DiffMathError(f"matmul shape mismatch {av.shape} @ {wv.shape}")
    if bias is None:
        bv, parents = None, (a, w)
    else:
        if bias.value.shape != (k, dout) and not (k == 1 and bias.value.shape == (dout,)):
            raise DiffMathError(f"matmul bias of shape {bias.value.shape} for {k} "
                                f"blocks of {dout} columns")
        bv, parents = bias.value.reshape(k, dout), (a, w, bias)

    def vjp(g, needs):
        gh, gw, gb = _block_affine_vjp(g, av, wv, k, needs)
        if bias is None:
            return gh, gw
        return gh, gw, None if gb is None else gb.reshape(bias.value.shape)

    return make_node("matmul", _block_affine(av, wv, bv, k), parents, vjp)


def sparse_dense_matmul(s: SparseMatrix, b: Node) -> Node:
    """Product of a constant sparse matrix with a dense operand.

    The sparse values are constants here; gradients flow to the dense side
    only. Aggregation over differentiable edge weights goes through
    `edge_spmm` instead.
    """
    if b.value.ndim != 2 or s.n_cols != b.value.shape[0]:
        raise DiffMathError("sparse_dense_matmul shape mismatch")
    val = s.matmul_dense(b.value)

    def vjp(g, needs):
        return (np.asarray(s.transpose_scipy() @ g),)

    return make_node("spmm", val, (b,), vjp)


def edge_spmm(adj: SparseMatrix, w: Node, m: Node, diag: Node,
              operator: Optional[sp.csr_matrix] = None) -> Node:
    """K-part weighted aggregation over one support: block k of the result
    is (A_{w_k} + diag(d_k)) @ m_k, where A_{w_k} is `adj`'s support
    carrying column k of w (one weight per stored entry, in adj's
    row-major entry order) and d_k is part k's self-loop weight.

    w is (nnz, K). m is either the K parts stacked as row blocks,
    (K*N, d), or one (N, d) operand shared by every part. diag is (N, K),
    one self-loop weight per node and part, or (K,), one per part. The
    result is (K*N, d).

    The K parts and their self-loops form one CSR matrix a, so the
    product is one multiply; the support must store no diagonal entry.
    The reverse rule is a^T @ g for m (summed over the parts when m is
    shared), the sampled dense-dense product sum(g_k[rows] * m_k[cols], 1)
    per part for w, and the row dots sum(g_k * m_k, 1) for d, summed when
    d_k is a scalar; the w half is skipped when w is constant.

    `operator` is that CSR matrix as `adj.block_csr_with_diagonal` builds
    it from w and diag, for a caller that holds one built earlier from
    these same values; without it the matrix is built here.
    """
    wv, mv, dv = w.value, m.value, diag.value
    n = adj.n_rows
    if wv.ndim != 2 or wv.shape[0] != adj.nnz:
        raise DiffMathError(f"edge_spmm expects {adj.nnz} x K edge weights, got {wv.shape}")
    k = wv.shape[1]
    if mv.ndim != 2 or adj.n_cols != n or mv.shape[0] not in (n, k * n):
        raise DiffMathError("edge_spmm shape mismatch")
    # the diagonal as K rows: one value per node, or one per part
    if dv.shape == (n, k):
        d_rows = dv.T
    elif dv.shape == (k,):
        d_rows = dv.reshape(k, 1)
    else:
        raise DiffMathError(f"edge_spmm diag of shape {dv.shape} for {k} parts "
                            f"of {n} nodes")
    shared = mv.shape[0] != k * n
    if operator is None:
        try:
            a = adj.block_csr_with_diagonal(wv, d_rows, shared)
        except SparseError as err:
            raise DiffMathError(str(err)) from None
    elif operator.shape == (k * n, n if shared else k * n):
        a = operator
    else:
        raise DiffMathError(f"edge_spmm operator of shape {operator.shape} for {k} "
                            f"parts of {n} nodes")
    val = np.asarray(a @ mv)

    def part(x, b):
        """Part b's rows of a stacked array; a shared operand is every part's."""
        return x if x.shape[0] == n else x[b * n:(b + 1) * n]

    def vjp(g, needs):
        gw = gd = None
        if needs[0]:
            gw = np.empty((k, adj.nnz))
            for b in range(k):
                np.einsum("ij,ij->i", np.take(part(g, b), adj.rows, axis=0),
                          np.take(part(mv, b), adj.cols, axis=0), out=gw[b])
            gw = np.ascontiguousarray(gw.T)
        gm = np.asarray(a.T @ g) if needs[1] else None
        if needs[2]:
            gd = np.empty(d_rows.shape)
            for b in range(k):
                if d_rows.shape[1] == 1:
                    gd[b] = np.vdot(part(g, b), part(mv, b))
                else:
                    np.einsum("ij,ij->i", part(g, b), part(mv, b), out=gd[b])
            gd = gd.T.reshape(dv.shape)
        return gw, gm, gd

    return make_node("edge_spmm", val, (w, m, diag), vjp)


def relu(a: Node) -> Node:
    val = np.maximum(a.value, 0.0)
    return make_node("relu", val, (a,), lambda g, needs: (g * (val > 0),))


# Dropout keeps a unit iff its 16-bit lane of the generator's raw output
# is at least t = round(rate * DROPOUT_LANES), and scales it by
# DROPOUT_LANES / (DROPOUT_LANES - t), so the mask's mean is exactly one.
DROPOUT_LANES = 1 << 16


def dropout_threshold(rate: float) -> int:
    """The keep threshold t of a dropout rate; a rate whose t rounds to
    DROPOUT_LANES (rate >= 1 - 2^-17) would keep no unit and is refused."""
    t = round(rate * DROPOUT_LANES) if 0.0 <= rate < 1.0 else DROPOUT_LANES
    if t == DROPOUT_LANES:
        raise DiffMathError(f"dropout rate {rate!r} must be in [0, 1 - 2^-17)")
    return t


def dropout_lanes(rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` 16-bit lanes of rng's raw 64-bit draws, four per word, lowest
    bits first; read little-endian, so they do not depend on byte order."""
    words = rng.bit_generator.random_raw(-(-size // 4))
    return words.astype("<u8", copy=False).view("<u2")[:size]


def relu_dropout(a: Node, rate: float, rng: np.random.Generator) -> Node:
    """dropout(relu(a)) as one op, its keep bits drawn from `rng`: the
    lanes of `dropout_lanes` in a's row-major order.

    The one stored mask is DROPOUT_LANES / (DROPOUT_LANES - t) where a unit
    is positive and kept, 0 elsewhere; the reverse rule is g * mask. The
    value is relu(a) times that mask, so its zeros carry the signs of the
    two-op chain's.
    """
    t = dropout_threshold(rate)
    av = a.value
    keep = av > 0
    if t:
        keep &= dropout_lanes(rng, av.size).reshape(av.shape) >= t
    mask = np.multiply(keep, DROPOUT_LANES / (DROPOUT_LANES - t))
    val = np.maximum(av, 0.0)
    val *= mask
    return make_node("relu_dropout", val, (a,), lambda g, needs: (g * mask,))


def block_mlp(h: Node, w1: Node, b1: Node, w2: Node, b2: Node) -> Node:
    """K independent two-layer transforms relu(h_k @ W1_k + b1_k) @ W2_k + b2_k
    over the row blocks of a stacked operand, as one op: h is (K*N, din),
    W1 and W2 stack the K weights as row blocks, and b1, b2 hold one bias
    row per block, (K, d), or are one (d,) row for a single block.

    The hidden product is rectified in place and kept for the reverse
    rule, which masks the fresh g_k @ W2_k^T in place before the first
    product's rule. Each block's products are those of `matmul`, bit for
    bit.
    """
    hv, w1v, w2v = h.value, w1.value, w2.value
    b1v, b2v = b1.value, b2.value
    if hv.ndim != 2 or b1v.ndim not in (1, 2) or b2v.ndim != b1v.ndim:
        raise DiffMathError("block_mlp expects a matrix and one bias row per block")
    b1r, b2r = b1v.reshape(-1, b1v.shape[-1]), b2v.reshape(-1, b2v.shape[-1])
    k, dmid = b1r.shape
    if (w1v.shape != (k * hv.shape[1], dmid) or w2v.shape != (k * dmid, b2r.shape[1])
            or b2r.shape[0] != k or hv.shape[0] % k):
        raise DiffMathError(f"block_mlp shape mismatch {hv.shape} @ {w1v.shape} @ "
                            f"{w2v.shape} in {k} blocks")
    m = _block_affine(hv, w1v, b1r, k)
    np.maximum(m, 0.0, out=m)

    def vjp(g, needs):
        gm, gw2, gb2 = _block_affine_vjp(g, m, w2v, k, (any(needs[:3]),) + needs[3:])
        gh = gw1 = gb1 = None
        if gm is not None:
            np.multiply(gm, m > 0, out=gm)
            gh, gw1, gb1 = _block_affine_vjp(gm, hv, w1v, k, needs[:3])
        return (gh, gw1, None if gb1 is None else gb1.reshape(b1v.shape),
                gw2, None if gb2 is None else gb2.reshape(b2v.shape))

    return make_node("block_mlp", _block_affine(m, w2v, b2r, k), (h, w1, b1, w2, b2), vjp)


def softplus(a: Node, lo: Optional[float] = None, hi: Optional[float] = None) -> Node:
    """log(1 + e^a) as max(a, 0) + log1p(e^-|a|), clamped to [lo, hi] when
    both bounds are given.

    The reverse rule is g * sigmoid(a) inside the bounds and 0 where the
    value was clamped. sigmoid comes from the same e^-|a|; it and the
    bound mask are computed only when a gradient is asked for.
    """
    if (lo is None) != (hi is None):
        raise DiffMathError("softplus takes both bounds or neither")
    av = a.value
    e = np.exp(-np.abs(av))
    raw = np.maximum(av, 0.0) + np.log1p(e)
    val = raw if lo is None else np.clip(raw, lo, hi)

    def vjp(g, needs):
        sig = np.where(av < 0.0, e, 1.0)
        sig /= 1.0 + e
        sig *= g
        if lo is not None:
            sig *= (raw >= lo) & (raw <= hi)
        return (sig,)

    return make_node("softplus", val, (a,), vjp)


def log(a: Node) -> Node:
    av = a.value
    with np.errstate(invalid="ignore", divide="ignore"):
        val = np.log(av)
    return make_node("log", val, (a,), lambda g, needs: (g / av,))


def exp(a: Node) -> Node:
    val = np.exp(a.value)
    return make_node("exp", val, (a,), lambda g, needs: (g * val,))


def power(a: Node, p: float) -> Node:
    av = a.value
    with np.errstate(invalid="ignore", divide="ignore"):
        val = av**p
    return make_node("power", val, (a,), lambda g, needs: (g * p * av ** (p - 1.0),))


def clip(a: Node, lo: float, hi: float) -> Node:
    av = a.value
    mask = (av >= lo) & (av <= hi)
    return make_node("clip", np.clip(av, lo, hi), (a,), lambda g, needs: (g * mask,))


def gammaln(a: Node) -> Node:
    av = a.value
    return make_node("gammaln", _sp_gammaln(av), (a,),
                     lambda g, needs: (g * digamma(av),))


def reduce_sum(a: Node, axis: Optional[int] = None) -> Node:
    val = a.value.sum(axis=axis)
    shape = a.value.shape

    def vjp(g, needs):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return make_node("sum", val, (a,), vjp)


def concat_columns(nodes: Iterable[Node]) -> Node:
    nodes = list(nodes)
    if not nodes:
        raise DiffMathError("concat_columns of nothing")
    for n in nodes:
        if n.value.ndim != 2 or n.value.shape[0] != nodes[0].value.shape[0]:
            raise DiffMathError("concat_columns expects matrices with equal rows")
    val = np.concatenate([n.value for n in nodes], axis=1)
    widths = [n.value.shape[1] for n in nodes]
    offsets = np.cumsum([0] + widths)

    def vjp(g, needs):
        return tuple(g[:, offsets[i] : offsets[i + 1]] if needs[i] else None
                     for i in range(len(widths)))

    return make_node("concat", val, tuple(nodes), vjp)


def slice_columns(a: Node, j0: int, j1: int) -> Node:
    if a.value.ndim != 2:
        raise DiffMathError("slice_columns expects a matrix")
    val = a.value[:, j0:j1]
    shape = a.value.shape

    def vjp(g, needs):
        out = np.zeros(shape, dtype=g.dtype)
        out[:, j0:j1] = g
        return (out,)

    return make_node("slice_cols", val, (a,), vjp)


def slice_rows(a: Node, i0: int, i1: int) -> Node:
    if a.value.ndim != 2:
        raise DiffMathError("slice_rows expects a matrix")
    val = a.value[i0:i1]
    shape = a.value.shape

    def vjp(g, needs):
        out = np.zeros(shape, dtype=g.dtype)
        out[i0:i1] = g
        return (out,)

    return make_node("slice_rows", val, (a,), vjp)


def _cols_to_rows(x: np.ndarray, k: int) -> np.ndarray:
    n, width = x.shape
    return x.reshape(n, k, width // k).transpose(1, 0, 2).reshape(k * n, width // k)


def _rows_to_cols(x: np.ndarray, k: int) -> np.ndarray:
    rows, d = x.shape
    return x.reshape(k, rows // k, d).transpose(1, 0, 2).reshape(rows // k, k * d)


def column_blocks_to_rows(a: Node, k: int) -> Node:
    """(N, K*d) -> (K*N, d): column block j becomes row block j."""
    if a.value.ndim != 2 or a.value.shape[1] % k:
        raise DiffMathError(f"cannot split {a.value.shape} into {k} column blocks")
    return make_node("blocks_to_rows", _cols_to_rows(a.value, k), (a,),
                     lambda g, needs: (_rows_to_cols(g, k),))


def row_blocks_to_columns(a: Node, k: int) -> Node:
    """(K*N, d) -> (N, K*d): row block j becomes column block j."""
    if a.value.ndim != 2 or a.value.shape[0] % k:
        raise DiffMathError(f"cannot split {a.value.shape} into {k} row blocks")
    return make_node("blocks_to_columns", _rows_to_cols(a.value, k), (a,),
                     lambda g, needs: (_cols_to_rows(g, k),))


def reshape(a: Node, shape: tuple) -> Node:
    old = a.value.shape
    return make_node("reshape", a.value.reshape(shape), (a,),
                     lambda g, needs: (g.reshape(old),))


def gather_rows(a: Node, indices: np.ndarray) -> Node:
    indices = np.asarray(indices, dtype=np.int64)
    val = np.take(a.value, indices, axis=0)
    shape = a.value.shape

    def vjp(g, needs):
        return (segment_sum(g, indices, shape[0]),)

    return make_node("gather", val, (a,), vjp)


def scatter_add_rows(a: Node, indices: np.ndarray, n_rows: int) -> Node:
    """out[indices[e]] += a[e]; the reverse rule is a gather."""
    indices = np.asarray(indices, dtype=np.int64)
    out = segment_sum(a.value, indices, n_rows)
    return make_node("scatter", out, (a,),
                     lambda g, needs: (np.take(g, indices, axis=0),))


def _row_reduce(ufunc, x: np.ndarray) -> np.ndarray:
    """`ufunc` reduced over the last axis, keeping it.

    A 2-D row narrower than 8 entries is reduced column by column: numpy's
    last-axis reduction costs about 35 ns per element on such rows, and it
    combines them in this same sequential order, so the result is
    bit-identical.
    """
    if x.ndim == 2 and 0 < x.shape[1] < 8:
        out = x[:, 0].copy()
        for j in range(1, x.shape[1]):
            ufunc(out, x[:, j], out=out)
        return out[:, None]
    return ufunc.reduce(x, axis=-1, keepdims=True)


def softmax_rows(x: np.ndarray, tau: float) -> np.ndarray:
    """The row softmax of x / tau, as an array; the value of
    `row_softmax_with_temperature`."""
    x = x / tau
    x = x - _row_reduce(np.maximum, x)
    e = np.exp(x)
    return e / _row_reduce(np.add, e)


def softmax_rows_grad(val: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """The reverse rule of a row softmax at temperature tau whose value is
    `val`, for the output gradient g."""
    inner = _row_reduce(np.add, g * val)
    return (val * (g - inner)) / tau


def row_softmax_with_temperature(a: Node, tau: float) -> Node:
    if tau <= 0:
        raise DiffMathError("temperature must be positive")
    val = softmax_rows(a.value, tau)
    return make_node("softmax", val, (a,),
                     lambda g, needs: (softmax_rows_grad(val, g, tau),))


def log_softmax_rows(a: Node) -> Node:
    x = a.value - _row_reduce(np.maximum, a.value)
    lse = np.log(_row_reduce(np.add, np.exp(x)))
    val = x - lse
    soft = np.exp(val)

    def vjp(g, needs):
        return (g - soft * _row_reduce(np.add, g),)

    return make_node("log_softmax", val, (a,), vjp)


def dropout(a: Node, rate: float, rngs: list) -> Node:
    """Inverted dropout on the row blocks of `a`, block i's keep draws
    coming from rngs[i]; identity when rate == 0."""
    if not 0.0 <= rate < 1.0:
        raise DiffMathError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return a
    if a.value.shape[0] % len(rngs):
        raise DiffMathError(f"{a.value.shape[0]} rows do not split into "
                            f"{len(rngs)} blocks")
    n = a.value.shape[0] // len(rngs)
    mask = np.empty(a.value.shape)
    for i, r in enumerate(rngs):
        r.random(out=mask[i * n:(i + 1) * n])
    np.multiply(mask >= rate, 1.0 / (1.0 - rate), out=mask)
    return make_node("dropout", a.value * mask, (a,), lambda g, needs: (g * mask,))


# ---------------------------------------------------------------------------
# reverse pass


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Node):
    """Accumulate d(loss)/d(param) into every reachable parameter's .grad.

    Requires a scalar loss. Repeated calls without zeroing add, per the
    accumulation contract; intermediate nodes never retain gradients.
    """
    if loss.value.shape != ():
        raise DiffMathError("backward requires a scalar loss node")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    pending: dict[int, np.ndarray] = {id(loss): np.asarray(1.0)}
    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node.vjp is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        parent_grads = node.vjp(g, node.needs)
        for p, pg in zip(node.parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


# ---------------------------------------------------------------------------
# parameters


class ParameterStore:
    """Named trainable tensors with gradients, partitioned into groups.

    Groups are 'phi' (inference side), 'theta' (generative side), and
    'shared' for the community activations updated by both phases.
    """

    def __init__(self):
        self._nodes: dict[str, Node] = {}
        self._groups: dict[str, str] = {}

    def add(self, name: str, value, group: str) -> Node:
        if name in self._nodes:
            raise DiffMathError(f"duplicate parameter {name!r}")
        node = parameter(value)
        self._nodes[name] = node
        self._groups[name] = group
        return node

    def __getitem__(self, name: str) -> Node:
        return self._nodes[name]

    def detached(self, keep: Iterable[str] = ()) -> "ParameterStore":
        """The same parameter arrays, without a copy: the parameters named in
        `keep` stay this store's live nodes, and every other one becomes a
        constant over its array.

        An op whose inputs are all constants folds into a constant. With
        `keep` empty, a forward-only pass on the result therefore records
        no tape and frees each intermediate as soon as its last consumer is
        done. A step that updates only `keep` builds its tape on the result:
        the reverse pass computes no gradient for any other parameter, and
        the kept gradients land on the live nodes.
        """
        keep = set(keep)
        out = ParameterStore()
        out._nodes = {n: node if n in keep else constant(node.value)
                      for n, node in self._nodes.items()}
        out._groups = dict(self._groups)
        return out

    def names(self, groups=None) -> list[str]:
        if groups is None:
            return list(self._nodes)
        if isinstance(groups, str):
            groups = (groups,)
        return [n for n in self._nodes if self._groups[n] in groups]

    def zero_grad(self, names=None):
        for n in names if names is not None else self._nodes:
            self._nodes[n].grad = None

    def grad(self, name: str) -> np.ndarray:
        node = self._nodes[name]
        if node.grad is None:
            return np.zeros_like(node.value)
        return node.grad

    def set_value(self, name: str, value: np.ndarray):
        node = self._nodes[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != node.value.shape:
            raise DiffMathError(f"shape mismatch loading {name!r}")
        node.value = value

    def snapshot(self, names=None) -> dict[str, np.ndarray]:
        selected = names if names is not None else self._nodes
        return {n: self._nodes[n].value.copy() for n in selected}

    def restore(self, snap: dict[str, np.ndarray]):
        for n, v in snap.items():
            self.set_value(n, v)

    def entries(self) -> list[tuple[str, str, np.ndarray]]:
        return [(n, self._groups[n], node.value) for n, node in self._nodes.items()]

    def save(self, path: str, meta: Optional[dict] = None, extra=None):
        save_arrays(path, self.entries() + list(extra or []), meta)

    def load(self, path: str) -> tuple[list, dict]:
        """Load every parameter from a checkpoint; returns all its entries
        and its meta dict, as `load_arrays` reads them.

        The checkpoint must hold exactly this store's parameters, each in
        its shape; optimizer entries (group 'opt') are not parameters.
        Otherwise nothing is loaded and DiffMathError names the mismatch.
        """
        entries, meta = load_arrays(path)
        saved = {name: arr for name, group, arr in entries if group != "opt"}
        problems = [f"missing {n}" for n in self._nodes if n not in saved]
        for name, arr in saved.items():
            if name not in self._nodes:
                problems.append(f"unknown {name}")
            elif arr.shape != self._nodes[name].value.shape:
                problems.append(f"{name} has shape {arr.shape}, expected "
                                f"{self._nodes[name].value.shape}")
        if problems:
            raise DiffMathError(f"{path}: checkpoint does not match the model: "
                                + "; ".join(problems))
        for name, arr in saved.items():
            self.set_value(name, arr)
        return entries, meta


# ---------------------------------------------------------------------------
# checkpoint file format: text header, then raw little-endian float64


_MAGIC = "VEPM-CHECKPOINT v1"


def save_arrays(path: str, entries, meta: Optional[dict] = None):
    header = [_MAGIC]
    for key, value in (meta or {}).items():
        header.append(f"meta {key} {value}")
    blobs = []
    for name, group, arr in entries:
        arr = np.asarray(arr, dtype=np.float64)
        dims = ",".join(str(d) for d in arr.shape) if arr.ndim else "-"
        header.append(f"param {name} {group} {dims}")
        blobs.append(arr.astype("<f8").tobytes())
    header.append("data")
    # written whole to a file beside `path`, then renamed over it, so a
    # failed write leaves the previous checkpoint as it was
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("utf-8"))
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_arrays(path: str):
    """The entries and meta dict of a checkpoint written by `save_arrays`;
    a file that is not one raises DiffMathError naming `path`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\ndata\n") + 1
    if not end:
        raise DiffMathError(f"{path}: not a checkpoint file (no data line)")
    try:
        lines = raw[:end].decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise DiffMathError(f"{path}: not a checkpoint file (header is not text)") from None
    if lines[0] != _MAGIC:
        raise DiffMathError(f"{path}: not a checkpoint file")
    meta: dict[str, str] = {}
    specs = []
    for line in lines[1:]:
        try:
            kind, rest = line.split(" ", 1)
            if kind == "meta":
                key, value = rest.split(" ", 1)
                meta[key] = value
            elif kind == "param":
                name, group, dims = rest.split(" ")
                shape = () if dims == "-" else tuple(int(d) for d in dims.split(","))
                if min(shape, default=0) < 0:
                    raise ValueError
                specs.append((name, group, shape))
            else:
                raise ValueError
        except ValueError:
            raise DiffMathError(f"{path}: bad header line {line!r}") from None
    size = 8 * sum(math.prod(shape) for _, _, shape in specs)
    offset = end + len(b"data\n")
    if len(raw) - offset != size:
        raise DiffMathError(f"{path}: the header lists {size} bytes of data, the file "
                            f"holds {len(raw) - offset}")
    entries = []
    for name, group, shape in specs:
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        entries.append((name, group, arr.copy()))
        offset += count * 8
    return entries, meta


# ---------------------------------------------------------------------------
# gradient verification


class NondeterministicLoss(DiffMathError):
    pass


def finite_difference_check(
    loss_builder: Callable[[], Node],
    store: ParameterStore,
    eps: float = 1e-5,
    samples: int = 100,
    seed: int = 0,
) -> float:
    """Max relative error between reverse-mode and central differences.

    Samples random parameter coordinates; the builder must be deterministic
    (verified by evaluating it twice before perturbing anything). A central
    difference at step eps carries a round-off error of about
    |f| * machine epsilon / eps, so that much of each coordinate's
    discrepancy is not counted against the reverse rule.
    """
    names = store.names()
    base1 = float(loss_builder().value)
    base2 = float(loss_builder().value)
    if base1 != base2:
        raise NondeterministicLoss("loss builder returned different baseline values")
    floor = abs(base1) * np.finfo(np.float64).eps / eps

    store.zero_grad()
    backward(loss_builder())
    grads = {n: store.grad(n).copy() for n in names}
    store.zero_grad()

    rng = substream(seed, "fdcheck")
    worst = 0.0
    for _ in range(samples):
        name = names[int(rng.integers(len(names)))]
        node = store[name]
        idx = int(rng.integers(node.value.size))
        original = node.value.flat[idx]
        node.value.flat[idx] = original + eps
        f_plus = float(loss_builder().value)
        node.value.flat[idx] = original - eps
        f_minus = float(loss_builder().value)
        node.value.flat[idx] = original
        g_fd = (f_plus - f_minus) / (2.0 * eps)
        g_ad = float(grads[name].flat[idx])
        rel = max(0.0, abs(g_fd - g_ad) - floor) / max(1e-8, abs(g_fd) + abs(g_ad))
        worst = max(worst, rel)
    return worst
