import ast
from pathlib import Path

import numpy as np
import pytest

from vepm import diffmath as dm
from vepm.diffmath import (
    DiffMathError,
    NondeterministicLoss,
    NonFiniteError,
    ParameterStore,
    backward,
    finite_difference_check,
    load_arrays,
    save_arrays,
)
from reference import block_affine, dropout_mask
from vepm.rng import substream
from vepm.sparse import SparseMatrix
from vepm import verify
from vepm.verify import _primitive_cases, gradcheck_case


def test_softmax_temperature_values():
    x = dm.constant(np.array([1.0, 2.0]))
    np.testing.assert_allclose(dm.row_softmax_with_temperature(x, 1.0).value,
                               [0.26894142, 0.73105858], atol=1e-8)
    np.testing.assert_allclose(dm.row_softmax_with_temperature(x, 0.5).value,
                               [0.11920292, 0.88079708], atol=1e-8)


def test_relu_all_negative_zero_output_and_gradient():
    store = ParameterStore()
    x = store.add("x", -np.ones((2, 3)), "phi")
    out = dm.relu(x)
    np.testing.assert_array_equal(out.value, np.zeros((2, 3)))
    backward(dm.reduce_sum(out))
    np.testing.assert_array_equal(store.grad("x"), np.zeros((2, 3)))


def test_backward_sum_gives_ones():
    store = ParameterStore()
    w = store.add("w", np.arange(6.0).reshape(2, 3), "phi")
    backward(dm.reduce_sum(w))
    np.testing.assert_array_equal(store.grad("w"), np.ones((2, 3)))


def test_backward_quadratic_gives_2w():
    store = ParameterStore()
    value = np.array([[1.0, -2.0], [0.5, 3.0]])
    w = store.add("w", value, "phi")
    backward(dm.reduce_sum(dm.elementwise_mul(w, w)))
    np.testing.assert_allclose(store.grad("w"), 2 * value)


def test_repeated_backward_accumulates():
    store = ParameterStore()
    w = store.add("w", np.ones(3), "phi")
    backward(dm.reduce_sum(w))
    backward(dm.reduce_sum(w))
    np.testing.assert_array_equal(store.grad("w"), 2 * np.ones(3))


def test_backward_requires_scalar():
    store = ParameterStore()
    w = store.add("w", np.ones(3), "phi")
    with pytest.raises(DiffMathError):
        backward(dm.relu(w))


def test_every_primitive_passes_finite_differences():
    for name in _primitive_cases():
        store, loss = gradcheck_case(name, 1)
        err = finite_difference_check(loss, store, eps=1e-5, samples=30, seed=2)
        assert err < 1e-6, f"{name}: {err}"


@pytest.mark.parametrize("name", ["add", "edge_spmm_parts", "softplus_bounded",
                                  "edge_loglik_batch", "gcn_normalization"])
def test_gradcheck_case_draws_the_same_inputs_without_the_other_cases(name, monkeypatch):
    """A case's parameters and mixing constants come from its own
    generator: removing every other case leaves them unchanged."""

    def drawn():
        store, loss = gradcheck_case(name, 3)
        return {p: store[p].value.copy() for p in store.names()}, float(loss().value)

    params, value = drawn()
    alone = {name: _primitive_cases()[name]}
    monkeypatch.setattr(verify, "_primitive_cases", lambda: alone)
    params_alone, value_alone = drawn()
    assert params.keys() == params_alone.keys()
    for p in params:
        np.testing.assert_array_equal(params[p], params_alone[p])
    assert value == value_alone


def _make_node_ops():
    """Every op name passed to `make_node` in the package's modules, read
    from their syntax trees; a call whose name is not a literal is None."""
    ops = set()
    for path in Path(dm.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) == "make_node":
                op = node.args[0] if node.args else None
                ops.add(op.value if isinstance(op, ast.Constant) else None)
    return ops


def test_every_tape_op_has_a_finite_difference_case():
    """Each op that the package builds with `make_node` appears on the tape
    of some `vepm verify` gradient case, so a new primitive cannot ship
    without one."""
    ops = _make_node_ops()
    assert None not in ops and "matmul" in ops and "edge_spmm" in ops
    reached = set()
    for name in _primitive_cases():
        _store, loss = gradcheck_case(name, 1)
        stack = [loss()]
        while stack:
            node = stack.pop()
            reached.add(node.op)
            stack.extend(node.parents)
    assert sorted(ops - reached) == []


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = substream(0, "softmax-prop")
    for _ in range(20):
        x = rng.normal(0, 3, (5, 4))
        for tau in (0.1, 1.0, 10.0):
            s = dm.row_softmax_with_temperature(dm.constant(x), tau).value
            np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
            shifted = dm.row_softmax_with_temperature(
                dm.constant(x + rng.normal() * np.ones((5, 1))), tau).value
            np.testing.assert_allclose(s, shifted, atol=1e-12)


@pytest.mark.parametrize("width", [1, 3, 7, 8, 12])
def test_softmax_rows_match_numpy_axis_reductions_bit_for_bit(width):
    rng = substream(5, "softmax-narrow", width)
    x, g = rng.normal(0, 3, (50, width)), rng.normal(0, 1, (50, width))
    tau = 0.7
    s = x / tau
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    shifted = x - x.max(axis=-1, keepdims=True)
    log_soft = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    for op, val, grad in (
            (lambda a: dm.row_softmax_with_temperature(a, tau), soft,
             soft * (g - (g * soft).sum(axis=-1, keepdims=True)) / tau),
            (dm.log_softmax_rows, log_soft,
             g - np.exp(log_soft) * g.sum(axis=-1, keepdims=True))):
        store = ParameterStore()
        out = op(store.add("x", x, "phi"))
        backward(dm.reduce_sum(dm.elementwise_mul(out, dm.constant(g))))
        np.testing.assert_array_equal(out.value, val)
        np.testing.assert_array_equal(store.grad("x"), grad)


def test_concat_then_slice_is_identity():
    rng = substream(1, "concat")
    a, b = rng.random((4, 3)), rng.random((4, 5))
    cat = dm.concat_columns([dm.constant(a), dm.constant(b)])
    np.testing.assert_array_equal(dm.slice_columns(cat, 0, 3).value, a)
    np.testing.assert_array_equal(dm.slice_columns(cat, 3, 8).value, b)


def test_edge_spmm_matches_dense_weighted_product():
    rng = substream(2, "edge-spmm")
    adj = SparseMatrix(4, 4, np.array([0, 1, 1, 3]), np.array([1, 0, 3, 1]), np.ones(4))
    w, m = rng.uniform(0.5, 2.0, (4, 1)), rng.normal(0, 1, (4, 3))
    a_w = np.zeros((4, 4))
    a_w[adj.rows, adj.cols] = w[:, 0]
    out = dm.edge_spmm(adj, dm.constant(w), dm.constant(m), dm.constant(np.zeros(1)))
    np.testing.assert_allclose(out.value, a_w @ m, atol=1e-12)


def test_edge_spmm_without_edges_returns_zeros():
    empty = np.zeros(0, np.int64)
    adj = SparseMatrix(3, 3, empty, empty, np.zeros(0))
    store = ParameterStore()
    w = store.add("w", np.zeros((0, 1)), "phi")
    m = store.add("m", np.ones((3, 2)), "phi")
    out = dm.edge_spmm(adj, w, m, dm.constant(np.zeros(1)))
    np.testing.assert_array_equal(out.value, np.zeros((3, 2)))
    backward(dm.reduce_sum(out))
    assert store.grad("w").shape == (0, 1)
    np.testing.assert_array_equal(store.grad("m"), np.zeros((3, 2)))


def test_edge_spmm_constant_weights_skip_their_gradient():
    adj = SparseMatrix(2, 2, np.array([0, 1]), np.array([1, 0]), np.ones(2))
    store = ParameterStore()
    m = store.add("m", np.array([[1.0, 2.0], [3.0, 4.0]]), "phi")
    out = dm.edge_spmm(adj, dm.constant(np.array([[2.0], [5.0]])), m,
                       dm.constant(np.zeros(1)))
    assert out.needs == (False, True, False)
    backward(dm.reduce_sum(out))
    # d/dm sum(A_w m) = A_w^T 1
    np.testing.assert_array_equal(store.grad("m"), [[5.0, 5.0], [2.0, 2.0]])


def test_matmul_bias_equals_matmul_plus_bias_bit_for_bit():
    rng = substream(5, "matmul-bias")
    a, w = rng.normal(0, 1, (6, 4)), rng.normal(0, 1, (4, 3))
    for b in (rng.normal(0, 1, 3), rng.normal(0, 1, (1, 3))):
        fused = dm.matmul(dm.constant(a), dm.constant(w), dm.constant(b))
        plain = dm.matmul(dm.constant(a), dm.constant(w)) + dm.constant(b)
        np.testing.assert_array_equal(fused.value, plain.value)
    with pytest.raises(DiffMathError):
        dm.matmul(dm.constant(a), dm.constant(w), dm.constant(np.ones(6)))


def _dense_with_diagonal(adj, w, d):
    """A_w + diag(d) for one part: w holds one weight per stored entry, d
    one per node or one for all nodes."""
    a_w = np.zeros(adj.shape)
    a_w[adj.rows, adj.cols] = np.ravel(w)
    return a_w + np.diag(np.broadcast_to(np.ravel(d), adj.n_rows))


def test_edge_spmm_with_diagonal_matches_dense_product():
    rng = substream(6, "edge-spmm-diag")
    # node 4 has no edges; rows 1 and 3 hold entries on both sides of the diagonal
    adj = SparseMatrix(5, 5, np.array([0, 1, 1, 2, 3, 3]), np.array([1, 0, 3, 3, 1, 2]),
                       np.ones(6))
    empty = np.zeros(0, np.int64)
    no_edges = SparseMatrix(5, 5, empty, empty, np.zeros(0))
    m = rng.normal(0, 1, (5, 3))
    for support in (adj, no_edges):
        w = rng.uniform(0.5, 2.0, (support.nnz, 1))
        for d in (rng.uniform(0.5, 2.0, (5, 1)), np.array([1.7])):
            out = dm.edge_spmm(support, dm.constant(w), dm.constant(m), dm.constant(d))
            np.testing.assert_allclose(out.value, _dense_with_diagonal(support, w, d) @ m,
                                       rtol=0, atol=1e-12)


def test_edge_spmm_diagonal_gradients_match_dense_rules():
    rng = substream(7, "edge-spmm-diag-grad")
    adj = SparseMatrix(4, 4, np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]), np.ones(4))
    g = rng.normal(0, 1, (4, 2))
    for d0 in (rng.uniform(0.5, 2.0, (4, 1)), np.array([0.8])):
        store = ParameterStore()
        w = store.add("w", rng.uniform(0.5, 2.0, (4, 1)), "phi")
        m = store.add("m", rng.normal(0, 1, (4, 2)), "phi")
        d = store.add("d", d0, "phi")
        out = dm.edge_spmm(adj, w, m, d)
        backward(dm.reduce_sum(dm.elementwise_mul(out, dm.constant(g))))
        dense = _dense_with_diagonal(adj, w.value, d0)
        np.testing.assert_allclose(store.grad("m"), dense.T @ g, rtol=0, atol=1e-12)
        row_dots = (g * m.value).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(store.grad("d"), row_dots if d0.size > 1 else row_dots.sum(0),
                                   rtol=0, atol=1e-12, strict=True)
        np.testing.assert_allclose(store.grad("w"),
                                   (g[adj.rows] * m.value[adj.cols]).sum(1, keepdims=True),
                                   rtol=0, atol=1e-12, strict=True)


def test_edge_spmm_diagonal_rejects_a_stored_diagonal_entry():
    adj = SparseMatrix(2, 2, np.array([0, 1]), np.array([0, 1]), np.ones(2))
    m = dm.constant(np.ones((2, 2)))
    with pytest.raises(DiffMathError, match="without diagonal entries"):
        dm.edge_spmm(adj, dm.constant(np.ones((2, 1))), m, dm.constant(np.ones((2, 1))))


def test_edge_spmm_refuses_one_dimensional_weights_and_diagonals():
    adj = SparseMatrix(3, 3, np.array([0, 1]), np.array([1, 0]), np.ones(2))
    m = dm.constant(np.ones((3, 2)))
    with pytest.raises(DiffMathError, match="edge weights"):
        dm.edge_spmm(adj, dm.constant(np.ones(2)), m, dm.constant(np.ones(1)))
    for d in (np.array(1.0), np.ones(3)):
        with pytest.raises(DiffMathError, match="diag"):
            dm.edge_spmm(adj, dm.constant(np.ones((2, 1))), m, dm.constant(d))


def test_relu_matches_where_bit_for_bit_on_signed_zeros():
    a = np.array([[-0.0, 0.0, -1.5, 2.5], [1e-300, -1e-300, -0.0, 3.0]])
    out = dm.relu(dm.constant(a)).value
    ref = np.where(a > 0, a, 0.0)
    np.testing.assert_array_equal(out, ref)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))


def _unbroadcast_reference(g, shape):
    """The reduction the reverse rules made before they reduced in one pass."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def test_reduced_reverse_rules_match_reference():
    rng = substream(8, "unbroadcast")
    n, d = 7, 5
    g, full = rng.normal(0, 1, (n, d)), rng.normal(0, 1, (n, d))
    for shape in ((), (1, 1), (n, 1), (d,), (1, d)):
        small = rng.normal(0, 1, shape)
        np.testing.assert_allclose(dm._unbroadcast(g, shape),
                                   _unbroadcast_reference(g, shape), rtol=0, atol=1e-12)
        out = dm.elementwise_mul(dm.parameter(full), dm.parameter(small))
        g_full, g_small = out.vjp(g, out.needs)
        assert g_small.shape == shape
        np.testing.assert_allclose(g_small, _unbroadcast_reference(g * full, shape),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(g_full, g * small, rtol=0, atol=1e-12)


def test_dropout_mask_matches_the_scaled_keep_draws():
    a = substream(9, "drop-in").normal(0, 1, (40, 6))
    out = dm.dropout(dm.constant(a), 0.3, [substream(9, "drop")]).value
    keep = substream(9, "drop").random(a.shape) >= 0.3
    np.testing.assert_array_equal(out, a * (keep / (1.0 - 0.3)))


def _assert_bits_equal(got, ref):
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_relu_dropout_matches_relu_then_mask_bit_for_bit(rate):
    """Given the same draws, the fused op equals relu followed by the
    documented mask, signed zeros included, in value and gradient."""
    rng = substream(9, "relu-drop")
    a = rng.normal(0, 1, (30, 7))
    a.flat[:6] = [-0.0, 0.0, -1e-300, 1e-300, -2.0, 3.0]
    g = rng.normal(0, 1, a.shape)
    results = []
    for fused in (True, False):
        store = ParameterStore()
        x = store.add("x", a, "phi")
        if fused:
            out = dm.relu_dropout(x, rate, substream(9, "mask"))
        else:
            mask = dropout_mask(substream(9, "mask"), a.shape, rate)
            out = dm.elementwise_mul(dm.relu(x), dm.constant(mask))
        backward(dm.reduce_sum(dm.elementwise_mul(out, dm.constant(g))))
        results.append((out.value, store.grad("x")))
    for got, ref in zip(*results):
        _assert_bits_equal(got, ref)
    assert (results[0][0] == 0).any() and (results[0][0] > 0).any()


@pytest.mark.parametrize("k", [1, 3])
def test_block_mlp_matches_the_op_chain_bit_for_bit(k):
    """The fused transform against matmul, relu, matmul, with K = 3 blocks
    and one bias row per block, and with K = 1 and (d,) biases, in values
    and in every gradient."""
    rng = substream(3, "block-mlp", k)
    n, din, dmid, dout = 7, 4, 5, 3
    shapes = {"h": (k * n, din), "w1": (k * din, dmid), "w2": (k * dmid, dout),
              "b1": (k, dmid) if k > 1 else (dmid,),
              "b2": (k, dout) if k > 1 else (dout,)}
    values = {name: rng.normal(0, 1, shape) for name, shape in shapes.items()}
    g = rng.normal(0, 1, (k * n, dout))
    results = []
    for fused in (True, False):
        store = ParameterStore()
        p = {name: store.add(name, v, "phi") for name, v in values.items()}
        if fused:
            out = dm.block_mlp(p["h"], p["w1"], p["b1"], p["w2"], p["b2"])
        else:
            hidden = dm.relu(dm.matmul(p["h"], p["w1"], p["b1"]))
            out = dm.matmul(hidden, p["w2"], p["b2"])
        backward(dm.reduce_sum(dm.elementwise_mul(out, dm.constant(g))))
        results.append([out.value] + [store.grad(name) for name in values])
    for got, ref in zip(*results):
        _assert_bits_equal(got, ref)


def test_dropout_lanes_are_the_16_bit_words_lowest_first():
    lanes = dm.dropout_lanes(substream(3, "lanes"), 10)
    raw = substream(3, "lanes").bit_generator
    words = [int(w) for w in raw.random_raw(3)]
    assert lanes.dtype == np.dtype("<u2")
    assert lanes.tolist() == [(w >> (16 * j)) & 0xFFFF for w in words for j in range(4)][:10]
    # a draw takes whole words: the next draw starts at the fourth
    rest = substream(3, "lanes")
    dm.dropout_lanes(rest, 10)
    assert rest.bit_generator.random_raw() == raw.random_raw()


@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.9])
def test_relu_dropout_keeps_the_rate_within_a_binomial_bound(rate):
    n = 100_000
    out = dm.relu_dropout(dm.constant(np.ones((400, n // 400))), rate,
                          substream(5, "kept", rate)).value
    t = dm.dropout_threshold(rate)
    p = (65536 - t) / 65536
    kept = out > 0
    assert abs(kept.mean() - p) <= 5 * np.sqrt(p * (1 - p) / n)
    np.testing.assert_array_equal(out[kept], 65536 / (65536 - t))
    np.testing.assert_array_equal(out[~kept], 0.0)


def test_dropout_threshold_refuses_a_rate_that_keeps_nothing():
    assert dm.dropout_threshold(0.0) == 0
    assert dm.dropout_threshold(0.5) == 32768
    assert dm.dropout_threshold(np.nextafter(1 - 2**-17, 0)) == 65535
    for rate in (1 - 2**-17, 1.0, -0.1, float("nan")):
        with pytest.raises(DiffMathError, match="dropout rate"):
            dm.dropout_threshold(rate)


def test_edge_spmm_parts_match_dense_blocks():
    rng = substream(8, "edge-spmm-parts")
    # node 4 has no edges
    adj = SparseMatrix(5, 5, np.array([0, 1, 1, 2, 3, 3]), np.array([1, 0, 3, 3, 1, 2]),
                       np.ones(6))
    k = 3
    w = rng.uniform(0.5, 2.0, (adj.nnz, k))
    stacked = rng.normal(0, 1, (k * 5, 2))
    shared = rng.normal(0, 1, (5, 2))
    for m, d in ((stacked, rng.uniform(0.5, 2.0, (5, k))), (shared, rng.uniform(0.5, 2.0, k)),
                 (stacked, rng.uniform(0.5, 2.0, k))):
        out = dm.edge_spmm(adj, dm.constant(w), dm.constant(m), dm.constant(d)).value
        assert out.shape == (k * 5, 2)
        for b in range(k):
            m_b = m if m.shape[0] == 5 else m[b * 5:(b + 1) * 5]
            dense = _dense_with_diagonal(adj, w[:, b], d[:, b] if d.ndim == 2 else d[b])
            np.testing.assert_allclose(out[b * 5:(b + 1) * 5], dense @ m_b, rtol=0, atol=1e-12)
    with pytest.raises(DiffMathError, match="diag"):
        dm.edge_spmm(adj, dm.constant(w), dm.constant(stacked), dm.constant(np.ones(5)))


@pytest.mark.parametrize("k, bias_shape", [(1, None), (1, "row"), (1, "one_row"),
                                           (3, "blocks")])
def test_matmul_matches_the_per_block_reference_bit_for_bit(k, bias_shape):
    """K = 1 without a bias, with a (d,) and with a (1, d) bias, and K = 3
    blocks with a (K, d) bias, in the value and in every gradient."""
    rng = substream(3, "block-matmul", k)
    n, din, dout = 7, 4, 5
    h = rng.normal(0, 1, (k * n, din))
    w = rng.normal(0, 1, (k * din, dout))
    b = {None: None, "row": (dout,), "one_row": (1, dout), "blocks": (k, dout)}[bias_shape]
    b = None if b is None else rng.normal(0, 1, b)
    g = rng.normal(0, 1, (k * n, dout))
    store = ParameterStore()
    nodes = [store.add(name, v, "phi") for name, v in (("h", h), ("w", w), ("b", b))
             if v is not None]
    out = dm.matmul(*nodes)
    backward(dm.reduce_sum(dm.elementwise_mul(out, dm.constant(g))))
    ref_out, ref_h, ref_w, ref_b = block_affine(
        h, w, None if b is None else b.reshape(k, dout), g)
    _assert_bits_equal(out.value, ref_out)
    _assert_bits_equal(store.grad("h"), ref_h)
    _assert_bits_equal(store.grad("w"), ref_w)
    if b is not None:
        _assert_bits_equal(store.grad("b"), ref_b.reshape(b.shape))


def test_matmul_refuses_shapes_that_do_not_split_into_blocks():
    def product(a_shape, w_shape, b_shape=None):
        nodes = [dm.constant(np.ones(s)) for s in (a_shape, w_shape, b_shape) if s]
        return dm.matmul(*nodes)

    assert product((6, 2), (6, 3), (3, 3)).shape == (6, 3)
    # weight rows that are not a multiple of a's columns
    with pytest.raises(DiffMathError, match="shape mismatch"):
        product((6, 4), (6, 3))
    with pytest.raises(DiffMathError, match="shape mismatch"):
        product((6, 4), (2, 3))
    # rows of a that do not split into K = 3 blocks
    with pytest.raises(DiffMathError, match="shape mismatch"):
        product((7, 2), (6, 3))
    # a bias with the wrong number of rows, and a (d,) bias for K > 1
    for b_shape in ((2, 3), (1, 3), (3,)):
        with pytest.raises(DiffMathError, match="bias"):
            product((6, 2), (6, 3), b_shape)


def test_block_layout_conversions_are_inverse():
    a = substream(2, "blocks").normal(0, 1, (4, 6))
    rows = dm.column_blocks_to_rows(dm.constant(a), 3).value
    np.testing.assert_array_equal(rows, np.vstack(np.hsplit(a, 3)))
    np.testing.assert_array_equal(dm.row_blocks_to_columns(dm.constant(rows), 3).value, a)


def test_dropout_takes_one_generator_per_row_block():
    a = substream(9, "drop-in").normal(0, 1, (3 * 40, 6))
    rngs = [substream(9, "drop", i) for i in range(3)]
    out = dm.dropout(dm.constant(a), 0.3, rngs).value
    for i in range(3):
        block = a[i * 40:(i + 1) * 40]
        single = dm.dropout(dm.constant(block), 0.3, [substream(9, "drop", i)]).value
        np.testing.assert_array_equal(out[i * 40:(i + 1) * 40], single)


def test_segment_sum_matches_sequential_loop():
    rng = substream(4, "segsum")
    idx = rng.integers(0, 7, 40)
    values = rng.normal(0, 1, (40, 3))
    ref = np.zeros((7, 3))
    for e, i in enumerate(idx):
        ref[i] += values[e]
    np.testing.assert_array_equal(dm.segment_sum(values, idx, 7), ref)


def test_backward_determinism_bit_identical():
    def run():
        store = ParameterStore()
        rng = substream(5, "det")
        w = store.add("w", rng.normal(0, 1, (6, 4)), "phi")
        v = store.add("v", rng.normal(0, 1, (4, 2)), "phi")
        h = dm.relu(dm.matmul(w, v))
        h = dm.dropout(h, 0.3, [substream(5, "detdrop")])
        backward(dm.reduce_sum(dm.elementwise_mul(h, h)))
        return store.grad("w").copy(), store.grad("v").copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])


def test_dropout_identity_in_eval_and_scaling_in_train():
    x = dm.constant(np.ones((100, 50)))
    # rate 0 is the identity
    assert dm.dropout(x, 0.0, [substream(0, "d")]) is x
    out = dm.dropout(x, 0.4, [substream(0, "d")]).value
    kept = out[out > 0]
    np.testing.assert_allclose(kept, 1.0 / 0.6)
    assert abs((out > 0).mean() - 0.6) < 0.05


def test_gradients_skip_constant_operands():
    store = ParameterStore()
    w = store.add("w", np.ones((3, 3)), "phi")
    big = dm.constant(np.ones((3, 3)))
    out = dm.matmul(big, w)
    assert out.needs == (False, True)
    backward(dm.reduce_sum(out))
    assert big.grad is None
    assert store.grad("w") is not None


def test_non_finite_rejected_in_test_mode():
    with pytest.raises(NonFiniteError):
        dm.log(dm.constant(np.array([0.0, -1.0])))


def test_rank_three_rejected():
    with pytest.raises(DiffMathError):
        dm.constant(np.ones((2, 2, 2)))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    store = ParameterStore()
    rng = substream(9, "ckpt")
    store.add("enc.W", rng.normal(0, 1, (7, 3)), "phi")
    store.add("gamma_raw", rng.normal(0, 1, 4), "shared")
    store.add("scalar", np.asarray(rng.normal()), "theta")
    path = str(tmp_path / "test.ckpt")
    store.save(path, meta={"epoch": "12"})
    entries, meta = load_arrays(path)
    assert meta == {"epoch": "12"}
    assert [(name, group) for name, group, _ in entries] == [
        (name, group) for name, group, _ in store.entries()]
    for name, _group, arr in entries:
        node = store[name]
        assert arr.shape == node.value.shape
        assert np.array_equal(arr, node.value)

    other = ParameterStore()
    other.add("enc.W", np.zeros((7, 3)), "phi")
    other.add("gamma_raw", np.zeros(4), "shared")
    other.add("scalar", np.asarray(0.0), "theta")
    got_entries, got = other.load(path)
    assert got["epoch"] == "12"
    assert [name for name, _g, _a in got_entries] == [name for name, _g, _a in entries]
    assert np.array_equal(other["enc.W"].value, store["enc.W"].value)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    """A save that fails after some bytes are written (here: the disk fills
    on the second write) raises, and leaves the previous checkpoint byte
    for byte and no other file in its directory."""
    import builtins
    import errno

    import vepm.diffmath as dm_mod

    path = str(tmp_path / "model.ckpt")
    save_arrays(path, [("w", "phi", np.arange(6.0).reshape(2, 3))], {"epoch": "3"})
    with open(path, "rb") as fh:
        before = fh.read()

    class FillsUp:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

        def __getattr__(self, name):
            return getattr(self.fh, name)

    monkeypatch.setattr(dm_mod, "open", lambda *a, **kw: FillsUp(builtins.open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError):
        save_arrays(path, [("w", "phi", np.ones((2, 3)))], {"epoch": "4"})
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    save_arrays(path, [("w", "phi", np.ones((2, 2)))])
    store = ParameterStore()
    store.add("w", np.ones((3, 3)), "phi")
    with pytest.raises(DiffMathError, match="shape"):
        store.load(path)


def test_checkpoint_missing_parameter_rejected(tmp_path):
    path = str(tmp_path / "short.ckpt")
    save_arrays(path, [("w", "phi", np.ones(2)), ("adam.m.w", "opt", np.ones(2))])
    store = ParameterStore()
    store.add("w", np.zeros(2), "phi")
    store.add("v", np.zeros(3), "theta")
    with pytest.raises(DiffMathError, match="missing v"):
        store.load(path)
    # a refused checkpoint loads nothing
    assert np.array_equal(store["w"].value, np.zeros(2))


def test_checkpoint_unknown_parameter_rejected(tmp_path):
    path = str(tmp_path / "long.ckpt")
    save_arrays(path, [("w", "phi", np.ones(2)), ("u", "theta", np.ones(1))])
    store = ParameterStore()
    store.add("w", np.zeros(2), "phi")
    with pytest.raises(DiffMathError, match="unknown u"):
        store.load(path)
    assert np.array_equal(store["w"].value, np.zeros(2))


def test_checkpoint_reshaped_parameter_rejected_by_name(tmp_path):
    path = str(tmp_path / "reshaped.ckpt")
    save_arrays(path, [("w", "phi", np.ones(2)), ("v", "theta", np.ones((2, 3)))])
    store = ParameterStore()
    store.add("w", np.zeros(2), "phi")
    store.add("v", np.zeros(6), "theta")
    with pytest.raises(DiffMathError, match=r"v has shape \(2, 3\), expected \(6,\)"):
        store.load(path)
    assert np.array_equal(store["w"].value, np.zeros(2))


def test_fd_check_detects_nondeterministic_builder():
    store = ParameterStore()
    store.add("w", np.ones(3), "phi")
    rng = substream(0, "nondet")

    def builder():
        return dm.reduce_sum(dm.elementwise_mul(store["w"],
                                                dm.constant(rng.random(3))))

    with pytest.raises(NondeterministicLoss):
        finite_difference_check(builder, store, samples=2)


def test_parameter_groups():
    store = ParameterStore()
    store.add("a", np.ones(2), "phi")
    store.add("b", np.ones(2), "theta")
    store.add("c", np.ones(2), "shared")
    assert store.names("phi") == ["a"]
    assert store.names(("phi", "shared")) == ["a", "c"]
    assert store.names() == ["a", "b", "c"]
    with pytest.raises(DiffMathError):
        store.add("a", np.ones(2), "phi")


def test_detached_store_shares_arrays_and_records_no_tape():
    store = ParameterStore()
    store.add("w", substream(11, "detached").normal(0, 1, (3, 2)), "theta")
    store.add("b", np.ones(2), "phi")
    frozen = store.detached()
    assert frozen.names() == store.names()
    assert frozen.names("phi") == ["b"]
    for name in store.names():
        assert np.shares_memory(frozen[name].value, store[name].value)
        assert not frozen[name].requires_grad
    x = dm.constant(np.ones((4, 3)))
    out = dm.relu(dm.matmul(x, frozen["w"], frozen["b"]))
    assert out.parents == () and out.vjp is None and not out.requires_grad
    live = dm.relu(dm.matmul(x, store["w"], store["b"]))
    assert live.parents
    np.testing.assert_array_equal(out.value, live.value)
