"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps chosen functions of the `vepm` modules at every
module-level name that binds them (so `training.backward` is wrapped along
with `diffmath.backward`), wraps the reverse rule (`Node.vjp`) of each tape
op it sees created, and counts `Node` constructions. Each wrapped call
records a span: name, parent span, start and end. `uninstall` puts every
original object back. Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# tape ops of `vepm.diffmath`: function name -> the `Node.op` it creates.
# Ops without a reported metric are wrapped too, so that the time of their
# reverse rules is not counted as the backward pass's own time.
OPS = {
    "add": "add",
    "negate": "negate",
    "elementwise_mul": "mul",
    "matmul": "matmul",
    "sparse_dense_matmul": "spmm",
    "relu": "relu",
    "softplus": "softplus",
    "log": "log",
    "exp": "exp",
    "power": "power",
    "clip": "clip",
    "gammaln": "gammaln",
    "reduce_sum": "sum",
    "concat_columns": "concat",
    "slice_columns": "slice_cols",
    "reshape": "reshape",
    "gather_rows": "gather",
    "scatter_add_rows": "scatter",
    "row_softmax_with_temperature": "softmax",
    "log_softmax_rows": "log_softmax",
    "dropout": "dropout",
}

# (module, attribute, span name); an attribute "Class.method" wraps a method
CALLS = [
    ("graphs", "load_node_dataset", "graphs.load"),
    ("graphs", "load_graph_dataset", "graphs.load"),
    ("graphs", "batch_graphs", "graphs.batch_graphs"),
    ("sparse", "normalize_adjacency", "sparse.normalize_adjacency"),
    ("sparse", "SparseMatrix.matmul_dense", "sparse.spmm"),
    ("rng", "substream", "rng.substream"),
    ("diffmath", "backward", "diffmath.backward"),
    ("distributions", "bernoulli_poisson_loglik", "distributions.edge_loglik"),
    ("distributions", "kl_weibull_gamma", "distributions.kl"),
    ("distributions", "weibull_rsample", "distributions.weibull_rsample"),
    ("model", "encode_communities", "model.encoder"),
    ("model", "partition_edges", "model.partition"),
    ("model", "community_gnn_forward", "model.bank"),
    ("model", "compose_representations", "model.composer"),
    ("model", "graph_pool", "model.pool"),
    ("model", "posterior_predictive", "model.predict"),
    # pretrain and finetune spans tell the backward passes' phases apart
    ("training", "pretrain", "training.pretrain"),
    ("training", "finetune", "training.finetune"),
    ("training", "elbo", "training.elbo"),
    ("training", "adam_step", "training.adam"),
    # a fold has no public entry point; this private helper is one fold
    ("evaluation", "_train_fold", "evaluation.fold"),
]


def op_span(op: str, side: str) -> str:
    return f"diffmath.op.{op}.{side}"


class Tracer:
    """Spans of the current trace window, kept as parallel lists; a span's
    parent is the span open when it started (-1 at top level)."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.nodes_created = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def clear(self):
        """Drop recorded spans; call only with no span open."""
        if self._stack:
            raise RuntimeError("clear() while a span is open")
        self.names.clear()
        self.parents.clear()
        self.starts.clear()
        self.ends.clear()

    def _call(self, name: str, fn, args, kwargs):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = time.perf_counter()
            self._stack.pop()

    def wrap_call(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def wrap_op(self, op: str, fn, node_type):
        fwd, bwd = op_span(op, "fwd"), op_span(op, "bwd")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self._call(fwd, fn, args, kwargs)
            # only the node this op built: dropout and folding can hand
            # back an input node, whose rule is already wrapped or not ours
            if (isinstance(out, node_type) and out.vjp is not None and out.op == op
                    and not getattr(out.vjp, "traced", False)):
                rule = out.vjp

                def vjp(g, needs):
                    return self._call(bwd, rule, (g, needs), {})

                vjp.traced = True
                out.vjp = vjp
            return out

        return traced

    # -- installation ------------------------------------------------------

    @staticmethod
    def _package_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "vepm" or name.startswith("vepm."))]

    def _rebind(self, original, replacement):
        """Point every module-level name bound to `original` at `replacement`."""
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        import vepm.diffmath as dm

        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._package_modules()}
        for fname, op in OPS.items():
            original = getattr(dm, fname)
            self._rebind(original, self.wrap_op(op, original, dm.Node))
        for mod_name, attr, span in CALLS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap_call(span, original))
            else:
                original = getattr(owner, attr)
                self._rebind(original, self.wrap_call(span, original))

        node_init = vars(dm.Node)["__init__"]

        def counting_init(node, *args, **kwargs):
            self.nodes_created += 1
            node_init(node, *args, **kwargs)

        self._undo.append((dm.Node, "__init__", node_init))
        dm.Node.__init__ = counting_init

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never goes below zero.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(parents)):
        lo, hi = starts[i], ends[i]
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], lo), min(ends[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def summarize_window(tracer: Tracer) -> dict:
    """Per-name totals of one trace window.

    Returns {"ms": inclusive ms per name, "self_ms": self ms per name,
    "calls": count per name, "backward_ms": {phase: ms},
    "finetune_encoder_calls": encoder calls made inside finetune}.
    The backward phase is read from the span tree: inside `pretrain` it is
    pretraining; inside `finetune` it is the phi step when the span before
    it under the same parent is `training.elbo`, and a theta step otherwise.
    """
    names, parents = tracer.names, tracer.parents
    starts, ends = tracer.starts, tracer.ends
    own = self_times(parents, starts, ends)
    ms, self_ms, calls = Counter(), Counter(), Counter()
    backward_ms = Counter({"pretrain": 0.0, "theta": 0.0, "phi": 0.0})
    in_pretrain, in_finetune = [], []
    last_child: dict[int, int] = {}
    encoder_in_finetune = 0
    for i, name in enumerate(names):
        p = parents[i]
        dur = (ends[i] - starts[i]) * 1e3
        ms[name] += dur
        self_ms[name] += own[i] * 1e3
        calls[name] += 1
        in_pretrain.append(name == "training.pretrain" or (p >= 0 and in_pretrain[p]))
        in_finetune.append(name == "training.finetune" or (p >= 0 and in_finetune[p]))
        previous = last_child.get(p)
        last_child[p] = i
        if name == "model.encoder" and p >= 0 and in_finetune[p]:
            encoder_in_finetune += 1
        if name == "diffmath.backward":
            if p >= 0 and in_pretrain[p]:
                backward_ms["pretrain"] += dur
            elif p >= 0 and in_finetune[p]:
                phi = previous is not None and names[previous] == "training.elbo"
                backward_ms["phi" if phi else "theta"] += dur
    return {"ms": dict(ms), "self_ms": dict(self_ms), "calls": dict(calls),
            "backward_ms": dict(backward_ms),
            "finetune_encoder_calls": encoder_in_finetune}
