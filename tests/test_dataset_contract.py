"""The dataset contract, file by file: a generated matrix of corrupted
inputs, of the package layout, of the raw TU files that `convert-tu` reads
and of the pickles that `convert-planetoid` reads, each refused with exit
code 2, `VEPM-ERROR kind=config`, the file's path and, for a text file,
its 1-based line; the inputs accepted by design, each with the
README sentence that documents it; and exact round trips of the writers."""

import os
import pickle
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from vepm.cli import main
from vepm.convert import convert_planetoid, convert_tu
from vepm.graphs import (
    Graph,
    GraphCollection,
    load_graph_dataset,
    load_node_dataset,
    save_graph_dataset,
    save_node_dataset,
)
from vepm.model import prepare_node_graph
from vepm.sparse import SparseMatrix, adjacency_from_edges

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# five nodes on a path, three features
NODE = {
    "edges.csv": "0,1\n1,2\n2,3\n3,4\n",
    "features.csv": "5,3\n0,0,1.0\n1,2,0.5\n2,1,-2.0\n3,0,4.0\n",
    "labels.csv": "0\n1\n0\n1\n0\n",
    "masks.csv": "1,0,0\n0,1,0\n0,0,1\n1,0,0\n0,0,1\n",
}
# two three-node paths, two one-hot features
GRAPH = {
    "edges.csv": "0,1\n1,2\n3,4\n4,5\n",
    "features.csv": "6,2\n0,0,1.0\n1,1,1.0\n2,0,1.0\n3,1,1.0\n4,0,1.0\n5,1,1.0\n",
    "labels.csv": "0\n1\n",
    "graph_indicator.csv": "0\n0\n0\n1\n1\n1\n",
}
BASES = {"node": NODE, "graph": GRAPH}


def _write_dataset(root, kind, files):
    data = os.path.join(root, "data")
    os.makedirs(data, exist_ok=True)
    for name, text in files.items():
        if text is not None:
            with open(os.path.join(data, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    cfg = os.path.join(root, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(f"""
dataset = {data}
task = {kind}
out = {os.path.join(root, "out")}
seed = 0
model.n_metacommunities = 2
model.communities_per_block = 1
model.hidden_dim = 8
model.dropout = 0.0
model.mc_samples = 1
train.pretrain_epochs = 2
train.finetune_epochs = 2
train.patience = 100
""")
    return data, cfg


# ---------------------------------------------------------------------------
# corruptions: each maps a file's text to its corrupted text


def _set_field(line, field, value):
    def corrupt(text):
        lines = text.split("\n")
        fields = lines[line - 1].split(",")
        fields[field - 1] = value
        lines[line - 1] = ",".join(fields)
        return "\n".join(lines)
    return corrupt


def _append_field(line):
    def corrupt(text):
        lines = text.split("\n")
        lines[line - 1] += ",0"
        return "\n".join(lines)
    return corrupt


def _drop_field(line):
    def corrupt(text):
        lines = text.split("\n")
        lines[line - 1] = lines[line - 1].rsplit(",", 1)[0]
        return "\n".join(lines)
    return corrupt


def _replace(new_text):
    return lambda _text: new_text


def _dense(text):
    """The dense form of a sparse features.csv, as the writers once wrote
    it: one row of `repr` values per node."""
    head, *entries = [line for line in text.split("\n") if line]
    n, f = map(int, head.split(","))
    x = np.zeros((n, f))
    for entry in entries:
        i, j, v = entry.split(",")
        x[int(i), int(j)] = float(v)
    return "".join(",".join(repr(v) for v in row) + "\n" for row in x.tolist())


def _rows(text):
    return len([line for line in text.split("\n") if line])


def _refusals():
    """(kind, file, class, corrupt, refusing file, line or None): every
    corruption class of every file of both layouts. Field corruptions hit
    the second line of an integer file and the third of features.csv (its
    second entry)."""
    cases = []
    for kind, base in BASES.items():
        n = _rows(base["labels.csv"]) if kind == "node" else _rows(
            base["graph_indicator.csv"])
        f = int(base["features.csv"].split("\n")[0].split(",")[1])

        def add(name, cls, corrupt, line, refusing=None):
            cases.append((kind, name, cls, corrupt, refusing or name, line))

        int_files = {"edges.csv": {"out-of-range": str(n)},
                     "labels.csv": {},
                     "graph_indicator.csv": {"out-of-range": str(n)},
                     "masks.csv": {"out-of-range": "2"}}
        for name, ranged in int_files.items():
            if name not in base:
                continue
            for cls, value in (("non-numeric", "x"), ("fractional", "1.5"),
                               ("nan", "nan"), ("inf", "inf"), ("negative", "-1"),
                               *ranged.items()):
                add(name, cls, _set_field(2, 1, value), 2)
            add(name, "extra-field", _append_field(2), 2)
            if "," in base[name]:
                # in a one-field file these leave a blank line, which is skipped
                add(name, "empty-field", _set_field(2, 1, ""), 2)
                add(name, "missing-field", _drop_field(2), 2)
            if name != "edges.csv":
                rows = _rows(base[name])
                add(name, "short", lambda t: t.rsplit("\n", 2)[0] + "\n", rows)
                add(name, "surplus", lambda t: t + t.split("\n")[0] + "\n", rows + 1)
                add(name, "empty", _replace(""), 1)
            if name != "masks.csv":
                add(name, "missing", None, None)
        if kind == "node":
            add("masks.csv", "two-masks", _set_field(2, 1, "1"), 2)
        else:
            # named at the first node of the graph id after the gap
            add("graph_indicator.csv", "gap", _replace("0\n0\n0\n2\n2\n2\n"), 4)
            add("graph_indicator.csv", "from-one", _replace("1\n1\n1\n2\n2\n2\n"), 1)
            add("edges.csv", "between-graphs", _set_field(2, 2, "3"), 2)

        name = "features.csv"
        for cls, field, value in (("node-non-numeric", 1, "x"),
                                  ("node-fractional", 1, "1.5"),
                                  ("node-nan", 1, "nan"), ("node-inf", 1, "inf"),
                                  ("node-negative", 1, "-1"),
                                  ("node-out-of-range", 1, str(n)),
                                  ("feature-fractional", 2, "0.5"),
                                  ("feature-negative", 2, "-1"),
                                  ("feature-out-of-range", 2, str(f)),
                                  ("value-non-numeric", 3, "x"),
                                  ("value-empty", 3, ""),
                                  ("value-nan", 3, "nan"), ("value-inf", 3, "inf"),
                                  ("value--inf", 3, "-inf")):
            add(name, cls, _set_field(3, field, value), 3)
        add(name, "extra-field", _append_field(3), 3)
        add(name, "missing-field", _drop_field(3), 3)
        for cls, header in (("header-one-field", f"{n}"),
                            ("header-three-fields", f"{n},{f},1"),
                            ("header-non-numeric", f"{n},x"),
                            ("header-fractional", f"{n}.0,{f}.0"),
                            ("header-zero-nodes", f"0,{f}"),
                            ("header-zero-features", f"{n},0"),
                            ("header-negative", f"-{n},{f}")):
            add(name, cls, lambda t, h=header: h + t[t.index("\n"):], 1)
        add(name, "header-after-blank-lines",
            lambda t: "\n \n" + t.split(",", 1)[0] + t[t.index("\n"):], 3)
        add(name, "duplicate", lambda t: t + t.split("\n")[2] + "\n",
            _rows(base[name]) + 1)
        add(name, "dense-form", _dense, 1)
        add(name, "empty", _replace(""), None)
        add(name, "blank-only", _replace("\n \n\t\n"), None)
        add(name, "missing", None, None)
        # one node more in the header than the other files hold
        add(name, "header-n-too-large", lambda t, n=n: f"{n + 1}" + t[t.index(","):],
            n + 1, "labels.csv" if kind == "node" else "graph_indicator.csv")
    return cases


REFUSALS = _refusals()


@pytest.mark.parametrize("kind,name,cls,corrupt,refusing,line", REFUSALS,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in REFUSALS])
def test_refusal_names_file_and_line(tmp_path, capsys, kind, name, cls, corrupt,
                                     refusing, line):
    files = dict(BASES[kind])
    files[name] = None if corrupt is None else corrupt(files[name])
    data, cfg = _write_dataset(str(tmp_path), kind, files)
    assert main(["pretrain", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "VEPM-ERROR kind=config" in err
    path = os.path.join(data, refusing)
    if line is None:
        assert path in err
    else:
        assert f"{path}:{line}: " in err


def test_dense_feature_file_names_the_sparse_form(tmp_path, capsys):
    files = dict(NODE, **{"features.csv": _dense(NODE["features.csv"])})
    data, cfg = _write_dataset(str(tmp_path), "node", files)
    assert main(["pretrain", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"features.csv:1: expected the header 'N,F'" in err
    assert "'node,feature,value'" in err


def test_duplicate_entry_names_both_lines(tmp_path, capsys):
    # the repeat comes before the entry it repeats in the sorted order
    files = dict(NODE, **{"features.csv": "5,3\n3,0,4.0\n0,0,1.0\n\n3,0,2.0\n"})
    data, cfg = _write_dataset(str(tmp_path), "node", files)
    assert main(["pretrain", "--config", cfg]) == 2
    assert ("features.csv:5: repeats the entry of node 3, feature 0 from line 2"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# the raw TU files under `vepm convert-tu`: two graphs of three and two nodes

TU = {
    "A": "1, 2\n2, 1\n2, 3\n3, 2\n4, 5\n5, 4\n",
    "graph_indicator": "1\n1\n1\n2\n2\n",
    "graph_labels": "1\n-1\n",
    "node_labels": "3\n7\n3\n5\n3\n",
}


def _tu_refusals():
    """(file, class, corrupt, refusing file, line or None) for the raw TU
    files, whose ids count from 1."""
    cases = [("A", "non-numeric", _replace("1, 2\n2, x\n"), "A", 2)]
    for cls, value in (("fractional", " 1.5"), ("zero", " 0"), ("out-of-range", " 6"),
                       ("between-graphs", " 4")):
        cases.append(("A", cls, _set_field(2, 2, value), "A", 2))
    cases += [("A", "extra-field", _append_field(2), "A", 2),
              ("A", "missing-field", _drop_field(2), "A", 2)]
    for name in ("graph_indicator", "graph_labels", "node_labels"):
        cases += [(name, "non-numeric", _set_field(2, 1, "x"), name, 2),
                  (name, "extra-field", _append_field(2), name, 2),
                  (name, "missing", None, name, None)]
    cases += [("A", "missing", None, "A", None),
              ("graph_indicator", "gap", _replace("1\n1\n1\n3\n3\n"), "graph_indicator", 4),
              ("graph_indicator", "from-two", _replace("2\n2\n2\n3\n3\n"),
               "graph_indicator", 1),
              ("graph_indicator", "zero", _set_field(2, 1, "0"), "graph_indicator", 2),
              ("graph_indicator", "short", _replace("1\n1\n1\n2\n"), "graph_indicator", 5),
              ("graph_indicator", "surplus", lambda t: t + "2\n", "graph_indicator", 6),
              ("node_labels", "short", _replace("3\n7\n3\n5\n"), "graph_indicator", 5),
              ("graph_labels", "short", _replace("1\n"), "graph_labels", 2),
              ("graph_labels", "surplus", lambda t: t + "1\n", "graph_labels", 3)]
    return cases


TU_REFUSALS = _tu_refusals()


@pytest.mark.parametrize("name,cls,corrupt,refusing,line", TU_REFUSALS,
                         ids=[f"{c[0]}-{c[1]}" for c in TU_REFUSALS])
def test_convert_tu_refusal_names_file_and_line(tmp_path, capsys, name, cls, corrupt,
                                                refusing, line):
    files = dict(TU)
    files[name] = None if corrupt is None else corrupt(files[name])
    for kind, text in files.items():
        if text is not None:
            (tmp_path / f"T_{kind}.txt").write_text(text)
    assert main(["convert-tu", "--raw", str(tmp_path), "--name", "T",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "VEPM-ERROR kind=config" in err
    path = os.path.join(str(tmp_path), f"T_{refusing}.txt")
    assert (path in err) if line is None else (f"{path}:{line}: " in err), err


def test_convert_tu_quotes_the_raw_files_ids(tmp_path, capsys):
    files = dict(TU, A=_set_field(2, 2, " 4")(TU["A"]),
                 graph_indicator="1\n1\n1\n3\n3\n")
    for kind, text in files.items():
        (tmp_path / f"T_{kind}.txt").write_text(text)
    assert main(["convert-tu", "--raw", str(tmp_path), "--name", "T",
                 "--out", str(tmp_path / "out")]) == 2
    assert ("T_graph_indicator.txt:4: graph ids must be consecutive from 1, and no node "
            "has graph id 2") in capsys.readouterr().err
    (tmp_path / "T_graph_indicator.txt").write_text(TU["graph_indicator"])
    assert main(["convert-tu", "--raw", str(tmp_path), "--name", "T",
                 "--out", str(tmp_path / "out")]) == 2
    assert ("T_A.txt:2: edge crosses graph boundary: node 2 is in graph 1, node 4 in "
            "graph 2") in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the pickled planetoid bundle under `vepm convert-planetoid`: 12 nodes, the
# last 3 the published test ids, 4 training nodes and 5 features


def _stored_csr(dense):
    """`dense` as a scipy CSR matrix that stores its -0.0 entries too."""
    rows, cols = np.nonzero((dense != 0) | np.signbit(dense))
    return sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=dense.shape)


def _planetoid_bundle(raw):
    """Write a miniature ind.tiny.* bundle; returns its dense features and
    one-hot labels, in node order."""
    rng = np.random.default_rng(0)
    n, n_train, n_feat = 12, 4, 5
    x_all = rng.random((n, n_feat)) * (rng.random((n, n_feat)) < 0.5)
    x_all[1, 2] = -0.0
    y_all = np.eye(2)[rng.integers(0, 2, n)]
    test_idx = np.array([9, 11, 10])
    parts = {"x": _stored_csr(x_all[:n_train]), "y": y_all[:n_train],
             "allx": _stored_csr(x_all[:9]), "ally": y_all[:9],
             "tx": _stored_csr(x_all[test_idx]), "ty": y_all[test_idx],
             "graph": {i: [int(j) for j in rng.integers(0, n, 2)] for i in range(n)}}
    for suffix, obj in parts.items():
        with open(os.path.join(raw, f"ind.tiny.{suffix}"), "wb") as fh:
            pickle.dump(obj, fh)
    with open(os.path.join(raw, "ind.tiny.test.index"), "w") as fh:
        fh.write("".join(f"{i}\n" for i in test_idx))
    return x_all, y_all


def _truncate(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2])


def _pickle_of(obj):
    def corrupt(path):
        with open(path, "wb") as fh:
            pickle.dump(obj, fh)
    return corrupt


def _planetoid_refusals():
    """(file, class, corrupt) for the planetoid files; corrupt rewrites the
    file at the path it is given, or None deletes it."""
    cases = []
    for suffix in ("x", "tx", "allx", "y", "ty", "ally", "graph"):
        cases += [(suffix, "missing", None), (suffix, "truncated", _truncate),
                  (suffix, "wrong-type", _pickle_of("not a matrix")),
                  (suffix, "not-a-pickle", _replace_bytes(b"1,2,3\n"))]
    cases += [("x", "one-dimensional", _pickle_of(np.ones(4))),
              ("y", "sparse-labels", _pickle_of(sp.csr_matrix(np.eye(2)))),
              ("ty", "short", _pickle_of(np.eye(2))),
              ("tx", "narrow", _pickle_of(sp.csr_matrix(np.ones((3, 4))))),
              ("graph", "node-out-of-range", _pickle_of({0: [12]})),
              ("graph", "neighbours-not-a-list", _pickle_of({0: 3})),
              ("test.index", "missing", None),
              ("test.index", "non-numeric", _replace_bytes(b"9\nx\n10\n")),
              ("test.index", "out-of-range", _replace_bytes(b"9\n12\n10\n")),
              ("test.index", "short", _replace_bytes(b"9\n11\n"))]
    return cases


def _replace_bytes(data):
    def corrupt(path):
        with open(path, "wb") as fh:
            fh.write(data)
    return corrupt


PLANETOID_REFUSALS = _planetoid_refusals()


@pytest.mark.parametrize("suffix,cls,corrupt", PLANETOID_REFUSALS,
                         ids=[f"{c[0]}-{c[1]}" for c in PLANETOID_REFUSALS])
def test_convert_planetoid_refusal_names_the_file(tmp_path, capsys, suffix, cls, corrupt):
    _planetoid_bundle(str(tmp_path))
    path = os.path.join(str(tmp_path), f"ind.tiny.{suffix}")
    if corrupt is None:
        os.remove(path)
    else:
        corrupt(path)
    assert main(["convert-planetoid", "--raw", str(tmp_path), "--name", "tiny",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "VEPM-ERROR kind=config" in err and path in err, err
    assert not os.path.exists(tmp_path / "out")


def test_convert_planetoid_keeps_the_features_sparse_and_exact(tmp_path):
    x_all, y_all = _planetoid_bundle(str(tmp_path))
    out = str(tmp_path / "out")
    graph = convert_planetoid(str(tmp_path), "tiny", out)
    assert isinstance(graph.features, SparseMatrix)
    # the pickled matrices hold every row in node order, test rows included
    _assert_bit_identical(graph.features.to_dense(), x_all)
    _assert_bit_identical(load_node_dataset(out).features.to_dense(), x_all)
    np.testing.assert_array_equal(graph.labels, np.argmax(y_all, axis=1))


# ---------------------------------------------------------------------------
# no loader allocates N x F


def test_loading_never_allocates_the_dense_feature_matrix(tmp_path):
    # 50,000 x 50,000 would be 20 GB dense
    n = 50_000
    data, _cfg = _write_dataset(str(tmp_path), "node", {
        "edges.csv": "0,1\n1,2\n49998,49999\n",
        "features.csv": f"{n},{n}\n0,0,1.0\n7,49999,-0.0\n49999,3,2.5\n",
        "labels.csv": "0\n1\n" * (n // 2)})
    tracemalloc.start()
    try:
        prep = prepare_node_graph(load_node_dataset(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prep.graph.features.shape == (n, n) and prep.graph.features.nnz == 3
    # a few arrays of N ints: about 6 MB measured
    assert peak < 16 * 2**20, peak


# ---------------------------------------------------------------------------
# accepted by design: (kind, files replaced, README sentence)

ACCEPTED = {
    "header-only-features": (
        "node", {"features.csv": "5,3\n"},
        "A `features.csv` that holds its header alone loads as all-zero features."),
    "entries-in-any-order-and-explicit-zero": (
        "node", {"features.csv": "5,3\n3,0,4.0\n0,0,1.0\n2,1,-2.0\n4,2,0.0\n1,2,0.5\n"},
        "Entries may come in any order, and an entry may list the value 0."),
    "node-with-no-edges": (
        "node", {"edges.csv": "0,1\n1,2\n2,3\n"},
        "A node with no edges, and an `edges.csv` with no line at all, load."),
    "no-edges": (
        "node", {"edges.csv": ""},
        "A node with no edges, and an `edges.csv` with no line at all, load."),
    "no-validation-node": (
        "node", {"masks.csv": "1,0,0\n0,0,1\n0,0,1\n1,0,0\n0,0,1\n"},
        "A `masks.csv` with no validation node trains every finetune epoch"),
    "directed-duplicate-and-self-loop-edges": (
        "node", {"edges.csv": "1,0\n0,1\n1,2\n2,3\n3,3\n3,4\n"},
        "a self-loop line such as `3,3` is dropped"),
    "blank-and-whitespace-lines": (
        "node", {"features.csv": "\n 5,3\n\n0,0,1.0\n \t\n1,2,0.5\n2,1,-2.0\n3,0,4.0",
                 "labels.csv": "0\n1\n\n0\n1\n0\n  \n"},
        "Blank and whitespace-only lines are skipped."),
    "one-node-graph": (
        "graph", {"edges.csv": "0,1\n1,2\n", "graph_indicator.csv": "0\n0\n0\n1\n2\n2\n",
                  "labels.csv": "0\n1\n0\n", "features.csv": GRAPH["features.csv"]},
        "A graph collection may hold a graph of one node"),
    "collection-with-no-edges": (
        "graph", {"edges.csv": ""},
        "A node with no edges, and an `edges.csv` with no line at all, load."),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_accepted_by_design_trains(tmp_path, case):
    kind, replaced, sentence = ACCEPTED[case]
    with open(README, encoding="utf-8") as fh:
        readme = re.sub(r"\s+", " ", fh.read())
    assert sentence in readme
    data, cfg = _write_dataset(str(tmp_path), kind, dict(BASES[kind], **replaced))
    loaded = (load_node_dataset if kind == "node" else load_graph_dataset)(data)
    assert (loaded.n_nodes if kind == "node" else len(loaded)) > 0
    assert main(["train", "--config", cfg]) == 0
    with open(os.path.join(str(tmp_path), "out", "train_metrics.csv")) as fh:
        header, *rows = fh.read().split()
    for row in rows:
        values = dict(zip(header.split(","), row.split(",")))
        for term in ("l_task", "l_egen", "l_kl"):
            assert np.isfinite(float(values[term])), (term, row)


def test_header_only_features_are_all_zero(tmp_path):
    data, _cfg = _write_dataset(str(tmp_path), "node", dict(NODE, **{"features.csv": "5,3\n"}))
    graph = load_node_dataset(data)
    np.testing.assert_array_equal(graph.features.to_dense(), np.zeros((5, 3)))


def test_readme_recipe_rewrites_a_dense_file(tmp_path):
    """The README's recipe turns a dense features.csv into the sparse form
    with the same values."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    (recipe,) = [block for block in blocks if "features.csv" in block]
    files = dict(NODE, **{"features.csv": _dense(NODE["features.csv"])})
    data, _cfg = _write_dataset(str(tmp_path), "node", files)
    cwd = os.getcwd()
    try:
        os.chdir(data)
        exec(recipe, {})
    finally:
        os.chdir(cwd)
    expected = np.zeros((5, 3))
    expected[[0, 1, 2, 3], [0, 2, 1, 0]] = [1.0, 0.5, -2.0, 4.0]
    np.testing.assert_array_equal(load_node_dataset(data).features.to_dense(), expected)


# ---------------------------------------------------------------------------
# round trips

# -0.0, subnormals, an all-zero row (1) and a trailing all-zero column (4)
AWKWARD = np.array([[-0.0, 5e-324, 0.0, 0.1, 0.0],
                    [0.0, 0.0, 0.0, 0.0, 0.0],
                    [1.5, -2.5e-308, -0.0, 1.7976931348623157e308, 0.0],
                    [0.0, 2.0 ** -1074, 1.0 / 3.0, -np.pi, 0.0]])


def _assert_bit_identical(a, b):
    assert a.dtype == np.float64 and a.shape == b.shape
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


class TestRoundTrip:
    def test_node_dataset(self, tmp_path):
        adj = adjacency_from_edges(4, np.array([[0, 2], [2, 3]]))
        graph = Graph(adjacency=adj, features=AWKWARD, labels=np.array([0, 1, 0, 1]))
        path = str(tmp_path / "node")
        save_node_dataset(path, graph)
        _assert_bit_identical(load_node_dataset(path).features.to_dense(), AWKWARD)

    def test_graph_collection(self, tmp_path):
        graphs = [Graph(adjacency=adjacency_from_edges(2, np.array([[0, 1]])),
                        features=AWKWARD[lo:lo + 2]) for lo in (0, 2)]
        path = str(tmp_path / "coll")
        save_graph_dataset(path, GraphCollection(graphs=graphs, graph_labels=[1, 0]))
        loaded = load_graph_dataset(path)
        for graph, lo in zip(loaded.graphs, (0, 2)):
            _assert_bit_identical(graph.features.to_dense(), AWKWARD[lo:lo + 2])

    def test_writer_lists_nonzero_and_negative_zero_entries_in_row_major_order(self, tmp_path):
        adj = adjacency_from_edges(4, np.array([[0, 2]]))
        path = str(tmp_path / "node")
        save_node_dataset(path, Graph(adjacency=adj, features=AWKWARD))
        with open(os.path.join(path, "features.csv")) as fh:
            lines = fh.read().split("\n")
        assert lines[0] == "4,5" and lines[-1] == ""
        listed = [tuple(map(int, line.split(",")[:2])) for line in lines[1:-1]]
        stored = (AWKWARD != 0) | np.signbit(AWKWARD)
        assert listed == [tuple(ij) for ij in np.argwhere(stored).tolist()]

    def test_entries_out_of_order_with_an_explicit_zero(self, tmp_path):
        adj = adjacency_from_edges(4, np.array([[0, 2]]))
        path = str(tmp_path / "node")
        save_node_dataset(path, Graph(adjacency=adj, features=AWKWARD))
        feats = os.path.join(path, "features.csv")
        with open(feats) as fh:
            head, *entries = fh.read().split("\n")[:-1]
        with open(feats, "w") as fh:
            fh.write("\n".join([head, "1,3,0.0"] + entries[::-1]) + "\n")
        _assert_bit_identical(load_node_dataset(path).features.to_dense(), AWKWARD)

    def test_synth_writes_one_line_per_node_after_the_header(self, tmp_path):
        out = str(tmp_path / "synth")
        assert main(["synth", "--n", "300", "--c", "2", "--gamma", "0.001,0.001",
                     "--seed", "1", "--out", out]) == 0
        with open(os.path.join(out, "features.csv")) as fh:
            lines = fh.read().split("\n")
        assert len(lines) == 302 and lines[0] == "300,300" and lines[-1] == ""
        np.testing.assert_array_equal(load_node_dataset(out).features.to_dense(), np.eye(300))

    def test_convert_tu_output_loads(self, tmp_path):
        raw = tmp_path / "turaw"
        raw.mkdir()
        (raw / "TOY_A.txt").write_text("1, 2\n2, 1\n2, 3\n3, 2\n4, 5\n5, 4\n")
        (raw / "TOY_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
        (raw / "TOY_graph_labels.txt").write_text("1\n-1\n")
        (raw / "TOY_node_labels.txt").write_text("3\n7\n3\n5\n3\n")
        out = str(tmp_path / "tu")
        converted = convert_tu(str(raw), "TOY", out)
        loaded = load_graph_dataset(out)
        np.testing.assert_array_equal(loaded.graph_labels, converted.graph_labels)
        for a, b in zip(loaded.graphs, converted.graphs):
            _assert_bit_identical(a.features.to_dense(), b.features.to_dense())
            np.testing.assert_array_equal(a.adjacency.cols, b.adjacency.cols)
