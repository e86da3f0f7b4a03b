import os
import subprocess
import sys
import time

import numpy as np
import pytest

import reference
from conftest import require_dataset
from vepm import graphs
from vepm.graphs import (
    DatasetError,
    Graph,
    batch_graphs,
    kfold_split,
    load_graph_dataset,
    load_node_dataset,
    sample_epm_graph,
    save_graph_dataset,
    save_node_dataset,
    split_graphs,
)
from vepm.model import prepare_node_graph
from vepm.sparse import SparseMatrix, adjacency_from_edges
from conftest import synthetic_collection


class TestSyntheticGenerator:
    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(DatasetError):
            sample_epm_graph(10, 2, 1.0, 1.0, np.array([0.0, 1.0]), seed=0)
        with pytest.raises(DatasetError):
            sample_epm_graph(10, 2, -1.0, 1.0, np.array([1.0, 1.0]), seed=0)

    def test_zero_affiliations_give_empty_edge_set(self):
        graph, _ = sample_epm_graph(12, 3, 1.0, 1.0, np.ones(3), seed=1,
                                    z_override=np.zeros((12, 3)))
        assert graph.n_edges == 0

    def test_edge_probability_closed_form(self):
        # a pair with total rate ln 2 connects with probability one half
        rate = np.log(2.0)
        assert abs((1 - np.exp(-rate)) - 0.5) < 1e-15

    def test_reproducible_given_seed(self):
        g1, p1 = sample_epm_graph(40, 4, 1.0, 1.0, np.full(4, 0.01), seed=9)
        g2, p2 = sample_epm_graph(40, 4, 1.0, 1.0, np.full(4, 0.01), seed=9)
        np.testing.assert_array_equal(g1.adjacency.rows, g2.adjacency.rows)
        np.testing.assert_array_equal(p1.z_true, p2.z_true)

    def test_hard_labels_are_argmax(self):
        _, planted = sample_epm_graph(30, 3, 1.0, 1.0, np.full(3, 0.02), seed=2)
        np.testing.assert_array_equal(planted.hard_labels,
                                      np.argmax(planted.z_true, axis=1))

    def test_one_hot_default_features(self):
        graph, _ = sample_epm_graph(15, 2, 1.0, 1.0, np.full(2, 0.01), seed=3)
        np.testing.assert_array_equal(graph.features.to_dense(), np.eye(15))

    def test_empirical_edge_frequency_matches_rates(self):
        # fixed affiliations injected; resample the graph many times and
        # compare per-pair frequencies against 1 - exp(-rate)
        n, c = 6, 2
        rng = np.random.default_rng(0)
        z = rng.gamma(1.0, 1.0, (n, c)) + 0.3
        gamma = np.array([0.4, 0.7])
        p_true = 1.0 - np.exp(-((z * gamma) @ z.T))
        trials = 10_000
        counts = np.zeros((n, n))
        for t in range(trials):
            g, _ = sample_epm_graph(n, c, 1.0, 1.0, gamma, seed=t, z_override=z)
            counts[g.adjacency.rows, g.adjacency.cols] += 1
        for i in range(n):
            for j in range(i + 1, n):
                p = p_true[i, j]
                se = max(np.sqrt(p * (1 - p) / trials), 1e-4)
                assert abs(counts[i, j] / trials - p) < 3 * se + 1e-9, (i, j)

    def test_pair_frequencies_match_the_dense_rule(self):
        # 7 nodes, z drawn with a within-block boost: each pair's hit count
        # over the seeds against the sum of its per-seed dense-rule
        # probabilities, within 4 standard deviations of that sum
        n, c, trials = 7, 2, 4000
        gamma = np.array([0.3, 0.5])
        hits, expected, variance = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
        for t in range(trials):
            g, planted = sample_epm_graph(n, c, 1.0, 2.0, gamma, seed=t, within_boost=0.8)
            hits[g.adjacency.rows, g.adjacency.cols] += 1
            p = reference.epm_edge_probability(planted.z_true, gamma)
            expected += p
            variance += p * (1 - p)
        _, z_dense = reference.sample_epm_graph_dense(n, c, 1.0, 2.0, gamma, seed=trials - 1,
                                                      within_boost=0.8)
        np.testing.assert_array_equal(z_dense, planted.z_true)
        iu, ju = np.triu_indices(n, k=1)
        assert np.all(np.abs(hits - expected)[iu, ju] < 4 * np.sqrt(variance[iu, ju]))

    def test_edge_count_and_within_block_fraction_match_the_dense_rule(self):
        # the planted-200 shape, 100 seeds of each rule: the means agree
        # within 3 standard errors of their difference
        n, c, gamma, boost, trials = 200, 4, np.full(4, 8e-4), 30.0, 100
        blocks = (np.arange(n) * c) // n

        def stats(adjacency):
            upper = adjacency.rows < adjacency.cols
            rows, cols = adjacency.rows[upper], adjacency.cols[upper]
            return rows.size, np.mean(blocks[rows] == blocks[cols])

        drawn = np.array([stats(sample_epm_graph(n, c, 1.0, 1.0, gamma, seed=s,
                                                 within_boost=boost)[0].adjacency)
                          for s in range(trials)])
        dense = np.array([stats(reference.sample_epm_graph_dense(
            n, c, 1.0, 1.0, gamma, seed=s, within_boost=boost)[0]) for s in range(trials)])
        se = np.sqrt(drawn.var(axis=0, ddof=1) / trials + dense.var(axis=0, ddof=1) / trials)
        assert np.all(np.abs(drawn.mean(axis=0) - dense.mean(axis=0)) < 3 * se), (
            drawn.mean(axis=0), dense.mean(axis=0), se)

    def test_saturated_rates_give_the_complete_graph_quickly(self):
        # every pair's rate is at least 50 * 0.5: about 720k draws for 435 pairs
        t0 = time.perf_counter()
        graph, _ = sample_epm_graph(30, 2, 4.0, 1.0, np.full(2, 50.0), seed=0)
        assert graph.n_edges == 30 * 29 // 2
        assert time.perf_counter() - t0 < 2.0

    def test_graph_does_not_depend_on_the_chunk_size(self, monkeypatch):
        # about 20k draws over 780 pairs, merged every 64 pairs
        expected, _ = sample_epm_graph(40, 3, 1.0, 1.0, np.full(3, 10.0), seed=4)
        monkeypatch.setattr(graphs, "_PAIR_CHUNK", 64)
        graph, _ = sample_epm_graph(40, 3, 1.0, 1.0, np.full(3, 10.0), seed=4)
        assert 0 < graph.n_edges < 40 * 39 // 2
        np.testing.assert_array_equal(graph.adjacency.rows, expected.adjacency.rows)
        np.testing.assert_array_equal(graph.adjacency.cols, expected.adjacency.cols)

    @pytest.mark.skipif(not os.path.isfile("/proc/self/status"),
                        reason="needs /proc/self/status to read the peak resident size")
    def test_twenty_thousand_nodes_in_linear_memory(self):
        # a child's own VmHWM: its ru_maxrss would start at pytest's peak.
        # About 51k edges; 66 MB measured (2-core x86-64, numpy 2.4), where
        # one N x N float matrix alone is 3.2 GB.
        code = (
            "import numpy as np\n"
            "from vepm.graphs import sample_epm_graph\n"
            "n = 20000\n"
            "g, _ = sample_epm_graph(n, 7, 1.0, 1.0, np.full(7, 6e-6 * 2708 / n), 7,\n"
            "                        within_boost=40.0, features=np.zeros((n, 1)))\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "print(g.n_edges, int(status.split()[0]) / 1024)\n")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        edges, peak_mb = proc.stdout.split()
        assert 40_000 < int(edges) < 60_000
        assert float(peak_mb) < 128, peak_mb

    @pytest.mark.skipif(not os.path.isfile("/proc/self/status"),
                        reason="needs /proc/self/status to read the peak resident size")
    def test_twenty_thousand_node_synth_then_train_in_linear_memory(self):
        # default identity features, saved, loaded, then one pretrain and one
        # finetune epoch of the cora-shaped model in a child, whose own
        # VmHWM is read. 496 MB and about 3 s measured (2-core x86-64,
        # numpy 2.4); the dense identity alone would be 3.2 GB.
        code = (
            "import tempfile, time\n"
            "import numpy as np\n"
            "from vepm import graphs, model, training\n"
            "t0 = time.perf_counter()\n"
            "n = 20000\n"
            "g, _ = graphs.sample_epm_graph(n, 7, 1.0, 1.0, np.full(7, 6e-6 * 2708 / n), 7,\n"
            "                               within_boost=40.0)\n"
            "g.train_mask, g.val_mask, g.test_mask = (np.arange(n) % 10 == r for r in range(3))\n"
            "with tempfile.TemporaryDirectory() as d:\n"
            "    graphs.save_node_dataset(d, g)\n"
            "    g = graphs.load_node_dataset(d)\n"
            "cfg = model.ModelConfig(n_metacommunities=4, communities_per_block=4,\n"
            "                        hidden_dim=64, mc_samples=4)\n"
            "tcfg = training.TrainConfig(pretrain_epochs=1, finetune_epochs=1)\n"
            "prep = model.prepare_node_graph(g)\n"
            "store = model.init_params(cfg, g.n_features, g.n_classes(), 7, 'node')\n"
            "training.pretrain(prep, store, cfg, tcfg, seed=7)\n"
            "training.finetune(prep, store, cfg, tcfg, seed=7)\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "print(g.n_features, g.features.nnz, time.perf_counter() - t0,\n"
            "      int(status.split()[0]) / 1024)\n")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        n_features, stored, seconds, peak_mb = proc.stdout.split()
        assert int(n_features) == int(stored) == 20000
        assert float(seconds) < 60, seconds
        assert float(peak_mb) < 1024, peak_mb

    @pytest.mark.parametrize("kwargs,message", [
        (dict(alpha=float("nan")), "alpha and beta"),
        (dict(beta=float("inf")), "alpha and beta"),
        (dict(gamma=np.array([float("nan"), 0.1])), "gamma entries"),
        (dict(gamma=np.array([0.1, float("inf")])), "gamma entries"),
        (dict(within_boost=float("nan")), "within_boost"),
        (dict(within_boost=float("inf")), "within_boost"),
        (dict(z_override=np.full((10, 2), float("nan"))), "z_override"),
        (dict(z_override=np.full((10, 2), float("inf"))), "z_override"),
        # 5e19 draws in each community, past the largest Poisson mean
        (dict(z_override=np.full((10, 2), 1e9)), "pair draws"),
        (dict(gamma=np.array([1e300, 0.1])), "pair draws"),
    ], ids=["alpha-nan", "beta-inf", "gamma-nan", "gamma-inf", "boost-nan", "boost-inf",
            "z-nan", "z-inf", "draws-past-poisson", "draws-overflow"])
    def test_non_finite_or_unbounded_input_rejected(self, kwargs, message):
        args = dict(n=10, c=2, alpha=1.0, beta=1.0, gamma=np.array([0.1, 0.1]), seed=0)
        with pytest.raises(DatasetError, match=message):
            sample_epm_graph(**dict(args, **kwargs))


class TestFeatures:
    def test_dense_features_are_stored_once_as_csr(self):
        dense = np.array([[0.0, -0.0, 2.0], [0.0, 0.0, 0.0], [-1.5, 0.0, 0.0]])
        graph = Graph(adjacency=adjacency_from_edges(3, np.array([[0, 1]])), features=dense)
        assert isinstance(graph.features, SparseMatrix)
        # every entry that is nonzero or -0.0; the explicit +0.0 is dropped
        np.testing.assert_array_equal(graph.features.rows, [0, 0, 2])
        np.testing.assert_array_equal(graph.features.cols, [1, 2, 0])
        assert graph.n_features == 3
        again = Graph(adjacency=graph.adjacency, features=graph.features)
        assert again.features is graph.features
        graph.labels = np.array([0, 1, 0])
        assert prepare_node_graph(graph).graph.features is graph.features

    def test_feature_rows_must_match_the_adjacency(self):
        adj = adjacency_from_edges(3, np.array([[0, 1]]))
        with pytest.raises(DatasetError, match="feature rows"):
            Graph(adjacency=adj, features=SparseMatrix(4, 1, np.arange(4), np.zeros(4),
                                                       np.ones(4)))
        with pytest.raises(DatasetError, match="2-D"):
            Graph(adjacency=adj, features=np.ones(3))

    def test_batch_stacks_the_feature_rows(self):
        coll = synthetic_collection(n_graphs=5, seed=6)
        union, _gids, _labels = batch_graphs(coll, np.array([3, 0, 4]))
        expected = np.concatenate([coll.graphs[g].features.to_dense() for g in (3, 0, 4)])
        np.testing.assert_array_equal(union.features.to_dense(), expected)


class TestDatasetIO:
    def test_node_round_trip_exact(self, tmp_path):
        graph, _ = sample_epm_graph(25, 3, 1.0, 1.0, np.full(3, 0.02), seed=5,
                                    features=np.random.default_rng(1).random((25, 4)))
        n = graph.n_nodes
        graph.train_mask = np.zeros(n, bool)
        graph.train_mask[:8] = True
        graph.val_mask = np.zeros(n, bool)
        graph.val_mask[8:14] = True
        graph.test_mask = np.zeros(n, bool)
        graph.test_mask[14:] = True
        path = str(tmp_path / "ds")
        save_node_dataset(path, graph)
        loaded = load_node_dataset(path)
        np.testing.assert_array_equal(loaded.adjacency.rows, graph.adjacency.rows)
        np.testing.assert_array_equal(loaded.adjacency.cols, graph.adjacency.cols)
        np.testing.assert_array_equal(loaded.features.to_dense(), graph.features.to_dense())
        np.testing.assert_array_equal(loaded.labels, graph.labels)
        np.testing.assert_array_equal(loaded.train_mask, graph.train_mask)

    def test_awkward_floats_round_trip_exact(self, tmp_path):
        feats = np.array([[-0.0, 1e-300, -2.5e-308, 123456789.123456789],
                          [np.pi, -np.e, 5e-324, 1.7976931348623157e308],
                          [0.1, -0.3, 1.0 / 3.0, 2.0 ** -52]])
        adj = adjacency_from_edges(3, np.array([[0, 2], [1, 2]]))
        graph = Graph(adjacency=adj, features=feats, labels=np.array([2, 0, 1]))
        path = str(tmp_path / "awk")
        save_node_dataset(path, graph)
        loaded = load_node_dataset(path)
        assert loaded.features.to_dense().dtype == np.float64
        np.testing.assert_array_equal(loaded.features.to_dense(), feats)
        np.testing.assert_array_equal(np.signbit(loaded.features.to_dense()), np.signbit(feats))
        np.testing.assert_array_equal(loaded.labels, graph.labels)
        assert loaded.labels.dtype == np.int64
        np.testing.assert_array_equal(loaded.adjacency.cols, adj.cols)

    def test_graph_collection_round_trip(self, tmp_path):
        coll = synthetic_collection(n_graphs=6, seed=2)
        path = str(tmp_path / "gc")
        save_graph_dataset(path, coll)
        loaded = load_graph_dataset(path)
        assert len(loaded) == 6
        np.testing.assert_array_equal(loaded.graph_labels, coll.graph_labels)
        for a, b in zip(loaded.graphs, coll.graphs):
            np.testing.assert_array_equal(a.adjacency.rows, b.adjacency.rows)
            np.testing.assert_array_equal(a.features.to_dense(), b.features.to_dense())

    def test_directed_input_symmetrized_and_deduplicated(self, tmp_path):
        path = tmp_path / "dir"
        path.mkdir()
        (path / "edges.csv").write_text("0,1\n1,0\n0,1\n")
        (path / "features.csv").write_text("3,1\n0,0,1.0\n1,0,2.0\n2,0,3.0\n")
        (path / "labels.csv").write_text("0\n1\n0\n")
        graph = load_node_dataset(str(path))
        assert graph.n_edges == 1

    def test_feature_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.mkdir()
        (path / "edges.csv").write_text("0,5\n")
        (path / "features.csv").write_text("2,1\n0,0,1.0\n1,0,2.0\n")
        (path / "labels.csv").write_text("0\n1\n")
        with pytest.raises(DatasetError, match="out of range"):
            load_node_dataset(str(path))

    @staticmethod
    def _write(tmp_path, edges="0,1\n1,2\n",
               features="3,2\n0,0,1.0\n0,1,2.0\n1,0,3.0\n1,1,4.0\n2,0,5.0\n2,1,6.0\n",
               labels="0\n1\n0\n"):
        path = tmp_path / "ds"
        path.mkdir(exist_ok=True)
        (path / "edges.csv").write_text(edges)
        (path / "features.csv").write_text(features)
        (path / "labels.csv").write_text(labels)
        return str(path)

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = self._write(tmp_path, edges="\n0,1\n  \n1,2\n\t\n",
                           features="\n 3,2 \n\n0,0,1.0\n 0 , 1 , 2.0 \n   \n1,0,3.0\n1,1, 4.0\n\t\n2,0,5.0\n2,1,6.0",
                           labels="0\n\n1\r\n0\n \n")
        graph = load_node_dataset(path)
        np.testing.assert_array_equal(graph.features.to_dense(), [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_array_equal(graph.labels, [0, 1, 0])
        assert graph.n_edges == 2

    def test_ragged_feature_row_names_its_line(self, tmp_path):
        path = self._write(tmp_path, features="3,2\n\n0,1\n2,1,6.0\n")
        with pytest.raises(DatasetError,
                           match=r"features\.csv:3: expected 3 fields: node,feature,value$"):
            load_node_dataset(path)

    def test_wrong_field_count_names_its_line(self, tmp_path):
        path = self._write(tmp_path, edges="0,1\n  \n1,2,0\n")
        with pytest.raises(DatasetError, match=r"edges\.csv:3: expected 2 fields"):
            load_node_dataset(path)
        path = self._write(tmp_path, edges="0,1\n", labels="0\n1,1\n0\n")
        with pytest.raises(DatasetError, match=r"labels\.csv:2: expected 1 fields"):
            load_node_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_its_line(self, tmp_path, cell):
        path = self._write(tmp_path, features=f"3,2\n\n1,1,{cell}\n2,0,5.0\n")
        with pytest.raises(DatasetError, match=r"features\.csv:3: non-finite feature value"):
            load_node_dataset(path)

    @pytest.mark.parametrize("masks,line", [("1,0,0\n2,0,0\n0,0,1\n", 2),
                                            ("1,0,0\n\n0,1,0\n-1,0,1\n", 4)])
    def test_mask_value_other_than_0_or_1_names_its_line(self, tmp_path, masks, line):
        path = self._write(tmp_path)
        (tmp_path / "ds" / "masks.csv").write_text(masks)
        with pytest.raises(DatasetError, match=rf"masks\.csv:{line}: mask values must be 0 or 1"):
            load_node_dataset(path)

    @pytest.mark.parametrize("features", ["", "\n  \n\t\n"])
    def test_empty_feature_file_rejected(self, tmp_path, features):
        path = self._write(tmp_path, features=features)
        with pytest.raises(DatasetError, match="empty feature file"):
            load_node_dataset(path)

    @pytest.mark.parametrize("field", ["x", "", "0x10", "#1"])
    def test_non_numeric_feature_is_a_value_error(self, tmp_path, field):
        # '#' is data like any other character, not the start of a comment
        path = self._write(tmp_path, features=f"3,2\n\n{field},1,4.0\n2,0,5.0\n")
        with pytest.raises(ValueError, match=r"features\.csv:3: .* in field 1$") as info:
            load_node_dataset(path)
        assert isinstance(info.value, DatasetError)

    @pytest.mark.parametrize("edges", ["0,1\n1,x\n", "0,1\n1.5,2\n", "# 0,1\n1,2\n"])
    def test_non_integer_edge_is_a_value_error(self, tmp_path, edges):
        line, field = {"0,1\n1,x\n": (2, 2), "0,1\n1.5,2\n": (2, 1),
                       "# 0,1\n1,2\n": (1, 1)}[edges]
        path = self._write(tmp_path, edges=edges)
        with pytest.raises(ValueError, match=rf"edges\.csv:{line}: .* in field {field}$") as info:
            load_node_dataset(path)
        assert isinstance(info.value, DatasetError)

    @pytest.mark.parametrize("name,text,line", [("labels.csv", "0\n\n1\nb\n", 4),
                                                ("masks.csv", "1,0,0\n0,1,0\n0,0,y\n", 3)])
    def test_non_integer_label_or_mask_names_its_line(self, tmp_path, name, text, line):
        path = self._write(tmp_path)
        (tmp_path / "ds" / name).write_text(text)
        with pytest.raises(DatasetError, match=rf"{name.replace('.', '[.]')}:{line}: "):
            load_node_dataset(path)

    def test_non_integer_graph_id_names_its_line(self, tmp_path):
        path = str(tmp_path / "gc")
        save_graph_dataset(path, synthetic_collection(n_graphs=2, seed=0))
        indicator = tmp_path / "gc" / "graph_indicator.csv"
        lines = indicator.read_text().split("\n")
        lines[6] = "0.0"
        indicator.write_text("\n".join(lines))
        with pytest.raises(DatasetError, match=r"graph_indicator\.csv:7: .* in field 1$"):
            load_graph_dataset(path)

    @pytest.mark.parametrize("edges,bad_id", [("0,1\n-1,2\n", -1), ("0,1\n1,3\n", 3)])
    def test_edge_range_error_names_the_bad_node(self, tmp_path, edges, bad_id):
        path = self._write(tmp_path, edges=edges)
        with pytest.raises(DatasetError, match=f"N=3, edges reference node {bad_id}$"):
            load_node_dataset(path)

    def test_graph_collection_with_blank_lines_loads(self, tmp_path):
        path = tmp_path / "gc"
        path.mkdir()
        (path / "edges.csv").write_text("\n0,1\n  \n2,3\n\t\n")
        (path / "features.csv").write_text("\n4,1\n0,0,1.0\n\n1,0,2.0\n \n2,0,3.0\n3,0,4.0\n\n")
        (path / "graph_indicator.csv").write_text("0\n \n0\n1\n\n1\n")
        (path / "labels.csv").write_text("\t\n1\n\n0\n  \n")
        coll = load_graph_dataset(str(path))
        np.testing.assert_array_equal(coll.graph_labels, [1, 0])
        for g, graph in enumerate(coll.graphs):
            assert graph.n_edges == 1
            np.testing.assert_array_equal(graph.features.to_dense()[:, 0], [2 * g + 1, 2 * g + 2])

    def test_negative_graph_label_rejected(self, tmp_path):
        path = str(tmp_path / "gc")
        save_graph_dataset(path, synthetic_collection(n_graphs=2, seed=0))
        (tmp_path / "gc" / "labels.csv").write_text("-1\n1\n")
        with pytest.raises(DatasetError, match="graph labels must be nonnegative"):
            load_graph_dataset(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="missing"):
            load_node_dataset(str(tmp_path / "nope"))

    def test_mask_overlap_rejected(self):
        adj = adjacency_from_edges(2, np.array([[0, 1]]))
        both = np.array([True, False])
        with pytest.raises(DatasetError, match="disjoint"):
            Graph(adjacency=adj, features=np.ones((2, 1)),
                  train_mask=both, val_mask=both)

    def test_cora_statistics_when_available(self):
        path = require_dataset("cora")
        graph = load_node_dataset(path)
        assert graph.n_nodes == 2708
        assert graph.n_edges == 5429
        assert graph.n_features == 1433
        assert graph.n_classes() == 7

    def test_mutag_statistics_when_available(self):
        path = require_dataset("mutag")
        coll = load_graph_dataset(path)
        assert len(coll) == 188
        assert coll.n_classes() == 2


def _split_per_graph(features, edges, indicator):
    """The reference split: one scan of every node and edge per graph."""
    graphs = []
    for g in range(indicator.max() + 1):
        node_ids = np.flatnonzero(indicator == g)
        local = -np.ones(indicator.size, dtype=np.int64)
        local[node_ids] = np.arange(node_ids.size)
        sub_edges = local[edges[indicator[edges[:, 0]] == g]]
        graphs.append((adjacency_from_edges(node_ids.size, sub_edges), features[node_ids]))
    return graphs


class TestSplitGraphs:
    def test_equals_the_per_graph_scan(self):
        rng = np.random.default_rng(4)
        # graph ids interleaved across the node order; graph 5 is one isolated node
        indicator = rng.integers(0, 5, 60)
        indicator[:6] = [4, 2, 0, 3, 1, 0]
        indicator[30] = 5
        edges = []
        for g in range(5):
            nodes = np.flatnonzero(indicator == g)
            edges.append(rng.choice(nodes, size=(3 * nodes.size, 2)))
        edges = np.concatenate(edges)
        # self-loops, duplicates and reversed duplicates
        edges = np.concatenate([edges, edges[:5, ::-1], edges[5:9], [[7, 7], [30, 30]]])
        edges = edges[rng.permutation(edges.shape[0])]
        features = rng.random((60, 3))
        coll = split_graphs(features, edges, indicator, np.arange(6) % 2)
        expected = _split_per_graph(features, edges, indicator)
        assert len(coll) == len(expected) == 6
        assert any(graph.n_edges == 0 for graph in coll.graphs)
        for graph, (adjacency, feats) in zip(coll.graphs, expected):
            assert graph.adjacency.shape == adjacency.shape
            for name in ("rows", "cols", "vals"):
                np.testing.assert_array_equal(getattr(graph.adjacency, name),
                                              getattr(adjacency, name))
            np.testing.assert_array_equal(graph.features.to_dense(), feats)

    @pytest.mark.parametrize("indicator,labels,message", [
        ([0, 0, 1], [0], "expected 2 graph labels, found 1"),
        ([0, 2, 2], [0, 1], "graph ids must be consecutive from 0"),
        ([1, 1, 2], [0, 1], "graph ids must be consecutive from 0"),
        ([0, 1, 1], [0, -2], "graph labels must be nonnegative"),
        ([0, 1], [0, 1], "one entry per node"),
    ])
    def test_bad_indicator_or_labels_rejected(self, indicator, labels, message):
        with pytest.raises(DatasetError, match=message):
            split_graphs(np.ones((3, 1)), np.zeros((0, 2), np.int64),
                         np.array(indicator), np.array(labels))

    def test_linear_in_graph_count(self):
        # 4000 paths of 15-35 nodes (100k nodes, 96k edges): one scan of
        # every node and edge per graph takes several times the bound
        rng = np.random.default_rng(0)
        sizes = rng.integers(15, 36, 4000)
        indicator = np.repeat(np.arange(sizes.size), sizes)
        chain = np.flatnonzero(indicator[1:] == indicator[:-1])
        edges = np.stack([chain, chain + 1], axis=1)
        features = np.ones((indicator.size, 2))
        labels = np.zeros(sizes.size, dtype=np.int64)
        timings = []
        for _ in range(3):
            t0 = time.perf_counter()
            coll = split_graphs(features, edges, indicator, labels)
            timings.append(time.perf_counter() - t0)
        assert len(coll) == 4000 and coll.graphs[-1].n_edges == sizes[-1] - 1
        assert np.median(timings) < 1.0


class TestKFold:
    def test_ten_of_ten_singletons(self):
        splits = kfold_split(10, 10, seed=0)
        assert all(len(test) == 1 for _, test in splits)

    def test_eleven_items_one_fold_of_two(self):
        sizes = sorted(len(test) for _, test in kfold_split(11, 10, seed=0))
        assert sizes == [1] * 9 + [2]

    def test_deterministic(self):
        a = kfold_split(30, 5, seed=4)
        b = kfold_split(30, 5, seed=4)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            np.testing.assert_array_equal(te1, te2)
            np.testing.assert_array_equal(tr1, tr2)

    def test_partition_property(self):
        splits = kfold_split(23, 4, seed=1)
        seen = np.concatenate([test for _, test in splits])
        np.testing.assert_array_equal(np.sort(seen), np.arange(23))
        for train, test in splits:
            assert not set(train) & set(test)

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(3, 4, seed=0)


def test_batch_graphs_offsets():
    coll = synthetic_collection(n_graphs=4, seed=1)
    union, gids, labels = batch_graphs(coll, np.array([1, 3]))
    assert union.n_nodes == coll.graphs[1].n_nodes + coll.graphs[3].n_nodes
    assert gids.max() == 1
    np.testing.assert_array_equal(labels, coll.graph_labels[[1, 3]])
    # no cross-graph edges
    assert union.n_edges == coll.graphs[1].n_edges + coll.graphs[3].n_edges
