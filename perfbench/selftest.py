"""Self-tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

Checks that the generators are deterministic, that the tracer wraps every
binding of a traced function and restores all of them, that self time is
right on a hand-built span tree, and that BENCHMARK.json names exactly the
metrics the benchmark reports.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import vepm  # noqa: E402
from vepm import diffmath, evaluation, graphs, model, rng, sparse, training  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from measure import Recorder  # noqa: E402
from tracing import CALLS, OPS, Tracer, self_times, summarize_window  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")


def _package_bindings() -> dict:
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if mod is not None and (name == "vepm" or name.startswith("vepm."))
            for attr, value in vars(mod).items()}


def _same_tree(a: str, b: str) -> bool:
    files = sorted(os.listdir(a))
    if files != sorted(os.listdir(b)):
        return False
    return all(filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)
               for f in files)


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(WORK, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass  # a benchmark run still uses it

    def test_same_seed_same_files_other_seed_other_files(self):
        for name, w in WORKLOADS.items():
            with self.subTest(workload=name):
                paths = [os.path.join(WORK, f"{name}-{i}") for i in range(3)]
                w.generate(7, paths[0])
                w.generate(7, paths[1])
                w.generate(8, paths[2])
                self.assertTrue(_same_tree(paths[0], paths[1]))
                self.assertFalse(_same_tree(paths[0], paths[2]))


class TracerTest(unittest.TestCase):
    def test_install_wraps_every_binding_and_uninstall_restores_all(self):
        before = _package_bindings()
        originals = {"backward": diffmath.backward,
                     "encode": model.encode_communities,
                     "substream": rng.substream,
                     "normalize": sparse.normalize_adjacency,
                     "matmul_dense": vars(sparse.SparseMatrix)["matmul_dense"],
                     "node_init": vars(diffmath.Node)["__init__"]}
        wrapped_originals = [getattr(diffmath, f) for f in OPS]
        for mod_name, attr, _span in CALLS:
            if "." not in attr:
                wrapped_originals.append(getattr(sys.modules[f"vepm.{mod_name}"], attr))
        with Tracer():
            self.assertIs(training.backward, diffmath.backward)
            self.assertIsNot(training.backward, originals["backward"])
            self.assertIs(training.encode_communities, model.encode_communities)
            self.assertIsNot(training.encode_communities, originals["encode"])
            for mod in (rng, graphs, model, training, diffmath, evaluation):
                self.assertIsNot(mod.substream, originals["substream"], mod.__name__)
            self.assertIsNot(vars(sparse.SparseMatrix)["matmul_dense"],
                             originals["matmul_dense"])
            self.assertIsNot(vars(diffmath.Node)["__init__"], originals["node_init"])
            self.assertIs(vepm.normalize_adjacency, sparse.normalize_adjacency)
            self.assertIsNot(vepm.normalize_adjacency, originals["normalize"])
            # no module-level name anywhere in the package still binds an original
            ids = {id(f) for f in wrapped_originals}
            stale = [key for key, value in _package_bindings().items()
                     if id(value) in ids]
            self.assertEqual(stale, [])
        self.assertIs(training.backward, diffmath.backward)
        self.assertIs(training.backward, originals["backward"])
        self.assertIs(vars(sparse.SparseMatrix)["matmul_dense"],
                      originals["matmul_dense"])
        self.assertIs(vars(diffmath.Node)["__init__"], originals["node_init"])
        after = _package_bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_traced_training_reports_phases_and_counts(self):
        graph, _ = graphs.sample_epm_graph(40, 2, 1.0, 1.0, np.full(2, 0.01), seed=3,
                                           within_boost=10.0)
        graph.train_mask = np.arange(40) % 2 == 0
        graph.val_mask = ~graph.train_mask
        cfg = model.ModelConfig(n_metacommunities=2, communities_per_block=1,
                                encoder_layers=1, hidden_dim=8)
        tcfg = training.TrainConfig(pretrain_epochs=3, finetune_epochs=2,
                                    inner_steps=2, patience=10)
        rec = Recorder(tcfg.inner_steps)
        with Tracer() as tracer:
            rec.node_counter = tracer
            prep = model.prepare_node_graph(graph)
            store = model.init_params(cfg, graph.n_features, 2, 0, "node")
            rec.run_pretrain(training.pretrain, prep, store, cfg, tcfg)
            rec.run_finetune(training.finetune, prep, store, cfg, tcfg)
            window = summarize_window(tracer)
        calls = window["calls"]
        self.assertEqual(calls["training.pretrain"], 1)
        self.assertEqual(calls["training.finetune"], 1)
        # one update per pretrain epoch, M theta and one phi per finetune epoch
        self.assertEqual(calls["training.adam"], 3 + 2 * (2 + 1))
        self.assertEqual(calls["diffmath.backward"], 3 + 2 * (2 + 1))
        self.assertGreater(calls["diffmath.op.matmul.bwd"], 0)
        self.assertEqual(window["finetune_encoder_calls"], 2 * 3)
        for phase in ("pretrain", "theta", "phi"):
            self.assertGreater(window["backward_ms"][phase], 0.0, phase)
        self.assertEqual(rec.failed, 0)
        self.assertEqual(len(rec.theta_nodes), 2 * (2 - 1))
        self.assertEqual(len(set(rec.theta_nodes)), 1)
        self.assertGreater(rec.theta_nodes[0], 0)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        #  0 [0, 10]
        #  +- 1 [1, 4]
        #  |  +- 3 [2, 3]
        #  +- 2 [3.5, 6]   overlaps 1 by 0.5
        #  +- 4 [9, 12]    sticks out of 0 by 2
        # 5 [20, 21]       second root
        parents = [-1, 0, 0, 1, 0, -1]
        starts = [0.0, 1.0, 3.5, 2.0, 9.0, 20.0]
        ends = [10.0, 4.0, 6.0, 3.0, 12.0, 21.0]
        got = self_times(parents, starts, ends)
        # span 0: children cover [1, 6] and [9, 10]
        self.assertEqual(got, [10.0 - 5.0 - 1.0, 3.0 - 1.0, 2.5, 1.0, 3.0, 1.0])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(w["name"], w["why"]) for w in spec["workloads"]],
                         [(name, w.why) for name, w in WORKLOADS.items()])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, unit, *_ in layers.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
