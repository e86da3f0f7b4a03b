"""Runs the benchmark's own self-tests, which wrap package functions and
tape ops by name, so a renamed hook fails here, and checks those names, the
keywords the benchmark passes directly and every package attribute its
source reads."""

import ast
import glob
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import numpy as np

from conftest import masked_node_graph
from vepm import diffmath as dm
from vepm import model, training

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _tracing_module():
    """perfbench/tracing.py, loaded from its file without running anything."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_keeps_every_name_and_keyword_the_benchmark_binds():
    tracing = _tracing_module()
    missing = [f"diffmath.{name}" for name in tracing.OPS if not hasattr(dm, name)]
    for mod_name, attr, _span in tracing.CALLS:
        owner = importlib.import_module(f"vepm.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{mod_name}.{attr}")
    # the keywords perfbench/measure.py passes
    for fn, keywords in ((model.posterior_predictive, ("partition_seed",)),
                         (training.pretrain, ("epoch_callback", "seed")),
                         (training.finetune, ("step_callback", "test_prep")),
                         (training.TrainConfig, ("patience", "seed"))):
        params = inspect.signature(fn).parameters
        missing += [f"{fn.__name__}({kw}=)" for kw in keywords if kw not in params]
    assert not missing, missing


def _package_reads(path):
    """The package names one perfbench file reads, as (module, name, found):
    each name imported from a `vepm` module, and each `<module>.<attr>` on
    an imported `vepm` module."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {}  # local name -> the vepm module it is bound to
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "vepm":
                    bound = alias.asname or alias.name.split(".")[0]
                    modules[bound] = importlib.import_module(
                        alias.name if alias.asname else "vepm")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vepm":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                try:  # a submodule is an attribute only once imported
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                    modules[alias.asname or alias.name] = value
                except ModuleNotFoundError:
                    value = getattr(owner, alias.name, None)
                reads.append((node.module, alias.name, value is not None))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            owner = modules[node.value.id]
            reads.append((owner.__name__, node.attr, hasattr(owner, node.attr)))
    return reads


def test_package_keeps_every_attribute_the_benchmark_source_reads():
    reads = []
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        reads += [(os.path.basename(path), owner, name, found)
                  for owner, name, found in _package_reads(path)]
    names = {f"{owner}.{name}" for _file, owner, name, _found in reads}
    # the scan sees the bindings it is meant to guard
    assert {"vepm.model.prepare_graph_batch", "vepm.graphs.kfold_split",
            "vepm.diffmath.precision", "vepm.graphs.sample_epm_graph"} <= names
    missing = [f"{file}: {owner}.{name}" for file, owner, name, found in reads if not found]
    assert not missing, missing


def test_traced_run_keeps_one_predict_span_per_call_when_samples_run_threaded(
        monkeypatch):
    tracing = _tracing_module()
    graph = masked_node_graph(seed=0, n=model.PARALLEL_MIN_NODES, gamma=2e-5)
    cfg = model.ModelConfig(n_metacommunities=2, communities_per_block=2, hidden_dim=8)
    prep = model.prepare_node_graph(graph)
    store = model.init_params(cfg, graph.n_features, graph.n_classes(), 0, "node")
    # two usable CPUs, so that the samples run on two threads on any host
    monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert model.sample_workers(cfg.mc_samples, prep.n_nodes) == 2
    untraced = model.posterior_predictive(prep, store, cfg, cfg.mc_samples, 0,
                                          partition_seed=0)
    tracer = tracing.Tracer()
    with tracer:
        for _ in range(3):
            probs = model.posterior_predictive(prep, store, cfg, cfg.mc_samples, 0,
                                               partition_seed=0)
            np.testing.assert_array_equal(probs, untraced)
    window = tracing.summarize_window(tracer)
    assert window["calls"]["model.predict"] == 3
    assert window["calls"]["model.partition"] == 3 * cfg.mc_samples
    assert tracer._stack == []
