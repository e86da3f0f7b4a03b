"""Runs the benchmark's own self-tests, which wrap package functions and
tape ops by name, so a renamed hook fails here, and checks those names and
the keywords the benchmark passes directly."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

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
