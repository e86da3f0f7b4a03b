"""vepm benchmark entry point.

    python3 perfbench/run.py --workload planted-200|cora-shaped|mutag-shaped|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. The run generates the workload's dataset from the seed
into `.perfbench_work/` (removed afterwards), measures it in a child
interpreter, prints every metric with its unit, the operations attempted
and failed and the provenance, and ends with one JSON line:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
`--workload all` runs each workload in turn, each ending with its line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# BLAS stays single-threaded: at most nproc on any machine, steadier on a
# shared one, and the arithmetic (hence the digest) does not depend on the
# core count
BLAS_THREADS = 1
# glibc malloc adapts its mmap and trim thresholds to the allocation
# history, so otherwise identical processes land in modes that differ by
# 0.3k to 500k minor page faults per training run and by up to 30% in
# phi_step_ms on planted-200. Fixed thresholds keep every run in one mode.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}
CHILD_TIMEOUT_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("pretrain_epoch_ms", "ms"),
    ("theta_step_ms", "ms"),
    ("phi_step_ms", "ms"),
    ("finetune_epoch_ms", "ms"),
    ("eval_ms", "ms"),
    ("train_s", "s"),
    ("peak_rss_mb", "MB"),
    ("test_acc", "fraction"),
]


def git_commit(root: str):
    """HEAD of the checkout read from .git without running git, or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env.update(VEPM_PRECISION="f64", PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS),
               PYTHONPATH=os.pathsep.join([SRC, HERE]), **MALLOC_ENV)
    return env


def measure(workload: str, args, data_dir: str, out_path: str,
            deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--workload", workload, "--data", data_dir, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: measurement timed out")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        raise SystemExit(f"perfbench: measurement exited with code {code}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def report(workload: str, args, result: dict) -> dict:
    """Print the human-readable report; return the metrics of the last line."""
    import layers

    prov = dict(result["provenance"], commit=git_commit(ROOT),
                workload=workload, trace=args.trace)
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    metrics = {}
    e2e = result["end_to_end"]
    print(f"{'end-to-end metric':<28}{'median':>14}  {'unit':<9}{'tail':>24}  samples")
    for name, unit in END_TO_END:
        s = e2e[name]
        tail = (f"p{s['tail_pct']:g}={s['tail']:.6g}" if s.get("tail") is not None
                else "-")
        value = s["median"]
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{name:<28}{shown:>14}  {unit:<9}{tail:>24}  {s['n']}")
        metrics[name] = {"value": value, "unit": unit}
    if args.trace:
        metrics = {}
        print(f"{'per-layer metric':<44}{'value':>14}  {'unit':<7}moves (workload)")
        for name, unit, moves, where in layers.PER_LAYER:
            value = result["per_layer"].get(name)
            shown = "-" if value is None else f"{value:.6g}"
            print(f"{name:<44}{shown:>14}  {unit:<7}{moves} ({where})")
            metrics[name] = {"value": value, "unit": unit}
    print(f"operations attempted={result['attempted']} failed={result['failed']}")
    for line in result["failures"]:
        print(f"failure: {line}")
    print(f"elbo-digest {result['digest']}")
    print("result " + json.dumps(dict(result, provenance=prov), sort_keys=True))
    return metrics


def run_workload(workload: str, args):
    """Generate, measure and report one workload; print its JSON line."""
    from workloads import WORKLOADS

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        data_dir = os.path.join(work, "data")
        WORKLOADS[workload].generate(args.seed, data_dir)
        result = measure(workload, args, data_dir, os.path.join(work, "result.json"),
                         deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    metrics = report(workload, args, result)
    correct = result["failed"] == 0 and all(m["value"] is not None
                                            for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' for each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "vepm", "__init__.py")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    for name in names:
        run_workload(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
