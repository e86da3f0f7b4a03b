"""One measured benchmark process: set up, train, evaluate, check.

Run by `run.py` in a fresh interpreter per workload, so that peak memory
belongs to that workload alone. It drives the package only through its
public functions, looked up as module attributes at call time, and times
everything from outside those calls, mostly at the training callbacks.

    python3 perfbench/measure.py --workload NAME --data DIR --seed N \
        --seconds S --trace 0|1 --out RESULT.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

from vepm import diffmath, evaluation, graphs, model, training

from tracing import Tracer, summarize_window
from workloads import WORKLOADS
import layers

PARTITION_TOL = 1e-9
# extra set-ups timed after the training runs, so that set-up has a steady
# median even when a run fits one or two training runs: up to SETUP_MAX
# samples in all, while the extra ones take under SETUP_BUDGET_S
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 2.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"median": float(np.median(samples)) if samples else None,
           "n": len(samples), "tail_pct": None, "tail": None}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (1.0 - pct / 100.0) >= 10:
            out["tail_pct"], out["tail"] = pct, float(np.percentile(samples, pct))
            break
    return out


class Recorder:
    """Callback timings and failure accounting across training runs.

    A gap is measured from the end of one callback to the start of the
    next, so the checks made inside callbacks are not part of any timing.
    """

    def __init__(self, inner_steps: int):
        self.inner_steps = inner_steps
        self.samples = {k: [] for k in ("pretrain_epoch_ms", "theta_step_ms",
                                        "phi_step_ms", "finetune_epoch_ms")}
        self.theta_nodes: list[int] = []
        self.node_counter = None  # set to a Tracer while tracing
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.finetune_epochs = 0
        self._terms: list[tuple] = []

    def fail(self, what: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def take_terms(self) -> list[tuple]:
        terms, self._terms = self._terms, []
        return terms

    # -- pretrain ----------------------------------------------------------

    def run_pretrain(self, fn, prep, store, cfg, tcfg, **kwargs):
        last = {"epoch": None, "out": None}

        def on_epoch(epoch, terms, store):
            t_in = time.perf_counter()
            if last["epoch"] == epoch - 1:
                self.samples["pretrain_epoch_ms"].append((t_in - last["out"]) * 1e3)
            self.attempted += 1
            if not (math.isfinite(terms.l_egen) and math.isfinite(terms.l_kl)):
                self.fail(f"pretrain epoch {epoch}: non-finite ELBO term")
            last["epoch"] = epoch
            last["out"] = time.perf_counter()

        result = fn(prep, store, cfg, tcfg, epoch_callback=on_epoch, **kwargs)
        self._terms.extend((r["l_task"], r["l_egen"], r["l_kl"]) for r in result.records)
        return result

    # -- finetune ----------------------------------------------------------

    def run_finetune(self, fn, prep, store, cfg, tcfg, **kwargs):
        edge_vals = prep.graph.adjacency.vals
        st = {"prev": None, "out": None, "phi_out": None, "cb_ms": 0.0,
              "bad": set(), "nodes": None}

        def on_step(epoch, phase, inner, partition, store):
            t_in = time.perf_counter()
            prev, gap = st["prev"], (t_in - st["out"]) * 1e3 if st["out"] else None
            if phase == "theta":
                if inner >= 1 and prev == (epoch, "theta", inner - 1):
                    self.samples["theta_step_ms"].append(gap)
                    if self.node_counter is not None:
                        self.theta_nodes.append(
                            self.node_counter.nodes_created - st["nodes"])
            else:
                if prev == (epoch, "theta", self.inner_steps - 1):
                    self.samples["phi_step_ms"].append(gap)
                if st["phi_out"] is not None:
                    self.samples["finetune_epoch_ms"].append(
                        (t_in - st["phi_out"]) * 1e3 - st["cb_ms"])
                self.attempted += 1
                self.finetune_epochs += 1
            if partition.shape[0]:
                dev = float(np.abs(partition.sum(axis=1) - edge_vals).max())
                if not dev <= PARTITION_TOL:
                    st["bad"].add(epoch)
                    self.fail(f"finetune epoch {epoch} {phase}: partition "
                              f"row-sum error {dev:.3g}")
            st["prev"] = (epoch, phase, inner)
            if self.node_counter is not None:
                st["nodes"] = self.node_counter.nodes_created
            t_out = time.perf_counter()
            if phase == "phi":
                st["phi_out"], st["cb_ms"] = t_out, 0.0
            else:
                st["cb_ms"] += (t_out - t_in) * 1e3
            st["out"] = t_out

        result = fn(prep, store, cfg, tcfg, step_callback=on_step, **kwargs)
        for rec in result.records:
            terms = (rec["l_task"], rec["l_egen"], rec["l_kl"])
            self._terms.append(terms)
            if not all(math.isfinite(t) for t in terms) and rec["epoch"] not in st["bad"]:
                self.fail(f"finetune epoch {rec['epoch']}: non-finite ELBO term")
        return result


def digest(terms: list[tuple]) -> str:
    text = "\n".join(",".join(repr(float(t)) if t is not None else "-" for t in row)
                     for row in terms)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@contextlib.contextmanager
def rebound(module, **replacements):
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


class Bench:
    def __init__(self, workload: str, data_dir: str, seed: int):
        self.w = WORKLOADS[workload]
        self.data_dir = data_dir
        self.seed = seed
        self.cfg = model.ModelConfig(**self.w.model)
        # patience above the epoch count: early stopping never shortens a run
        epochs = max(self.w.train.get("pretrain_epochs", 0),
                     self.w.train.get("finetune_epochs", 0))
        self.tcfg = training.TrainConfig(**self.w.train, patience=epochs + 1,
                                         seed=seed)
        self.rec = Recorder(self.tcfg.inner_steps)
        self.setup_s: list[float] = []
        self.train_s: list[float] = []
        self.eval_ms: list[float] = []
        self.test_acc: list[float] = []
        self.digests: list[str] = []
        # peak memory of the process at the end of its first training run:
        # later runs start on a heap the allocator has kept and fragmented,
        # so their peaks depend on how many runs came before
        self.first_run_peak_mb = None

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Load from disk, prepare (plus the first fold's batching for
        cross-validation) and initialize parameters; timed as one unit."""
        t0 = time.perf_counter()
        if self.w.task == "node":
            data = graphs.load_node_dataset(self.data_dir)
            prep = model.prepare_node_graph(data)
        else:
            data = graphs.load_graph_dataset(self.data_dir)
            train_idx, _ = graphs.kfold_split(len(data), self.w.folds, self.seed)[0]
            union, gids, labels = graphs.batch_graphs(data, train_idx)
            prep = model.prepare_graph_batch(union, gids, labels, data.n_classes())
        store = model.init_params(self.cfg, prep.graph.n_features, prep.n_classes,
                                  self.seed, self.w.task)
        self.setup_s.append(time.perf_counter() - t0)
        return data, prep, store

    # -- one training run --------------------------------------------------

    def cycle(self):
        """Set up, train once, then time the evaluation calls."""
        data, prep, store = self.setup()
        rec, cfg, tcfg, seed = self.rec, self.cfg, self.tcfg, self.seed
        t0 = time.perf_counter()
        if self.w.task == "node":
            rec.run_pretrain(training.pretrain, prep, store, cfg, tcfg, seed=seed)
            rec.run_finetune(training.finetune, prep, store, cfg, tcfg, seed=seed)
            targets = [(prep, store, data.labels, data.test_mask)]
            acc = None
        else:
            # every fold's model on its own held-out fold, as the protocol
            # evaluates them each epoch
            targets = []
            pretrain_fn, finetune_fn = evaluation.pretrain, evaluation.finetune

            def finetune(prep, store, *args, **kwargs):
                result = rec.run_finetune(finetune_fn, prep, store, *args, **kwargs)
                rec.attempted += 1  # one fold
                held_out = kwargs["test_prep"]
                targets.append((held_out, store, held_out.graph_labels, None))
                return result

            with rebound(evaluation,
                         pretrain=functools.partial(rec.run_pretrain, pretrain_fn),
                         finetune=finetune):
                report = evaluation.cross_validate_graphs(
                    data, cfg, tcfg, folds=self.w.folds, seed=seed, protocol="xu")
            acc = report.accuracy_mean
        self.train_s.append(time.perf_counter() - t0)
        self.digests.append(digest(rec.take_terms()))
        if self.digests[-1] != self.digests[0]:
            rec.fail("ELBO term sequence differs between identical training runs")

        references = {}
        for i in range(self.w.eval_calls):
            k = i % len(targets)
            eval_prep, eval_store, labels, mask = targets[k]
            t = time.perf_counter()
            probs = model.posterior_predictive(eval_prep, eval_store, cfg,
                                               cfg.mc_samples, seed, partition_seed=seed)
            self.eval_ms.append((time.perf_counter() - t) * 1e3)
            rec.attempted += 1
            if k in references:
                if not np.array_equal(probs, references[k]):
                    rec.fail("posterior predictive differs between identical calls")
                continue
            references[k] = probs
            try:
                call_acc = evaluation.accuracy(probs, labels, mask)
            except evaluation.EvaluationError as exc:
                rec.fail(f"evaluation: {exc}")
                continue
            if acc is None:
                acc = call_acc
        if acc is not None:
            self.test_acc.append(acc)
            if not acc >= self.w.acc_floor:
                rec.fail(f"test accuracy {acc:.4f} below floor {self.w.acc_floor}")

    def extra_setups(self):
        """More timed set-ups, for a steady set-up median."""
        t0 = time.perf_counter()
        while len(self.setup_s) < SETUP_MIN or (
                len(self.setup_s) < SETUP_MAX
                and time.perf_counter() - t0 + self.setup_s[-1] < SETUP_BUDGET_S):
            self.setup()

    def loop(self, seconds: float, min_cycles: int = 1):
        """Whole training runs while the next one is expected to fit."""
        t0 = time.perf_counter()
        done = 0
        while True:
            c0 = time.perf_counter()
            try:
                self.cycle()
            except (training.TrainingDiverged, diffmath.NonFiniteError) as exc:
                self.rec.attempted += 1
                self.rec.fail(f"{type(exc).__name__}: {exc}")
                return done
            done += 1
            if self.first_run_peak_mb is None:
                self.first_run_peak_mb = peak_rss_mb()
            now = time.perf_counter()
            if done >= min_cycles and now + (now - c0) > t0 + seconds:
                return done

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict:
        s = self.rec.samples
        return {
            "setup_s": summarize(self.setup_s),
            "pretrain_epoch_ms": summarize(s["pretrain_epoch_ms"]),
            "theta_step_ms": summarize(s["theta_step_ms"]),
            "phi_step_ms": summarize(s["phi_step_ms"]),
            "finetune_epoch_ms": summarize(s["finetune_epoch_ms"]),
            "eval_ms": summarize(self.eval_ms),
            "train_s": summarize(self.train_s),
            "peak_rss_mb": {"median": self.first_run_peak_mb, "n": 1},
            "test_acc": {"median": float(np.median(self.test_acc))
                         if self.test_acc else None, "n": len(self.test_acc)},
        }


def provenance(seed: int, seconds: int) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "malloc_trim_threshold": os.environ.get("MALLOC_TRIM_THRESHOLD_"),
        "precision": diffmath.precision(),
        "seed": seed,
        "seconds": seconds,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if diffmath.precision() != "f64":
        # f32 mode switches off the non-finite guard the checks rely on
        raise SystemExit("perfbench: VEPM_PRECISION must be f64")

    bench = Bench(args.workload, args.data, args.seed)
    result = {"provenance": provenance(args.seed, args.seconds)}
    if not args.trace:
        result["cycles"] = bench.loop(args.seconds)
        bench.extra_setups()
        result["end_to_end"] = bench.end_to_end()
    else:
        # untraced third for the overhead baseline, traced rest for layers
        t0 = time.perf_counter()
        result["untraced_cycles"] = bench.loop(args.seconds / 3.0)
        bench.extra_setups()
        untraced = bench.end_to_end()
        bench.rec.samples["finetune_epoch_ms"] = []
        tracer = Tracer()
        windows = []
        bench.rec.node_counter = tracer
        with tracer:
            remaining = args.seconds - (time.perf_counter() - t0)
            while True:
                epochs_before = bench.rec.finetune_epochs
                c0 = time.perf_counter()
                if bench.loop(0.0) == 0:
                    break
                window = summarize_window(tracer)
                window["finetune_epochs"] = bench.rec.finetune_epochs - epochs_before
                windows.append(window)
                tracer.clear()
                now = time.perf_counter()
                remaining -= now - c0
                if remaining < now - c0:
                    break
        bench.rec.node_counter = None
        traced_epoch = summarize(bench.rec.samples["finetune_epoch_ms"])["median"]
        result["traced_cycles"] = len(windows)
        result["end_to_end"] = untraced
        # no traced training run completes when training fails; the run
        # then reports no per-layer values and counts the failure
        result["per_layer"] = layers.per_layer_metrics(
            windows, bench.rec.theta_nodes,
            untraced["finetune_epoch_ms"]["median"], traced_epoch) if windows else {}
    result["attempted"] = bench.rec.attempted
    result["failed"] = bench.rec.failed
    result["failures"] = bench.rec.failures
    result["digest"] = bench.digests[0] if bench.digests else None
    result["test_acc_floor"] = bench.w.acc_floor
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
