"""Command-line front end.

Exit codes: 0 success, 2 configuration/dataset/checkpoint errors,
3 training divergence. Failures print one machine-readable line to stderr:
VEPM-ERROR kind=<kind> msg=<message>.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .diffmath import DiffMathError, NonFiniteError
from .graphs import DatasetError, sample_epm_graph, save_node_dataset
from .model import ModelError
from .pipeline import (
    ABLATION_AXES,
    run_ablate,
    run_eval,
    run_partition_export,
    run_pretrain,
    run_train,
)
from .runconfig import ConfigError, RunConfig, load_run_config
from .rng import substream
from .training import TrainingDiverged, TrainingError
from .verify import run_suite

_CONFIG_ERRORS = (ConfigError, DatasetError, ModelError, TrainingError,
                  DiffMathError, ValueError)


def _error(kind: str, msg: str) -> None:
    sys.stderr.write(f"VEPM-ERROR kind={kind} msg={msg}\n")


_OVERRIDES = ("seed", "out", "protocol", "keep_rate")


def _load_cfg(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config is required")
    return load_run_config(args.config, {key: getattr(args, key, None)
                                         for key in _OVERRIDES})


def _add_run_config(p):
    """The run configuration file and the keys every command that reads
    one may override by flag."""
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_protocol(p):
    p.add_argument("--protocol", choices=("xu", "zhang"), default=None)


def _cmd_pretrain(args) -> int:
    cfg = _load_cfg(args)
    result = run_pretrain(cfg, resume=args.resume)
    last = result.records[-1] if result.records else {}
    print(f"pretrain done: epochs={len(result.records)} "
          f"l_egen={last.get('l_egen')} l_kl={last.get('l_kl')} out={cfg.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    result = run_train(cfg, resume=args.resume)
    last = result.records[-1] if result.records else {}
    print(f"train done: epochs={len(result.records)} "
          f"best_epoch={result.best_epoch} val={result.best_val} "
          f"test={last.get('test_acc')} out={cfg.out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    report = run_eval(cfg, checkpoint=args.checkpoint,
                      mc_samples=args.mc_samples, probes=args.probes)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "eval_report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    print(f"eval done: protocol={report.protocol} "
          f"accuracy={report.accuracy_mean} stderr={report.accuracy_stderr} "
          f"report={path}")
    return 0


def _cmd_synth(args) -> int:
    gamma = np.asarray([float(g) for g in args.gamma.split(",")])
    if gamma.size != args.c:
        raise ConfigError(f"gamma list length {gamma.size} != c = {args.c}")
    graph, planted = sample_epm_graph(args.n, args.c, args.alpha, args.beta,
                                      gamma, args.seed,
                                      within_boost=args.boost)
    order = substream(args.seed, "masks").permutation(args.n)
    train_mask = np.zeros(args.n, bool)
    val_mask = np.zeros(args.n, bool)
    test_mask = np.zeros(args.n, bool)
    n_tr, n_val = int(args.n * 0.6), int(args.n * 0.2)
    train_mask[order[:n_tr]] = True
    val_mask[order[n_tr : n_tr + n_val]] = True
    test_mask[order[n_tr + n_val :]] = True
    graph.train_mask, graph.val_mask, graph.test_mask = train_mask, val_mask, test_mask
    save_node_dataset(args.out, graph)
    np.savetxt(os.path.join(args.out, "z_true.csv"), planted.z_true, delimiter=",")
    np.savetxt(os.path.join(args.out, "gamma_true.csv"),
               planted.gamma_true[None, :], delimiter=",")
    print(f"synth done: n={args.n} c={args.c} edges={graph.n_edges} out={args.out}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed or 0)
    failed = 0
    for res in results:
        print(res.line())
        failed += 0 if res.passed else 1
    print(f"verify {args.suite}: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_partition_export(args) -> int:
    cfg = _load_cfg(args)
    out_dir = args.out or os.path.join(cfg.out, "partition")
    run_partition_export(cfg, args.checkpoint, out_dir)
    print(f"partition export done: out={out_dir}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _load_cfg(args)
    values = [v for v in args.values.split(",") if v]
    rows = run_ablate(cfg, args.axis, values, jobs=args.jobs)
    for row in rows:
        print(f"{args.axis}={row['value']}: accuracy={row['accuracy_mean']} "
              f"stderr={row['accuracy_stderr']}")
    return 0


def _cmd_convert_planetoid(args) -> int:
    from .convert import convert_planetoid

    graph = convert_planetoid(args.raw, args.name, args.out)
    print(f"converted {args.name}: n={graph.n_nodes} edges={graph.n_edges} "
          f"features={graph.n_features} out={args.out}")
    return 0


def _cmd_convert_tu(args) -> int:
    from .convert import convert_tu

    coll = convert_tu(args.raw, args.name, args.out)
    print(f"converted {args.name}: graphs={len(coll)} "
          f"classes={coll.n_classes()} out={args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with the VEPM-ERROR line on a usage error; exit code 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _error("config", f"{self.prog}: {message}")
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vepm",
        description="edge-partitioned graph representation learning")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("pretrain", _cmd_pretrain), ("train", _cmd_train)):
        p = sub.add_parser(name)
        _add_run_config(p)
        p.add_argument("--resume", default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("eval")
    _add_run_config(p)
    _add_protocol(p)
    p.add_argument("--keep-rate", dest="keep_rate", type=float, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--mc-samples", dest="mc_samples", type=_positive_int, default=None)
    p.add_argument("--probes", action="store_true",
                   help="write per-community confusion matrices")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("synth")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--c", type=int, default=4)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", default="0.15,0.15,0.15,0.15")
    p.add_argument("--boost", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("verify")
    p.add_argument("--suite", default="all",
                   choices=("gradcheck", "kl", "sampler", "partition", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("partition-export")
    _add_run_config(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=_cmd_partition_export)

    p = sub.add_parser("ablate")
    _add_run_config(p)
    _add_protocol(p)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--axis", required=True, choices=ABLATION_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated values for the chosen axis")
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("convert-planetoid")
    p.add_argument("--raw", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_convert_planetoid)

    p = sub.add_parser("convert-tu")
    p.add_argument("--raw", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_convert_tu)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TrainingDiverged, NonFiniteError) as exc:
        _error("divergence", str(exc))
        return 3
    except _CONFIG_ERRORS as exc:
        _error("config", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
