"""Command-line surface: train, eval, verify-bounds.

Exit codes: 0 success, 1 validation/usage error (or bound violations),
2 solver-divergence abort during training.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import bounds as bnd
from .errors import QdeqError, TrainingAborted
from .datasets import prepare_bundle
from .qmodel import build_default_model
from .seeding import child_seed
from .training import (
    SolverMode,
    TrainConfig,
    build_from_config,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

_METRIC_COLUMNS = ["epoch", "phase", "train_loss", "train_acc", "val_acc", "mean_residual"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def _decimal_int(least: int, what: str):
    def parse(text: str) -> int:
        if not (text.isascii() and text.isdecimal()) or int(text) < least:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return int(text)
    return parse


_positive_int, _non_negative_int = _decimal_int(1, "positive"), _decimal_int(0, "non-negative")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qdeq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train_p = sub.add_parser("train", help="run a training configuration end to end")
    train_p.add_argument("--config", required=True, help="JSON config with TrainConfig fields")
    train_p.add_argument("--data-dir", default=None, help="dataset root (env QDEQ_DATA_DIR)")
    train_p.add_argument("--output-dir", required=True, help="where metrics/checkpoint/config land")
    train_p.add_argument("--seed", type=_non_negative_int, default=None, help="override the config seed")

    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--split", choices=["train", "val", "test"], default="test")
    eval_p.add_argument("--data-dir", default=None)

    verify_p = sub.add_parser("verify-bounds", help="run a numerical bound-verification suite")
    verify_p.add_argument(
        "--suite",
        choices=["amplitude-overlap", "angle-overlap", "trig-inequality", "contraction", "all"],
        default="all",
    )
    verify_p.add_argument("--pairs", type=_positive_int, default=None, help="sample count override")
    verify_p.add_argument("--seed", type=_non_negative_int, default=0)
    verify_p.add_argument("--output-dir", default=None, help="where the angle-overlap scatter CSV lands")
    return parser


def _resolve_data_dir(flag_value):
    value = flag_value or os.environ.get("QDEQ_DATA_DIR")
    if not value:
        raise QdeqError("no data directory: pass --data-dir or set QDEQ_DATA_DIR")
    return Path(value)


def _write_metrics(path, metrics):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_METRIC_COLUMNS)
        writer.writeheader()
        for row in metrics.epochs:
            writer.writerow({k: row[k] for k in _METRIC_COLUMNS})


def _cmd_train(args) -> int:
    raw = json.loads(Path(args.config).read_text())
    if args.seed is not None and isinstance(raw, dict):  # from_dict rejects any other JSON value
        raw["seed"] = args.seed
    cfg = TrainConfig.from_dict(raw)
    data_dir = _resolve_data_dir(args.data_dir)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), indent=1))

    bundle = prepare_bundle(cfg.dataset, data_dir, cfg.seed)
    model, head = build_from_config(cfg)

    def log(row):
        print(
            f"epoch {row['epoch']:3d} [{row['phase']}] "
            f"loss {row['train_loss']:.4f} train {row['train_acc']:.2f}% "
            f"val {row['val_acc']:.2f}% residual {row['mean_residual']:.3e} "
            f"unconverged {row['unconverged']}"
        )

    try:
        metrics, adam = train(bundle, model, head, cfg, log=log)
    except TrainingAborted as exc:
        print(f"training aborted: {exc} {exc.diagnostics}", file=sys.stderr)
        return 2
    _write_metrics(out / "metrics.csv", metrics)
    save_checkpoint(out / "checkpoint.txt", cfg, model, head, adam, step=adam.t)
    print(
        f"test accuracy {metrics.test_acc:.2f}%  mean residual {metrics.test_residual:.3e}  "
        f"wall time {metrics.wall_time_seconds:.1f}s"
    )
    return 0


def _cmd_eval(args) -> int:
    cfg, model, head, _, _ = load_checkpoint(args.checkpoint)
    data_dir = _resolve_data_dir(args.data_dir)
    bundle = prepare_bundle(cfg.dataset, data_dir, cfg.seed, splits=(args.split,))
    X, y = getattr(bundle, f"x_{args.split}"), getattr(bundle, f"y_{args.split}")
    mode = SolverMode.parse(cfg.solver_mode)
    accuracy, residual = evaluate(model, head, X, y, mode, batch_size=cfg.batch_size)
    print(f"split={args.split} accuracy={accuracy:.2f}% mean_residual={residual:.3e}")
    return 0


_SUITE_DEFAULT_SAMPLES = {
    "amplitude-overlap": 10000,
    "angle-overlap": 3000,
    "trig-inequality": 100000,
    "contraction": 5000,
}


def run_suite(suite: str, pairs: int, seed: int):
    if suite == "amplitude-overlap":
        return bnd.verify_amplitude_overlap(pairs, seed)
    if suite == "angle-overlap":
        return bnd.verify_angle_overlap(pairs, seed)
    if suite == "trig-inequality":
        return bnd.verify_trig_inequality(pairs, seed)
    model = build_default_model("amplitude", 4, 16, child_seed(seed, "bounds"))
    return bnd.verify_contraction_bound(model, pairs, seed)


def _cmd_verify(args) -> int:
    suites = list(_SUITE_DEFAULT_SAMPLES) if args.suite == "all" else [args.suite]
    failed = False
    for suite in suites:
        pairs = _SUITE_DEFAULT_SAMPLES[suite] if args.pairs is None else args.pairs
        report = run_suite(suite, pairs, args.seed)
        status = "ok" if report.ok else "VIOLATED"
        print(
            f"{suite}: samples={report.num_samples} violations={report.violations} "
            f"worst_margin={report.worst_margin:.3e} [{status}]"
        )
        failed = failed or not report.ok
        if suite == "angle-overlap" and args.output_dir:
            out = Path(args.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            bnd.write_csv(report, out / "angle_overlap.csv")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_verify(args)
    except (QdeqError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
