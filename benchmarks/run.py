#!/usr/bin/env python3
"""qdeq training benchmark: one workload per run, from seeded synthetic files.

    python3 benchmarks/run.py --workload mnist4-amp-implicit-jac --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``. A run writes synthetic dataset files for its seed, then
drives the public entry points: ``prepare_bundle`` -> ``build_from_config``
-> ``train`` -> ``evaluate`` -> ``save_checkpoint``/``load_checkpoint``.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the same workload under the span tracer and reports per-layer metrics.
Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``. The exit
code is 0 only when the correctness gate passed. Work files go to
``.bench_work/`` in the checkout. See benchmarks/README.md for the metrics
and workloads.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# glibc adapts its mmap threshold to the allocation history, so identical set-ups switched
# between page-faulting fresh mappings and reusing heap pages, and setup_s moved by a third
# between runs. Pinning it at glibc's own ceiling (32 MiB) keeps that steady state throughout.
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}

BATCH = 256
SETUP_REPEATS = 16  # at least this many set-ups per untraced run, spread over it
GATE_SAMPLES = 3
TINY_SPLIT = 8  # val and test rows handed to train(), so its wall time is optimizer steps


@dataclass(frozen=True)
class Workload:
    """A short training run from scratch, repeated in one process.

    One ``train()`` call runs ``epochs`` epochs over ``batches_per_epoch``
    batches. A run repeats the call (fresh set-up, same data, same seed) for
    ``--seconds`` and reports the fastest call, so a slow stretch of a shared
    machine moves a run's figures less, while loss and residual come from a
    fixed amount of training; the repeats must agree bit for bit.
    ``nominal_call_s`` (a constant, measured once at the parent commit on a
    2-core x86 machine with one BLAS thread) turns ``--seconds`` into a call
    count, rounded up, so the work done depends on the run length alone and
    never on the speed of the code under test.
    """

    source: str  # the shipped config this workload mirrors
    config: dict
    batches_per_epoch: int
    epochs: int
    nominal_call_s: float
    eval_samples: int
    eval_repeats: int  # evaluate() calls after each train() call

    @property
    def dataset(self) -> str:
        return self.config["dataset"]

    @property
    def steps(self) -> int:
        return self.batches_per_epoch * self.epochs

    @property
    def train_rows(self) -> int:
        return BATCH * self.batches_per_epoch

    def calls(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.nominal_call_s))

    def train_config(self) -> dict:
        return dict(self.config, epochs=self.epochs, batch_size=BATCH)

    def write_data(self, synthdata, data_dir: Path, seed: int) -> None:
        # prepare_bundle keeps 80% of the training file for train, the rest for val
        train_full = math.ceil(self.train_rows / 0.8) + 2 * TINY_SPLIT
        if self.dataset == "mnist4":  # 4 of the 10 IDX classes are kept
            synthdata.write_mnist(data_dir, seed, math.ceil(train_full / 4), math.ceil(self.eval_samples / 4))
        else:
            synthdata.write_cifar(data_dir, seed, math.ceil(train_full / 50), math.ceil(self.eval_samples / 10))


_BASE = {"dropout_p": 0.1, "seed": 0, "learning_rate": 0.05}

WORKLOADS = {
    "mnist4-amp-implicit-jac": Workload(
        source="configs/mnist4_amp_implicit.json with jac_loss_weight 0.8, jac_loss_freq 1.0",
        config=dict(_BASE, dataset="mnist4", encoding="amplitude", solver_mode="implicit",
                    jac_loss_weight=0.8, jac_loss_freq=1.0),
        batches_per_epoch=4, epochs=1, nominal_call_s=2.0, eval_samples=1024, eval_repeats=3,
    ),
    "cifar10-implicit": Workload(
        source="configs/cifar10_implicit.json",
        config=dict(_BASE, dataset="cifar10", encoding="amplitude", solver_mode="implicit",
                    jac_loss_weight=0.0, jac_loss_freq=0.0),
        batches_per_epoch=1, epochs=1, nominal_call_s=14.5, eval_samples=256, eval_repeats=1,
    ),
    "mnist4-angle-direct5": Workload(
        source="configs/mnist4_angle_direct5.json",
        config=dict(_BASE, dataset="mnist4", encoding="angle", solver_mode="direct_5"),
        batches_per_epoch=4, epochs=4, nominal_call_s=2.0, eval_samples=1024, eval_repeats=3,
    ),
}


@dataclass
class Outcome:
    """Operations attempted and failed, plus the correctness checks behind them."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{label}: {detail}" if detail else label)

    @property
    def correct(self) -> bool:
        return not self.problems


def environment(workload: str, seed: int, wl: Workload, model, train_calls: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "malloc": {v: os.environ.get(v) for v in MALLOC_VARS},
        "workload": workload,
        "seed": seed,
        "Q": model.num_qubits,
        "n": model.input_dim,
        "batch": BATCH,
        "steps_per_train_call": wl.steps,
        "train_calls": train_calls,
        "config_source": wl.source,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import gate
    import synthdata
    import tracer as tr
    from qdeq import datasets, training
    from qdeq.errors import TrainingAborted

    wl = WORKLOADS[workload]
    work = WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    data_dir = work / "data"
    wl.write_data(synthdata, data_dir, seed)
    cfg = training.TrainConfig.from_dict(wl.train_config())
    mode = training.SolverMode.parse(cfg.solver_mode)
    outcome = Outcome()
    setup_times, train_rates, eval_rates = [], [], []

    def setup():
        t0 = time.perf_counter()
        bundle = datasets.prepare_bundle(cfg.dataset, data_dir, seed=cfg.seed)
        model, head = training.build_from_config(cfg)
        setup_times.append(time.perf_counter() - t0)
        rows = wl.train_rows
        if bundle.x_train.shape[0] < rows or bundle.x_val.shape[0] < 2 * TINY_SPLIT \
                or bundle.x_test.shape[0] < wl.eval_samples:
            raise RuntimeError(f"synthetic files too small for {workload}")
        train_bundle = training.DataBundle(
            bundle.name, bundle.x_train[:rows], bundle.y_train[:rows],
            bundle.x_val[:TINY_SPLIT], bundle.y_val[:TINY_SPLIT],
            bundle.x_val[TINY_SPLIT:2 * TINY_SPLIT], bundle.y_val[TINY_SPLIT:2 * TINY_SPLIT],
        )
        held_out = (bundle.x_test[:wl.eval_samples], bundle.y_test[:wl.eval_samples])
        return train_bundle, held_out, model, head

    def train_call(train_bundle, model, head):
        """(seconds, RunMetrics, AdamState) of one train() call, or None if it aborted."""
        t0 = time.perf_counter()
        try:
            run_metrics, adam = training.train(train_bundle, model, head, cfg)
        except TrainingAborted as exc:
            outcome.check("train", False, f"TrainingAborted: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        train_rates.append(wl.steps * BATCH / elapsed)
        outcome.attempted += wl.steps
        outcome.failed += wl.steps - adam.t  # diverged batches and Adam-skipped steps
        loss = run_metrics.epochs[-1]["train_loss"]
        outcome.check("final training loss is finite", math.isfinite(loss), repr(loss))
        return elapsed, run_metrics, adam

    def evaluate(model, head, held_out):
        t0 = time.perf_counter()
        result = training.evaluate(model, head, *held_out, mode, batch_size=cfg.batch_size)
        eval_rates.append(wl.eval_samples / (time.perf_counter() - t0))
        outcome.attempted += 1
        return result

    def checkpoint_round_trip(model, head, adam):
        path = work / "checkpoint.json"
        training.save_checkpoint(path, cfg, model, head, adam, step=adam.t)
        _, model2, head2, _, _ = training.load_checkpoint(path)
        same = (np.array_equal(model.theta, model2.theta) and np.array_equal(head.weight, head2.weight)
                and np.array_equal(head.bias, head2.bias))
        outcome.check("checkpoint round trip is bit-exact", same)

    train_bundle, held_out, model, head = setup()
    for label, got, expected, ok in gate.gradient_checks(model, train_bundle.x_train[:GATE_SAMPLES], seed):
        outcome.check(label, ok, f"got {got!r}, expected {expected!r}")

    result = {"workload": workload, "seed": seed, "trace": int(trace)}
    if trace:
        untraced = train_call(train_bundle, model, head)
        tracer = tr.Tracer()
        with tracer:
            train_bundle, held_out, model, head = setup()
            traced = train_call(train_bundle, model, head)
            if traced is not None:
                evaluate(model, head, held_out)
                checkpoint_round_trip(model, head, traced[2])
        if traced is not None:
            metrics = tr.per_layer_metrics(tracer, wl.steps)
            overhead = traced[0] / untraced[0] - 1.0 if untraced is not None else 0.0
            metrics["trace.overhead_frac"] = (overhead, "1")
            _, _, bad = tr.step_sum_check(tracer)
            outcome.check("step self times sum to the step span", not bad, f"steps {bad}")
            result["metrics"] = metrics
        with open(work / "spans.jsonl", "w") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
        result["absent"] = tracer.absent
    else:
        calls = wl.calls(seconds)
        reference = None
        for call in range(calls):
            # set-ups are spread over the run like the timed calls; the last one feeds the call
            for _ in range(math.ceil(SETUP_REPEATS / calls)):
                train_bundle, held_out, model, head = setup()
            done = train_call(train_bundle, model, head)
            if done is None:
                break
            _, run_metrics, adam = done
            evals = [evaluate(model, head, held_out) for _ in range(wl.eval_repeats)]
            outcome.check("evaluate repeats agree", all(e == evals[0] for e in evals), repr(evals))
            state = (run_metrics.epochs[-1]["train_loss"], evals[0], model.theta, head.weight, head.bias)
            if reference is None:
                reference = state
                checkpoint_round_trip(model, head, adam)
            else:
                same = state[:2] == reference[:2] and all(np.array_equal(a, b) for a, b in zip(state[2:], reference[2:]))
                outcome.check("repeated training is bit-identical", same)
        if reference is not None:
            loss, (acc, residual) = reference[0], reference[1]
            result["info"] = {
                "eval_acc": (acc, "%"),
                "eval_residual": (residual, "1"),
                "setup_s_median": (statistics.median(setup_times), "s"),
                "train_samples_per_s_median": (statistics.median(train_rates), "samples/s"),
                "eval_samples_per_s_median": (statistics.median(eval_rates), "samples/s"),
            }
            # Timings are best-of-N: slowdowns from other tenants of a shared machine only ever
            # add time, and across runs the fastest repeat moves about half as much as the median.
            result["metrics"] = {
                "setup_s": (min(setup_times), "s"),
                "train_samples_per_s": (max(train_rates), "samples/s"),
                "eval_samples_per_s": (max(eval_rates), "samples/s"),
                "peak_rss_mb": (peak_rss_mib(), "MiB"),
                "train_loss": (loss, "nats"),
                "eval_residual_digits": (-math.log10(max(residual, 1e-16)), "digits"),
                "applied_step_frac": (adam.t / wl.steps, "1"),
            }

    if "metrics" in result:
        result["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in result["metrics"].items()}
    result["samples"] = {"setup_s": setup_times, "train_samples_per_s": train_rates,
                         "eval_samples_per_s": eval_rates}
    result["env"] = environment(workload, seed, wl, model, len(train_rates))
    result.update(correct=outcome.correct, attempted=outcome.attempted, failed=outcome.failed,
                  problems=outcome.problems)
    shutil.rmtree(data_dir, ignore_errors=True)
    (work / "run.json").write_text(json.dumps(result, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qdeq" / "__init__.py").is_file():
        print(f"error: {src / 'qdeq'} not found; run from a full checkout", file=sys.stderr)
        return 2
    if any(var not in os.environ for var in MALLOC_VARS):  # glibc reads them at process start
        os.environ.update({var: os.environ.get(var, value) for var, value in MALLOC_VARS.items()})
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
    for var in THREAD_VARS:  # one BLAS thread: steadier figures on a shared machine
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(result["env"]))
    if result.get("absent"):
        print("absent or unreadable in this program (their metrics read 0): " + ", ".join(result["absent"]))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, (value, unit) in result.get("info", {}).items():
        print(f"{name} {value!r} {unit} (informational, not gated)")
    for name, m in result.get("metrics", {}).items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed")}
                     | {"metrics": result.get("metrics", {})}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
