"""Self-checks of the benchmark: tracer accounting, span counts and the command-line interface.

Run with ``python -m pytest benchmarks/tests`` from the checkout root. The
workload tests run the real benchmark at its shortest length (about a minute
in total, most of it the one-step cifar10 run).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
import tracer as tr
from qdeq import training

BENCH_DIR = Path(bench.__file__).resolve().parent
SOLVE = "deqsolve.forward_fixed_point_batch"
FORWARD = "qmodel.QuantumModel.forward_batch"
JAC = "deqsolve.jacobian_frobenius_batch.calls_per_step"


def _tiny_traced_train(solver_mode: str, steps: int = 3, batch: int = 16):
    rng = np.random.default_rng(7)
    X = rng.uniform(0.1, 0.9, (steps * batch, 16))
    y = rng.integers(0, 4, steps * batch)
    bundle = training.DataBundle("mnist4", X, y, X[:4], y[:4], X[4:8], y[4:8])
    cfg = training.TrainConfig.from_dict(
        {"dataset": "mnist4", "solver_mode": solver_mode, "learning_rate": 0.05, "batch_size": batch, "epochs": 1}
    )
    model, head = training.build_from_config(cfg)
    with tr.Tracer() as tracer:
        training.train(bundle, model, head, cfg)
    return tracer


def _nearest(tracer, idx, name):
    parent = tracer.spans[idx].parent
    while parent >= 0 and tracer.spans[parent].name != name:
        parent = tracer.spans[parent].parent
    return parent


def test_forward_batch_calls_per_solve_equal_steps_taken_plus_one():
    tracer = _tiny_traced_train("implicit")
    solves = {idx: value[0] for idx, kind, value in tracer.observations if kind == "forward_solve"}
    assert len(solves) >= 3
    for idx, steps_taken in solves.items():
        calls = sum(
            1 for i, s in enumerate(tracer.spans) if s.name == FORWARD and _nearest(tracer, i, SOLVE) == idx
        )
        assert calls == steps_taken + 1


@pytest.mark.parametrize("solver_mode", ["implicit", "direct_5"])
def test_step_self_times_sum_to_step_span(solver_mode):
    tracer = _tiny_traced_train(solver_mode, steps=3)
    totals, roots, bad = tr.step_sum_check(tracer)
    assert sorted(roots) == [0, 1, 2]
    assert bad == []
    adam_steps = [s.step for s in tracer.spans if s.name == tr.ADAM]
    assert adam_steps == [0, 1, 2]


def test_missing_function_is_reported_absent_and_originals_restored():
    original = training.train
    tracer = tr.Tracer(layers={"training": ("train", "no_such_function"), "no_such_module": ("f",)})
    with tracer:
        assert training.train is not original
    assert training.train is original
    assert tracer.absent == ["training.no_such_function", "no_such_module.f"]


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of each workload at the shortest length (seed 3)."""
    out = {}
    for workload in bench.WORKLOADS:
        repeats = 1 if workload == "cifar10-implicit" else 2
        out[workload] = [bench.run(workload, seed=3, seconds=1, trace=True) for _ in range(repeats)]
    return out


def test_jacobian_penalty_calls_per_step(traced_runs):
    for workload, runs in traced_runs.items():
        expected = 97.0 if workload == "mnist4-amp-implicit-jac" else 0.0  # 1 penalty + 2 x 48 theta FD
        assert runs[0]["metrics"][JAC]["value"] == expected, workload


def test_traced_counts_repeat_exactly(traced_runs):
    for workload, runs in traced_runs.items():
        assert all(r["correct"] for r in runs), [r["problems"] for r in runs]
        if len(runs) < 2:
            continue
        first, second = ({k: v["value"] for k, v in r["metrics"].items() if k.endswith("calls_per_step")} for r in runs)
        assert first == second, workload


def test_metric_names_match_benchmark_json(traced_runs):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for runs in traced_runs.values():
        assert {k: v["unit"] for k, v in runs[0]["metrics"].items()} == per_layer
    untraced = bench.run("mnist4-angle-direct5", seed=3, seconds=1, trace=False)
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "mnist4-angle-direct5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
