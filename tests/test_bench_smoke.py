"""Smoke runs of the benchmark command on each of its three workloads."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_and_check(workload, seed=97):
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    finally:
        shutil.rmtree(ROOT / ".bench_work" / f"{workload}-seed{seed}-trace0", ignore_errors=True)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


def test_benchmark_command_runs_and_passes_its_gate():
    _run_and_check("mnist4-angle-direct5")


def test_benchmark_command_passes_its_gate_with_the_jacobian_penalty():
    # the gate's gradient checks and the bit-identical repeats, on the penalized implicit path
    _run_and_check("mnist4-amp-implicit-jac")


def test_benchmark_command_passes_its_gate_on_the_ten_qubit_workload():
    # Q=10 amplitude encoding: 100 occupied amplitudes padded into 1024
    _run_and_check("cifar10-implicit")
