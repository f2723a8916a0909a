"""Acceptance gate: one test per criterion, one PASS/FAIL line each, and a check that criterion 1
can fail.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria that need the
official datasets skip unless QDEQ_DATA_DIR points at them; full-budget
reproduction runs additionally require QDEQ_RUN_SLOW=1.
"""
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from qdeq import simcore
from qdeq.bounds import (
    verify_amplitude_overlap,
    verify_angle_overlap,
    verify_contraction_bound,
    verify_trig_inequality,
)
from qdeq.datasets import prepare_bundle
from qdeq.deqsolve import (
    BroydenConfig,
    direct_unroll_batch,
    forward_fixed_point_batch,
    implicit_backward_batch,
    unroll_backward_batch,
)
from qdeq.qmodel import build_default_model
from qdeq.training import TrainConfig, build_from_config, train

from conftest import require_dataset, require_slow, universality_stack, worst_gradient_gap
from test_deqsolve import LinearLayer

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(number: int, ok: bool, detail: str):
    print(f"\n[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _load_config(name: str, **overrides) -> TrainConfig:
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw.update(overrides)
    return TrainConfig.from_dict(raw)


def _run_config(cfg: TrainConfig, data_dir, subset=None):
    bundle = prepare_bundle(cfg.dataset, data_dir, cfg.seed, subset=subset)
    model, head = build_from_config(cfg)
    metrics, _ = train(bundle, model, head, cfg)
    return bundle, model, head, metrics


def test_criterion_1_gradient_oracle_suite():
    """The library's adjoint and the dense oracle's parameter shift and central differences agree to 1e-6
    pairwise."""
    start = time.monotonic()
    worst = worst_gradient_gap()
    elapsed = time.monotonic() - start
    _report(
        1,
        worst < 1e-6 and elapsed < 60.0,
        f"50 circuits, worst pairwise gradient gap {worst:.2e} (tol 1e-6), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_1_fails_on_a_seeded_compile_fault(monkeypatch):
    # RX and RY trade generators in the gate library: the compiled program, and so the adjoint,
    # runs RY where the circuit says RX, while the oracle runs the circuit as written
    library = simcore._gate_library

    def swapped(w):
        basis, generator = library(w)  # rotation codes: RX on qubit t is t, RY is w + t
        return basis, generator[np.r_[w : 2 * w, :w, 2 * w : len(generator)]]

    monkeypatch.setattr(simcore, "_gate_library", swapped)
    assert worst_gradient_gap() > 1e-6


def test_criterion_2_appendix_verification_suite():
    """All bound verifiers report zero violations at the stated sample counts."""
    start = time.monotonic()
    amp = verify_amplitude_overlap(10000, seed=11)
    ang = verify_angle_overlap(3000, seed=12)
    trig = verify_trig_inequality(100000, seed=13)
    model = build_default_model("amplitude", 4, 16, seed=14)
    contr = verify_contraction_bound(model, 5000, seed=15)
    elapsed = time.monotonic() - start
    total = amp.violations + ang.violations + trig.violations + contr.violations
    _report(
        2,
        total == 0 and elapsed < 120.0,
        "violations amplitude={} angle={} trig={} contraction={}, {:.1f}s (< 120s)".format(
            amp.violations, ang.violations, trig.violations, contr.violations, elapsed
        ),
    )


def test_criterion_3_universality_stacking():
    """Stacked weight-tied evaluation equals sequential evaluation to 1e-12."""
    worst = 0.0
    for depth in (1, 2, 3):
        base = build_default_model("amplitude", 2, 4, seed=20 + depth, random_ops=6)
        rng = np.random.default_rng(30 + depth)
        models = [
            dataclasses.replace(base, theta=rng.uniform(0, 2 * np.pi, base.num_params))
            for _ in range(depth)
        ]
        x = rng.uniform(0.1, 1.0, size=4)
        stack = universality_stack(models, x)
        z = np.zeros((1, 4))
        sequential = [x]
        for m in models:
            z = m.forward_batch(z, x[None])
            sequential.append(z[0])
        worst = max(
            worst, max(np.abs(stack[i] - sequential[i]).max() for i in range(depth + 1))
        )
    _report(3, worst < 1e-12, f"block mismatch {worst:.2e} over L in {{1,2,3}} (tol 1e-12)")


def test_criterion_4_implicit_gradient_fidelity():
    """Implicit backward matches the closed form (1e-8) and a 60-layer unroll (1e-3)."""
    rng = np.random.default_rng(40)
    n, p = 6, 4
    A = rng.normal(size=(n, n))
    A *= 0.6 / np.abs(np.linalg.eigvals(A)).max()
    layer = LinearLayer(A, rng.normal(size=(n, p)), rng.normal(size=p))
    x = rng.normal(size=(1, n))
    lg = rng.normal(size=(1, n))
    res = forward_fixed_point_batch(layer, x, BroydenConfig(max_steps=60, abs_tol=1e-12))
    dtheta, _ = implicit_backward_batch(layer, x, res.z_star, lg)
    closed = layer.B.T @ np.linalg.solve(np.eye(n) - A.T, lg[0])
    linear_err = np.abs(dtheta - closed).max()

    model = build_default_model("amplitude", 2, 4, seed=3, random_ops=8)
    xq = np.array([[0.9, 0.3, 0.4, 0.1]])
    fp = forward_fixed_point_batch(model, xq)
    lgq = np.random.default_rng(41).normal(size=(1, 4))
    dth, _ = implicit_backward_batch(model, xq, fp.z_star, lgq)
    unrolled = unroll_backward_batch(model, direct_unroll_batch(model, xq, 60), lgq)
    rel = np.linalg.norm(dth - unrolled) / np.linalg.norm(unrolled)
    _report(
        4,
        linear_err < 1e-8 and rel < 1e-3,
        f"linear closed-form gap {linear_err:.2e} (tol 1e-8), quantum vs 60-layer unroll {rel:.2e} (tol 1e-3)",
    )


@pytest.fixture(scope="session")
def mnist4_warmup_run():
    data = require_dataset("mnist4")
    require_slow()
    cfg = _load_config("mnist4_amp_implicit_warmup.json")
    return _run_config(cfg, data)


@pytest.mark.slow
def test_criterion_5_mnist4_reproduction(mnist4_warmup_run):
    """Full-budget MNIST-4 amplitude runs reach >= 90% test accuracy."""
    data = require_dataset("mnist4")
    cfg_direct = _load_config("mnist4_amp_direct1.json")
    _, _, _, direct_metrics = _run_config(cfg_direct, data)
    warmup_metrics = mnist4_warmup_run[3]
    ok = (
        direct_metrics.test_acc >= 90.0
        and warmup_metrics.test_acc >= 90.0
        and warmup_metrics.test_residual <= 1e-2
    )
    _report(
        5,
        ok,
        "direct_1 acc {:.2f}% (>= 90, paper 93.5), implicit_warmup acc {:.2f}% (>= 90, paper 93.4), "
        "residual {:.2e} (<= 1e-2, paper 6.982e-4)".format(
            direct_metrics.test_acc, warmup_metrics.test_acc, warmup_metrics.test_residual
        ),
    )


@pytest.mark.slow
def test_criterion_6_angle_ordering_trend():
    """Across 3 seeds, MNIST-4 angle Implicit beats Direct(1) on average."""
    data = require_dataset("mnist4")
    require_slow()
    gaps = []
    for seed in (0, 1, 2):
        _, _, _, implicit = _run_config(_load_config("mnist4_angle_implicit.json", seed=seed), data)
        _, _, _, direct = _run_config(_load_config("mnist4_angle_direct1.json", seed=seed), data)
        gaps.append(implicit.test_acc - direct.test_acc)
    mean_gap = float(np.mean(gaps))
    _report(
        6,
        mean_gap >= 0.0,
        f"implicit minus direct_1 gaps {['%.2f' % g for g in gaps]}, mean {mean_gap:.2f} (>= 0; paper 85.8 vs 83.9)",
    )


def test_criterion_7_smoke_mnist4():
    """2000-sample MNIST-4 subset, 25 epochs of implicit_warmup: >= 80% in < 15 min."""
    data = require_dataset("mnist4")
    cfg = _load_config(
        "mnist4_amp_implicit_warmup.json", epochs=25, warmup_steps=70
    )  # 1600-sample train split = 7 steps/epoch; 70 steps = 10 warm-up epochs
    start = time.monotonic()
    _, _, _, metrics = _run_config(cfg, data, subset=2000)
    elapsed = time.monotonic() - start
    _report(
        7,
        metrics.test_acc >= 80.0 and elapsed < 900.0,
        f"test acc {metrics.test_acc:.2f}% (>= 80), {elapsed:.0f}s (< 900s)",
    )


@pytest.mark.slow
def test_criterion_8_fixed_point_convergence(mnist4_warmup_run):
    """>= 95% of test samples converge to 1e-2 within the 10-step Broyden budget."""
    bundle, model, head, _ = mnist4_warmup_run
    converged = []
    for start in range(0, bundle.x_test.shape[0], 256):
        fp = forward_fixed_point_batch(model, bundle.x_test[start : start + 256], BroydenConfig())
        converged.append(fp.residual <= 1e-2)
    rate = 100.0 * np.concatenate(converged).mean()
    _report(8, rate >= 95.0, f"{rate:.2f}% of test samples reach residual <= 1e-2 in 10 steps (>= 95%)")


@pytest.mark.slow
def test_criterion_9_ten_class_extended():
    """Optional extended criterion: MNIST-10 >= 68%, FashionMNIST-10 >= 66%."""
    require_slow()
    results = {}
    for dataset, config_name, floor in (
        ("mnist10", "mnist10_implicit.json", 68.0),
        ("fashionmnist10", "fashionmnist10_implicit.json", 66.0),
    ):
        data = require_dataset(dataset)
        _, _, _, metrics = _run_config(_load_config(config_name), data)
        results[dataset] = (metrics.test_acc, floor)
    ok = all(acc >= floor for acc, floor in results.values())
    detail = ", ".join(f"{k} {acc:.2f}% (>= {floor})" for k, (acc, floor) in results.items())
    _report(9, ok, detail + " (paper 73.68 / 72.11)")
