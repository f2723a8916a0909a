"""Head, loss, Adam, the train/evaluate loops, and checkpoint round-trips."""
import dataclasses
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qdeq import deqsolve, qmodel, simcore, training
from qdeq.datasets import DataBundle
from qdeq.deqsolve import BroydenConfig, direct_unroll_batch, implicit_backward_batch, unroll_backward_batch
from qdeq.errors import (
    ConfigError, DataFormatError, DegenerateInputError, DimensionError, SolverDivergedError, TrainingAborted,
)
from qdeq.qmodel import QuantumModel
from qdeq.seeding import substream
from qdeq.training import (
    AdamState,
    ClassifierHead,
    SolverMode,
    TrainConfig,
    adam_step,
    build_from_config,
    cross_entropy_batch,
    evaluate,
    head_forward_batch,
    init_head,
    load_checkpoint,
    save_checkpoint,
    train,
)

from conftest import synthetic_bundle


def _quick_config(**overrides):
    base = dict(
        dataset="mnist4",
        solver_mode="implicit_warmup",
        learning_rate=0.05,
        epochs=3,
        batch_size=64,
        warmup_steps=7,
        seed=42,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestHead:
    def test_identity_head_passthrough(self):
        head = ClassifierHead(weight=np.eye(4), bias=np.zeros(4), dropout_p=0.0)
        z = np.array([0.1, -0.3, 0.5, 0.9])
        logits, _ = head_forward_batch(head, z[None], train_mode=True)
        assert np.array_equal(logits[0], z)

    def test_dropout_probability_one_rejected(self):
        with pytest.raises(ConfigError):
            ClassifierHead(weight=np.eye(2), bias=np.zeros(2), dropout_p=1.0)

    def test_mask_deterministic_for_fixed_rng_state(self):
        head = ClassifierHead(weight=np.eye(4), bias=np.zeros(4), dropout_p=0.5)
        z = np.ones((8, 4))
        a, mask_a = head_forward_batch(head, z, True, substream(0, "dropout", 3))
        b, mask_b = head_forward_batch(head, z, True, substream(0, "dropout", 3))
        assert np.array_equal(a, b) and np.array_equal(mask_a, mask_b)

    def test_eval_mode_ignores_dropout(self):
        head = ClassifierHead(weight=np.eye(3), bias=np.ones(3), dropout_p=0.9)
        z = np.array([1.0, 2.0, 3.0])
        logits, _ = head_forward_batch(head, z[None], train_mode=False)
        assert np.array_equal(logits[0], z + 1.0)

    def test_survivors_scaled(self):
        head = ClassifierHead(weight=np.eye(2), bias=np.zeros(2), dropout_p=0.5)
        _, mask = head_forward_batch(head, np.ones((100, 2)), True, substream(1, "dropout", 0))
        values = np.unique(mask)
        assert set(values.tolist()) <= {0.0, 2.0}


class TestCrossEntropy:
    def test_confident_correct_logits(self):
        # softmax arithmetic oracle: -log sigmoid(20) = log(1 + exp(-20))
        assert cross_entropy_batch(np.array([[10.0, -10.0]]), np.array([0]))[0] == pytest.approx(
            math.log1p(math.exp(-20.0)), rel=1e-12
        )

    def test_uniform_logits(self):
        assert cross_entropy_batch(np.zeros((1, 4)), np.array([2]))[0] == pytest.approx(math.log(4.0), rel=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        loss, grad = cross_entropy_batch(np.zeros((1, 4)), np.array([1]))
        expected = np.full(4, 0.25)
        expected[1] -= 1.0
        assert np.allclose(grad[0], expected, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(Exception):
            cross_entropy_batch(np.zeros((1, 3)), np.array([5]))

    def test_extreme_logits_stay_finite(self):
        loss, grad = cross_entropy_batch(np.array([[1e4, -1e4, 0.0]]), np.array([2]))
        assert np.isfinite(loss) and np.isfinite(grad).all()


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        cfg = _quick_config()
        params = [np.array([1.0, 2.0])]
        state = AdamState.init(params)
        adam_step(params, [np.zeros(2)], state, cfg)
        assert np.array_equal(params[0], [1.0, 2.0])

    def test_first_step_magnitude_is_learning_rate(self):
        cfg = _quick_config(learning_rate=0.05)
        params = [np.array([0.0, 0.0])]
        state = AdamState.init(params)
        adam_step(params, [np.array([3.0, -7.0])], state, cfg)
        # bias correction at t=1 collapses the update to lr * sign(g)
        assert np.allclose(params[0], [-0.05, 0.05], atol=1e-6)

    def test_nonfinite_gradient_skips_step(self):
        cfg = _quick_config()
        params = [np.array([1.0])]
        state = AdamState.init(params)
        adam_step(params, [np.array([np.nan])], state, cfg)
        assert state.skipped == 1 and state.t == 0
        assert np.array_equal(params[0], [1.0])

    def test_deterministic(self):
        cfg = _quick_config()
        runs = []
        for _ in range(2):
            params = [np.array([0.3, -0.4])]
            state = AdamState.init(params)
            for t in range(5):
                adam_step(params, [np.array([0.1 * t, -0.2])], state, cfg)
            runs.append(params[0].copy())
        assert np.array_equal(runs[0], runs[1])


class TestConfig:
    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            TrainConfig.from_dict(
                {"dataset": "mnist4", "solver_mode": "implicit", "learning_rate": 0.05, "lr": 1}
            )

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing"):
            TrainConfig.from_dict({"dataset": "mnist4"})

    def test_round_trip(self):
        cfg = _quick_config()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_solver_mode_parsing(self):
        assert SolverMode.parse("direct_5") == SolverMode("direct", 5)
        assert SolverMode.parse("implicit").implicit_family
        with pytest.raises(ConfigError):
            SolverMode.parse("direct_0")
        with pytest.raises(ConfigError):
            SolverMode.parse("newton")

    def test_validation(self):
        with pytest.raises(ConfigError):
            _quick_config(jac_loss_freq=1.5)
        with pytest.raises(ConfigError):
            _quick_config(dropout_p=1.0)
        with pytest.raises(ConfigError):
            _quick_config(dataset="imagenet")
        with pytest.raises(ConfigError):
            _quick_config(encoding="angle", dataset="mnist10")

    def test_eleven_fields(self):
        assert len(dataclasses.fields(TrainConfig)) == 11

    @pytest.mark.parametrize("key", ["warmup_depth", "jac_probes", "adam_beta1", "adam_beta2", "adam_eps"])
    def test_removed_keys_rejected_by_name(self, key):
        raw = {"dataset": "mnist4", "solver_mode": "implicit", "learning_rate": 0.05, key: 1}
        with pytest.raises(ConfigError, match=key):
            TrainConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("epochs", "3"),
            ("epochs", 2.5),
            ("batch_size", True),
            ("seed", None),
            ("warmup_steps", 1.0),
            ("learning_rate", float("nan")),
            ("learning_rate", "0.05"),
            ("learning_rate", float("inf")),
            pytest.param("learning_rate", 10**400, id="learning_rate-huge-int"),
            ("jac_loss_weight", -0.5),
            ("jac_loss_weight", float("nan")),
            ("jac_loss_freq", False),
            ("dropout_p", [0.1]),
            ("dataset", 4),
            ("solver_mode", None),
        ],
    )
    def test_field_types_and_ranges_checked(self, key, value):
        raw = {"dataset": "mnist4", "solver_mode": "implicit", "learning_rate": 0.05, key: value}
        with pytest.raises(ConfigError, match=key):
            TrainConfig.from_dict(raw)

    def test_integer_valued_floats_accepted(self):
        cfg = TrainConfig.from_dict({"dataset": "mnist4", "solver_mode": "implicit", "learning_rate": 1})
        assert cfg.learning_rate == 1

    @pytest.mark.parametrize(
        "text", ["direct_1_0", "direct_ 5", "direct_+5", "direct_05", "direct_\u0665", "direct_5\n"]
    )
    def test_solver_mode_depth_must_be_canonical(self, text):
        # int() reads each of these as 10 or 5; only "direct_<depth>" as str(depth) prints it parses
        with pytest.raises(ConfigError, match="solver_mode"):
            SolverMode.parse(text)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the substreams keep 64 bits of the seed, so 2**64 would build what seed 0 builds
        with pytest.raises(ConfigError, match="seed"):
            _quick_config(seed=seed)

    def test_seed_range_ends_accepted(self):
        assert _quick_config(seed=0).seed == 0
        assert _quick_config(seed=2**64 - 1).seed == 2**64 - 1


class TestTrainLoop:
    def test_overfits_tiny_subset_with_direct_one(self):
        bundle = synthetic_bundle(n_train=32, n_val=16, n_test=16, noise=0.05)
        cfg = _quick_config(
            solver_mode="direct_1", epochs=200, batch_size=32, warmup_steps=0, dropout_p=0.0,
            learning_rate=0.05,
        )
        model, head = build_from_config(cfg)
        metrics, _ = train(bundle, model, head, cfg)
        best = max(row["train_acc"] for row in metrics.epochs)
        reached = [row["epoch"] for row in metrics.epochs if row["train_acc"] == 100.0]
        assert best == 100.0 and reached[0] < 200

    def test_warmup_accounting_and_phases(self, small_bundle):
        cfg = _quick_config(epochs=3, batch_size=64, warmup_steps=10)
        model, head = build_from_config(cfg)
        metrics, adam = train(small_bundle, model, head, cfg)
        steps_per_epoch = math.ceil(small_bundle.x_train.shape[0] / cfg.batch_size)
        assert steps_per_epoch == 7
        assert adam.t == cfg.epochs * steps_per_epoch  # warm-up counts toward the total
        assert metrics.epochs[0]["phase"] == "warmup"
        assert metrics.epochs[1]["phase"] == "mixed"  # boundary falls mid-epoch
        assert metrics.epochs[2]["phase"] == "implicit"

    def test_deterministic_metrics(self, small_bundle):
        cfg = _quick_config(epochs=2)
        histories = []
        for _ in range(2):
            model, head = build_from_config(cfg)
            metrics, _ = train(small_bundle, model, head, cfg)
            histories.append(metrics.epochs)
        assert histories[0] == histories[1]

    def test_loss_decreases_over_first_epochs(self):
        bundle = synthetic_bundle(n_train=600)
        cfg = _quick_config(epochs=5, warmup_steps=10)
        model, head = build_from_config(cfg)
        metrics, _ = train(bundle, model, head, cfg)
        losses = [row["train_loss"] for row in metrics.epochs]
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert violations <= 1

    def test_direct_two_gradient_matches_finite_differences(self):
        # end-to-end dtheta on one batch vs central differences of the scalar loss
        rng = np.random.default_rng(0)
        cfg = _quick_config(solver_mode="direct_2", dropout_p=0.0)
        model, head = build_from_config(cfg)
        xb = rng.uniform(0.1, 1.0, size=(8, 16))
        yb = rng.integers(0, 4, size=8)

        def batch_loss():
            iterates = direct_unroll_batch(model, xb, 2).iterates
            logits, _ = head_forward_batch(head, iterates[-1], train_mode=False)
            loss, _ = cross_entropy_batch(logits, yb)
            return loss

        unroll = direct_unroll_batch(model, xb, 2)
        logits, mask = head_forward_batch(head, unroll.iterates[-1], train_mode=False)
        _, dlogits = cross_entropy_batch(logits, yb)
        dz = (dlogits @ head.weight) * mask
        dtheta = unroll_backward_batch(model, unroll, dz)
        eps = 1e-5
        for j in range(0, model.num_params, 5):
            model.theta[j] += eps
            up = batch_loss()
            model.theta[j] -= 2 * eps
            down = batch_loss()
            model.theta[j] += eps
            fd = (up - down) / (2 * eps)
            assert abs(dtheta[j] - fd) <= 1e-4 * max(1.0, abs(fd))

    @pytest.mark.parametrize(
        "encoding, solver_mode, jac_loss_weight, sweeps",
        [
            ("amplitude", "implicit", 0.0, 1),
            ("amplitude", "implicit", 0.5, 1),
            ("angle", "implicit", 0.5, 1),
            ("angle", "direct_5", 0.0, 1),
        ],
    )
    def test_each_step_sweeps_only_the_basis_rows(
        self, small_bundle, monkeypatch, encoding, solver_mode, jac_loss_weight, sweeps
    ):
        # every reverse pass of a step runs on the d = 16 basis rows, never on the 400 batch rows:
        # the bra term of each stretch (one at Q=4) has d rows; the Jacobian penalty's
        # theta-gradient rides in the implicit backward's one sweep
        rows = []
        original = qmodel.adjoint_sweep

        def recording(ops, final_states, bra, **kwargs):
            rows.append([None if term is None else term.shape[0] for term in bra])
            return original(ops, final_states, bra, **kwargs)

        monkeypatch.setattr(qmodel, "adjoint_sweep", recording)
        cfg = _quick_config(
            encoding=encoding, epochs=1, batch_size=small_bundle.x_train.shape[0], solver_mode=solver_mode,
            warmup_steps=0, jac_loss_weight=jac_loss_weight, jac_loss_freq=1.0,
        )
        model, head = build_from_config(cfg)
        _, adam = train(small_bundle, model, head, cfg)
        assert adam.t == 1
        assert rows == [[16]] * sweeps

    @pytest.mark.parametrize(
        "encoding, solver_mode, jac_loss_weight",
        [("amplitude", "implicit", 0.5), ("angle", "implicit", 0.5), ("amplitude", "direct_5", 0.0),
         ("angle", "direct_5", 0.0)],
    )
    def test_circuit_runs_once_per_theta_on_the_basis_rows(
        self, small_bundle, monkeypatch, encoding, solver_mode, jac_loss_weight
    ):
        # the forward, the reverse passes and evaluate all read one compile per theta, built on the
        # d = 16 basis rows, never on the 32- or 8-row batches; the sweep reuses the compile's run
        # matrices and kets instead of building its own
        calls, builds = [], []
        original, original_compile = qmodel.apply_cone, simcore._compile

        def recording(ops, states):
            calls.append((states.shape[0], model.theta.tobytes()))
            return original(ops, states)

        def recording_compile(gates, angles, num_qubits):
            builds.append(model.theta.tobytes())
            return original_compile(gates, angles, num_qubits)

        monkeypatch.setattr(qmodel, "apply_cone", recording)
        monkeypatch.setattr(simcore, "_compile", recording_compile)
        cfg = _quick_config(
            encoding=encoding, epochs=1, batch_size=32, solver_mode=solver_mode, warmup_steps=0,
            jac_loss_weight=jac_loss_weight, jac_loss_freq=1.0,
        )
        model, head = build_from_config(cfg)
        _, adam = train(small_bundle, model, head, cfg)
        evaluate(model, head, small_bundle.x_test, small_bundle.y_test, SolverMode.parse(solver_mode), batch_size=8)
        assert adam.t == 13
        assert [rows for rows, _ in calls] == [16] * (adam.t + 1)
        assert len({theta for _, theta in calls}) == adam.t + 1
        assert len(builds) == len(set(builds)) == adam.t + 1

    def test_ten_qubit_model_builds_and_applies_only_sixteen_by_sixteen_matrices(self, monkeypatch):
        # the staircase meets the d = 100 basis rows as fused runs on 4 adjacent qubits: every
        # matrix the compile builds and every step that either pass applies is 16 x 16, and no
        # lone-gate path (a gather over all 2**10 amplitudes) runs
        built, applied = [], []
        original_compile, original_step = simcore._compile, simcore._apply_step

        def recording_compile(gates, angles, num_qubits):
            program = original_compile(gates, angles, num_qubits)
            built.extend((run.offset is not None, run.unitary.shape, np.shape(run.suffixes)[1:],
                          np.shape(run.generators)[1:]) for run in program)
            return program

        def recording_step(states, offset, step):
            applied.append((offset is not None, step.shape))
            return original_step(states, offset, step)

        monkeypatch.setattr(simcore, "_compile", recording_compile)
        monkeypatch.setattr(simcore, "_apply_step", recording_step)
        X = np.random.default_rng(5).uniform(0.1, 1.0, size=(40, 100))
        y = np.arange(40) % 10
        bundle = DataBundle("mnist10", X[:32], y[:32], X[32:36], y[32:36], X[36:], y[36:])
        cfg = _quick_config(dataset="mnist10", solver_mode="implicit", epochs=1, batch_size=32, warmup_steps=0)
        model, head = build_from_config(cfg)
        _, adam = train(bundle, model, head, cfg)
        evaluate(model, head, bundle.x_test, bundle.y_test, SolverMode.parse("implicit"), batch_size=4)
        assert adam.t == 1
        assert len(built) == 4 * 2  # four runs, at the initial and the updated theta
        assert set(built) == {(True, (16, 16), (16, 16), (16, 16))}
        assert applied and set(applied) == {(True, (16, 16))}

    def test_jacobian_penalty_changes_gradient_path(self, small_bundle):
        cfg = _quick_config(
            epochs=1, warmup_steps=0, solver_mode="implicit",
            jac_loss_weight=0.5, jac_loss_freq=1.0, batch_size=400,
        )
        model, head = build_from_config(cfg)
        metrics, _ = train(small_bundle, model, head, cfg)
        cfg_off = dataclasses.replace(cfg, jac_loss_weight=0.0)
        model2, head2 = build_from_config(cfg_off)
        metrics_off, _ = train(small_bundle, model2, head2, cfg_off)
        assert metrics.epochs[0]["train_loss"] > metrics_off.epochs[0]["train_loss"]

    def test_jacobian_penalty_restores_theta_on_error(self, small_bundle, monkeypatch):
        # the exact penalty never perturbs theta; a failure in its one sweep leaves theta as it was
        cfg = _quick_config(epochs=1, warmup_steps=0, solver_mode="implicit")
        model, _ = build_from_config(cfg)
        before = model.theta.copy()
        calls = []

        def failing_sweep(self, psi, cotangents, encode_jvp=None, tangents=None):
            calls.append(tangents)
            raise DegenerateInputError("sweep failed", rows=np.array([0]))

        monkeypatch.setattr(QuantumModel, "pullback_theta", failing_sweep)
        xb = small_bundle.x_train[:8]
        with pytest.raises(DegenerateInputError):
            implicit_backward_batch(model, xb, np.zeros_like(xb), np.ones(xb.shape), jac_weight=0.5)
        assert len(calls) == 1 and calls[0] is not None
        assert model.theta.tobytes() == before.tobytes()

    def test_penalized_epoch_draws_no_probe(self, small_bundle, monkeypatch):
        names = []

        def recording(seed, name, *indices):
            names.append(name)
            return substream(seed, name, *indices)

        monkeypatch.setattr(training, "substream", recording)
        cfg = _quick_config(epochs=1, warmup_steps=0, solver_mode="implicit", jac_loss_weight=0.5, jac_loss_freq=1.0)
        model, head = build_from_config(cfg)
        _, adam = train(small_bundle, model, head, cfg)
        assert adam.t > 0 and names.count("jac-gate") == adam.t
        assert "jac-probes" not in names

    @staticmethod
    def _dense_penalty(model, Z, X):
        """mean_b ||J_b||_F^2 from the rows J_b^T e_i of n vjps with the basis cotangents e_i."""
        total = 0.0
        for e in np.eye(X.shape[1]):
            rows = model.backward_batch(Z, X, np.tile(e, (X.shape[0], 1)), need_theta=False)[0]
            total += np.sum(rows * rows)
        return total / X.shape[0]

    @pytest.mark.parametrize(
        "dataset, encoding, batch, slots",
        [
            ("mnist4", "amplitude", 16, None),
            ("mnist4", "angle", 16, None),
            ("cifar10", "amplitude", 3, 12),
        ],
    )
    def test_jacobian_penalty_grad_matches_theta_differences(self, dataset, encoding, batch, slots):
        # oracle: the dense ||J_b||_F^2 from n vjps, and its central differences in theta
        cfg = _quick_config(dataset=dataset, encoding=encoding, solver_mode="implicit")
        model, _ = build_from_config(cfg)
        rng = np.random.default_rng(5)
        n = cfg.shape[1]
        X = rng.uniform(0.1, 1.0, size=(batch, n))
        Z = rng.uniform(-0.5, 0.5, size=(batch, n))
        idx = np.arange(model.num_params)
        if slots is not None:
            idx = np.sort(rng.choice(model.num_params, size=slots, replace=False))
        grad, value = implicit_backward_batch(model, X, Z, np.zeros((batch, n)), jac_weight=1.0)
        assert value == pytest.approx(self._dense_penalty(model, Z, X), rel=1e-12)
        step = 1e-5
        oracle = np.empty(idx.shape[0])
        for k, j in enumerate(idx):
            orig = model.theta[j]
            model.theta[j] = orig + step
            up = self._dense_penalty(model, Z, X)
            model.theta[j] = orig - step
            down = self._dense_penalty(model, Z, X)
            model.theta[j] = orig
            oracle[k] = (up - down) / (2.0 * step)
        assert grad[idx] == pytest.approx(oracle, rel=1e-5, abs=1e-8)

    def test_diverged_backward_skips_its_batch(self, small_bundle, monkeypatch):
        # a diverged adjoint solve skips that batch's Adam step; training carries on
        calls = []
        original = deqsolve.implicit_backward_batch

        def diverge_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise SolverDivergedError("non-finite solver values at step 3", step=3)
            return original(*args, **kwargs)

        monkeypatch.setattr(deqsolve, "implicit_backward_batch", diverge_once)
        cfg = _quick_config(epochs=1, batch_size=32, warmup_steps=0, solver_mode="implicit")
        model, head = build_from_config(cfg)
        metrics, adam = train(small_bundle, model, head, cfg)
        steps_per_epoch = math.ceil(small_bundle.x_train.shape[0] / cfg.batch_size)
        assert len(calls) == steps_per_epoch
        assert adam.t == steps_per_epoch - 1
        assert np.isfinite(metrics.epochs[0]["train_loss"])

    def test_divergence_aborts_with_diagnostics(self, small_bundle):
        cfg = _quick_config(epochs=1, warmup_steps=0, solver_mode="implicit")
        model, head = build_from_config(cfg)
        model.theta[:] = np.nan
        with pytest.raises(TrainingAborted) as err:
            train(small_bundle, model, head, cfg)
        assert "diverged_batches" in err.value.diagnostics

    @pytest.mark.parametrize("solver_mode", ["direct_1", "implicit"])
    def test_zero_input_row_skips_its_batch(self, small_bundle, solver_mode):
        # amplitude encoding rejects an all-zero row; its batch is skipped and
        # counted toward the 10% abort instead of ending the run
        bundle = dataclasses.replace(small_bundle, x_train=small_bundle.x_train.copy())
        bundle.x_train[5] = 0.0
        cfg = _quick_config(epochs=1, batch_size=32, warmup_steps=0, solver_mode=solver_mode)
        model, head = build_from_config(cfg)
        metrics, adam = train(bundle, model, head, cfg)
        steps_per_epoch = math.ceil(bundle.x_train.shape[0] / cfg.batch_size)
        assert steps_per_epoch >= 10
        assert adam.t == steps_per_epoch - 1
        assert np.isfinite(metrics.epochs[0]["train_loss"])

    @pytest.mark.parametrize("row", [3, 70])
    @pytest.mark.parametrize("solver_mode", ["direct_1", "implicit"])
    def test_unencodable_held_out_row_fails_only_its_batch(self, small_bundle, solver_mode, row):
        # an all-zero validation row fails its evaluation batch: training still
        # finishes, and that batch's rows count as misclassified with residual inf;
        # row 70 sits in the third of the four batches that evaluate solves at once
        bundle = dataclasses.replace(small_bundle, x_val=small_bundle.x_val.copy())
        bundle.x_val[row] = 0.0
        cfg = _quick_config(epochs=1, batch_size=32, warmup_steps=0, solver_mode=solver_mode)
        model, head = build_from_config(cfg)
        metrics, _ = train(bundle, model, head, cfg)
        mode = SolverMode.parse(solver_mode)
        acc, residual = evaluate(model, head, bundle.x_val, bundle.y_val, mode, batch_size=32)
        rest = np.r_[: row - row % 32, row - row % 32 + 32 : bundle.x_val.shape[0]]
        rest_acc, rest_residual = evaluate(
            model, head, bundle.x_val[rest], bundle.y_val[rest], mode, batch_size=32
        )
        n_val, n_rest = bundle.x_val.shape[0], bundle.x_val.shape[0] - 32
        assert metrics.epochs[0]["val_acc"] == acc
        assert acc == pytest.approx(rest_acc * n_rest / n_val, rel=1e-12)
        assert residual == np.inf and np.isfinite(rest_residual)
        assert np.isfinite(metrics.test_residual)

    @pytest.mark.parametrize("chunk_batches", [None, 1, 2])
    @pytest.mark.parametrize(
        "encoding, num_qubits, input_dim, solver_mode",
        [("amplitude", 4, 16, "implicit"), ("angle", 4, 16, "implicit"), ("amplitude", 4, 16, "direct_1"),
         ("angle", 4, 16, "direct_5"), ("amplitude", 10, 100, "implicit")],
    )
    def test_evaluate_solves_whole_chunks_as_batch_by_batch(
        self, encoding, num_qubits, input_dim, solver_mode, chunk_batches, monkeypatch
    ):
        # 36 rows in batches of 8, the last of 4: the same accuracy and residual as one solve_batch
        # per batch, from one solve_batch per chunk; chunk_batches sets the byte budget to that many
        # batches of 8 K d bytes a row and unroll layer (None: the default budget, one chunk here)
        rng = np.random.default_rng(11)
        model = qmodel.build_default_model(encoding, num_qubits, input_dim, seed=3)
        classes = 4 if num_qubits == 4 else 10
        head = init_head(classes, input_dim, 0.0, rng)
        X, y = rng.uniform(0.0, 1.0, size=(36, input_dim)), rng.integers(0, classes, size=36)
        mode = SolverMode.parse(solver_mode)
        correct, residuals = 0, []
        for lo in range(0, 36, 8):
            z, residual, _, _ = deqsolve.solve_batch(model, X[lo : lo + 8], mode.depth)
            correct += int((head_forward_batch(head, z, train_mode=False)[0].argmax(axis=1) == y[lo : lo + 8]).sum())
            residuals.append(residual)
        if chunk_batches is not None:
            row_bytes = 8 * model.ensemble.size * model.encoding.width * max(1, mode.depth)
            monkeypatch.setattr(training, "_EVAL_CHUNK_BYTES", chunk_batches * 8 * row_bytes)
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(len(args[1]))
            return deqsolve.solve_batch(*args, **kwargs)

        monkeypatch.setattr(training, "solve_batch", counting_solve)
        acc, residual = evaluate(model, head, X, y, mode, batch_size=8)
        assert acc == 100.0 * correct / 36 and residual == float(np.concatenate(residuals).mean())
        assert calls == {None: [36], 1: [8, 8, 8, 8, 4], 2: [16, 16, 4]}[chunk_batches]

    @pytest.mark.parametrize("split", ["x_train", "x_val", "x_test"])
    def test_empty_split_rejected_before_first_step(self, small_bundle, split):
        bundle = dataclasses.replace(small_bundle, **{split: getattr(small_bundle, split)[:0]})
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        before = model.theta.copy()
        with pytest.raises(DimensionError, match=split):
            train(bundle, model, head, cfg)
        assert model.theta.tobytes() == before.tobytes()

    @pytest.mark.parametrize("split, label", [("train", -1), ("val", 4), ("test", -1), ("train", 0.5)])
    def test_out_of_range_label_rejected_before_first_step(self, small_bundle, split, label):
        # cross-entropy would score a label of -1 as the last class, and truncate 0.5 to class 0
        labels = getattr(small_bundle, f"y_{split}")
        labels = np.where(np.arange(len(labels)) == 3, label, labels)
        bundle = dataclasses.replace(small_bundle, **{f"y_{split}": labels})
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        before = model.theta.copy()
        with pytest.raises(DimensionError, match=f"y_{split}"):
            train(bundle, model, head, cfg)
        assert model.theta.tobytes() == before.tobytes()

    @pytest.mark.parametrize("split", ["x_train", "x_val", "x_test"])
    def test_wrong_feature_width_rejected_before_first_step(self, small_bundle, split):
        bundle = dataclasses.replace(small_bundle, **{split: getattr(small_bundle, split)[:, :15]})
        cfg = _quick_config(epochs=2)
        model, head = build_from_config(cfg)
        before, rows = model.theta.copy(), []
        with pytest.raises(DimensionError, match=f"{split}.*16 features"):
            train(bundle, model, head, cfg, log=rows.append)
        assert model.theta.tobytes() == before.tobytes()
        assert rows == []

    @pytest.mark.parametrize("split, value", [("x_train", np.nan), ("x_val", np.inf), ("x_test", -np.inf)])
    def test_non_finite_feature_rejected_before_first_step(self, small_bundle, split, value):
        # a NaN in x_train reached the encoder and aborted the epoch as "1 diverged or unencodable
        # batches": a data fault reported as solver divergence
        X = getattr(small_bundle, split).copy()
        X[37, 5] = value
        bundle = dataclasses.replace(small_bundle, **{split: X})
        cfg = _quick_config(epochs=1, batch_size=64)
        model, head = build_from_config(cfg)
        before = model.theta.copy()
        with pytest.raises(DimensionError, match=f"{split}.*non-finite feature in row 37"):
            train(bundle, model, head, cfg)
        assert model.theta.tobytes() == before.tobytes()

    def test_short_label_array_rejected_before_first_step(self, small_bundle):
        bundle = dataclasses.replace(small_bundle, y_val=small_bundle.y_val[:-1])
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        before = model.theta.copy()
        with pytest.raises(DimensionError, match="y_val"):
            train(bundle, model, head, cfg)
        assert model.theta.tobytes() == before.tobytes()

    def test_subset_of_one_gives_empty_train_split(self, digits_data_dir):
        from qdeq.datasets import prepare_bundle

        cfg = _quick_config(epochs=1)
        bundle = prepare_bundle("mnist4", digits_data_dir, cfg.seed, subset=1)
        assert bundle.x_train.shape[0] == 0
        model, head = build_from_config(cfg)
        with pytest.raises(DimensionError, match="x_train"):
            train(bundle, model, head, cfg)

    def test_evaluate_rejects_empty_split(self, small_bundle):
        model, head = build_from_config(_quick_config())
        with pytest.raises(DimensionError):
            evaluate(model, head, small_bundle.x_val[:0], small_bundle.y_val[:0], SolverMode.parse("implicit"))

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_evaluate_rejects_batch_size_below_one(self, small_bundle, batch_size):
        model, head = build_from_config(_quick_config())
        with pytest.raises(DimensionError, match="batch_size"):
            evaluate(model, head, small_bundle.x_val[:8], small_bundle.y_val[:8], SolverMode.parse("implicit"),
                     batch_size=batch_size)

    @pytest.mark.parametrize("labels", [[-1] * 8, [7] * 8, [0] * 7, [0.5] * 8, [1, np.nan] * 4])
    def test_evaluate_rejects_labels_that_do_not_fit(self, small_bundle, labels):
        # C = 4: out-of-range labels were scored as misses, a short array failed in a numpy broadcast,
        # and 0.5 or NaN passed the range check (cross-entropy truncates 0.5 to class 0)
        model, head = build_from_config(_quick_config())
        with pytest.raises(DimensionError):
            evaluate(model, head, small_bundle.x_val[:8], np.array(labels), SolverMode.parse("implicit"))

    def test_evaluate_rejects_non_finite_features(self, small_bundle):
        # one inf scored its whole batch wrong (accuracy 0.0, residual inf), with a RuntimeWarning
        X = small_bundle.x_val[:8].copy()
        X[5, 0] = np.inf
        model, head = build_from_config(_quick_config())
        with pytest.raises(DimensionError, match="non-finite feature in row 5"):
            evaluate(model, head, X, small_bundle.y_val[:8], SolverMode.parse("implicit"))

    def test_one_step_broyden_leaves_rows_unconverged(self, small_bundle):
        cfg = _quick_config(epochs=1, warmup_steps=0, solver_mode="implicit")
        model, head = build_from_config(cfg)
        metrics, _ = train(small_bundle, model, head, cfg, BroydenConfig(max_steps=1))
        assert metrics.epochs[0]["unconverged"] > 0

    @pytest.mark.parametrize("broyden", [BroydenConfig(), BroydenConfig(abs_tol=1e-11)], ids=["default", "tight"])
    def test_unconverged_count_matches_forward_solves(self, small_bundle, monkeypatch, broyden):
        # the first steps_per_epoch forward solves are the training steps; the
        # held-out evaluations follow them
        solves = []
        original = deqsolve.forward_fixed_point_batch

        def recording_solve(*args, **kwargs):
            result = original(*args, **kwargs)
            solves.append(int((~result.converged).sum()))
            return result

        monkeypatch.setattr(deqsolve, "forward_fixed_point_batch", recording_solve)
        cfg = _quick_config(epochs=1, warmup_steps=0, solver_mode="implicit")
        model, head = build_from_config(cfg)
        metrics, adam = train(small_bundle, model, head, cfg, broyden)
        steps_per_epoch = math.ceil(small_bundle.x_train.shape[0] / cfg.batch_size)
        assert adam.t == steps_per_epoch
        assert metrics.epochs[0]["unconverged"] == sum(solves[:steps_per_epoch])

    def test_unrolls_report_no_unconverged_rows(self, small_bundle):
        cfg = _quick_config(epochs=1, solver_mode="direct_2")
        model, head = build_from_config(cfg)
        metrics, _ = train(small_bundle, model, head, cfg, BroydenConfig(max_steps=1))
        assert metrics.epochs[0]["unconverged"] == 0

    def test_untrained_model_near_chance(self):
        # labels drawn independently of the features: any classifier sits at 25%
        bundle = synthetic_bundle(n_train=40, n_test=2000)
        rng = np.random.default_rng(13)
        labels = rng.integers(0, 4, size=bundle.y_test.shape[0])
        cfg = _quick_config()
        model, head = build_from_config(cfg)
        acc, residual = evaluate(
            model, head, bundle.x_test, labels, SolverMode.parse("implicit"), BroydenConfig()
        )
        assert 20.0 <= acc <= 30.0
        assert residual >= 0.0

    def test_direct_one_residual_uses_extra_forward(self, small_bundle):
        cfg = _quick_config(solver_mode="direct_1")
        model, head = build_from_config(cfg)
        acc, residual = evaluate(
            model, head, small_bundle.x_val, small_bundle.y_val, SolverMode.parse("direct_1")
        )
        assert residual > 1e-3  # single application is far from equilibrium


class TestEndToEnd:
    def test_digits_pipeline_learns(self, digits_data_dir):
        # full path: IDX files -> filter {0,3,6,9} -> 4x4 pooling -> warm-up
        # then implicit training -> evaluation; digits-4 is easy enough that
        # 25 epochs should land well above 75%
        from qdeq.datasets import prepare_bundle

        cfg = _quick_config(epochs=25, batch_size=256, warmup_steps=20)
        bundle = prepare_bundle("mnist4", digits_data_dir, cfg.seed)
        model, head = build_from_config(cfg)
        metrics, _ = train(bundle, model, head, cfg)
        assert metrics.test_acc >= 75.0
        assert metrics.test_residual < 1e-3
        assert metrics.wall_time_seconds > 0.0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        rng = np.random.default_rng(0)
        model.theta[:] = rng.normal(size=model.theta.shape)
        head.weight[:] = rng.normal(size=head.weight.shape)
        head.bias[:] = rng.normal(size=head.bias.shape)
        adam = AdamState.init([model.theta, head.weight, head.bias])
        adam.m[0][:] = rng.normal(size=adam.m[0].shape)
        adam.t = 17
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, cfg, model, head, adam, step=17)
        cfg2, model2, head2, adam2, step = load_checkpoint(path)
        assert cfg2 == cfg and step == 17
        assert np.array_equal(model2.theta, model.theta)
        assert np.array_equal(head2.weight, head.weight)
        assert np.array_equal(head2.bias, head.bias)
        assert np.array_equal(adam2.m[0], adam.m[0])
        assert adam2.t == 17

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bad.txt"
        for text in ("{\"format\": \"something-else\"}", "not json at all", "[1, 2]", "\"qdeq-checkpoint-v1\"",
                     b"\xff\xfe\x00bad"):
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
            with pytest.raises(DataFormatError):
                load_checkpoint(path)
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        save_checkpoint(path, cfg, model, head)
        payload = json.loads(path.read_text())
        for key in ("format", "config", "step", "theta", "head_weight", "head_bias"):
            path.write_text(json.dumps({k: v for k, v in payload.items() if k != key}))
            with pytest.raises(DataFormatError, match=f"'{key}'"):
                load_checkpoint(path)

    def test_rejects_version_one_checkpoint_by_format(self, tmp_path):
        # v1 configs carried the since-removed keys; the format check names the version
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, cfg, model, head)
        payload = json.loads(path.read_text())
        payload["format"] = "qdeq-checkpoint-v1"
        payload["config"].update(warmup_depth=1, jac_probes=1, adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="qdeq-checkpoint-v1"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "bad_weight",
        [
            lambda w: w[:1],  # one row would broadcast to every class
            lambda w: w[:, :-1],
            lambda w: 0.5,  # a scalar would broadcast to the whole matrix
            lambda w: np.full(w.shape, "x"),
        ],
        ids=["one-row", "wrong-width", "scalar", "not-numbers"],
    )
    def test_rejects_malformed_head(self, tmp_path, bad_weight):
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, cfg, model, head)
        payload = json.loads(path.read_text())
        payload["head_weight"] = np.asarray(bad_weight(head.weight)).tolist()
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_rejects_adam_moments_that_do_not_pair_with_parameters(self, tmp_path):
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, cfg, model, head, AdamState.init([model.theta, head.weight, head.bias]))
        payload = json.loads(path.read_text())
        for corrupt in (lambda m: m[:2], lambda m: [m[0], m[1][0], m[2]]):
            bad = json.loads(json.dumps(payload))
            bad["adam"]["m"] = corrupt(bad["adam"]["m"])
            path.write_text(json.dumps(bad))
            with pytest.raises(DataFormatError):
                load_checkpoint(path)
        for key in ("m", "v", "t", "skipped"):
            bad = json.loads(json.dumps(payload))
            del bad["adam"][key]
            path.write_text(json.dumps(bad))
            with pytest.raises(DataFormatError, match=f"'{key}'"):
                load_checkpoint(path)
        for key, count in (("t", "3"), ("t", 2.0), ("t", True), ("t", -1), ("skipped", None)):
            path.write_text(json.dumps(dict(payload, adam=dict(payload["adam"], **{key: count}))))
            with pytest.raises(DataFormatError, match=f"'{key}'"):
                load_checkpoint(path)
        path.write_text(json.dumps(dict(payload, adam=[1, 2])))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("step", ["x", -3, True, 2.5, None])
    def test_rejects_step_that_is_not_a_count(self, tmp_path, step):
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, cfg, model, head, step=3)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(dict(payload, step=step)))
        with pytest.raises(DataFormatError, match="'step'"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        adam = AdamState.init([model.theta, head.weight, head.bias])
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, cfg, model, head, adam, step=3)
        saved_text, saved_theta = path.read_text(), model.theta.copy()
        original = tempfile.NamedTemporaryFile

        def half_writing_file(*args, **kwargs):
            handle = original(*args, **kwargs)
            write = handle.write

            def half_write(text):
                write(text[: len(text) // 2])
                raise OSError("disk full")

            handle.write = half_write
            return handle

        monkeypatch.setattr(tempfile, "NamedTemporaryFile", half_writing_file)
        model.theta += 1.0
        with pytest.raises(OSError):
            save_checkpoint(path, cfg, model, head, adam, step=4)
        monkeypatch.undo()
        assert path.read_text() == saved_text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.txt"]
        _, model2, _, _, step = load_checkpoint(path)
        assert step == 3
        assert model2.theta.tobytes() == saved_theta.tobytes()

    @pytest.mark.parametrize("where", ["theta", "head_weight", "adam_m", "adam_v"])
    def test_refused_save_keeps_previous_checkpoint(self, tmp_path, where):
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        adam = AdamState.init([model.theta, head.weight, head.bias])
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, cfg, model, head, adam, step=3)
        saved = path.read_bytes()
        target = {"theta": model.theta, "head_weight": head.weight, "adam_m": adam.m[1], "adam_v": adam.v[0]}[where]
        target.reshape(-1)[0] = np.nan if where != "adam_v" else np.inf
        with pytest.raises(DataFormatError, match="non-finite"):
            save_checkpoint(path, cfg, model, head, adam, step=4)
        assert path.read_bytes() == saved
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.txt"]

    @pytest.mark.parametrize("key, value", [("step", -1), ("step", True), ("step", 2.5), ("t", -1), ("skipped", 1.0)])
    def test_refused_count_keeps_previous_checkpoint(self, tmp_path, key, value):
        # a step or Adam count that load_checkpoint would refuse is refused before anything is written
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        adam = AdamState.init([model.theta, head.weight, head.bias])
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, cfg, model, head, adam, step=3)
        saved = path.read_bytes()
        step = 4
        if key == "step":
            step = value
        else:
            setattr(adam, key, value)
        with pytest.raises(DataFormatError, match=f"'{key}'"):
            save_checkpoint(path, cfg, model, head, adam, step=step)
        assert path.read_bytes() == saved
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.txt"]

    @pytest.mark.parametrize(
        "keys, value, field",
        [
            (("theta", 0), float("nan"), "'theta'"),
            (("head_bias", 1), float("-inf"), "'head_bias'"),
            (("adam", "v", 1, 0, 2), float("inf"), "Adam v 'head_weight'"),
        ],
        ids=["nan-theta", "inf-head-bias", "inf-adam-v"],
    )
    def test_rejects_non_finite_values(self, tmp_path, keys, value, field):
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, cfg, model, head, AdamState.init([model.theta, head.weight, head.bias]))
        payload = json.loads(path.read_text())
        node = payload
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path.write_text(json.dumps(payload))  # json writes the bare NaN / Infinity tokens
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(DataFormatError, match=field):
            load_checkpoint(path)

    def test_save_syncs_the_data_before_the_rename(self, tmp_path, monkeypatch):
        cfg = _quick_config(epochs=1)
        model, head = build_from_config(cfg)
        path = tmp_path / "ckpt.txt"
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_size))
            fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", Path(src).stat().st_size))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        save_checkpoint(path, cfg, model, head)
        size = path.stat().st_size
        assert size > 0
        assert events == [("fsync", size), ("replace", size)]

    def test_init_head_deterministic(self):
        a = init_head(4, 16, 0.1, substream(5, "head"))
        b = init_head(4, 16, 0.1, substream(5, "head"))
        assert np.array_equal(a.weight, b.weight)
