"""Classifier head, loss, Adam, and the end-to-end train/evaluate loops.

Training runs in two phases when the solver mode is implicit_warmup: first
``warmup_steps`` optimizer steps on a one-layer explicit unroll, then implicit
training (fixed-point solve forward, implicit-function-theorem backward).
Warm-up steps count toward the fixed epoch total. Direct modes unroll a fixed
number of weight-tied layers throughout.
"""
from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from .datasets import DataBundle
from .deqsolve import BroydenConfig, solve_batch
from .errors import (
    ConfigError, DataFormatError, DegenerateInputError, DimensionError, SolverDivergedError, TrainingAborted,
)
from .qmodel import QuantumModel, build_default_model
from .seeding import substream

IMPLICIT = "implicit"
IMPLICIT_WARMUP = "implicit_warmup"
DIRECT = "direct"
_WARMUP_DEPTH = 1  # unroll depth of the implicit_warmup phase
_EVAL_CHUNK_BYTES = 4 << 20  # rows' readout forms (8 K d bytes a row and layer) in one evaluate solve

# dataset name -> (num_qubits, input_dim, num_classes)
DATASET_SHAPES = {
    "mnist4": (4, 16, 4),
    "mnist10": (10, 100, 10),
    "fashionmnist10": (10, 100, 10),
    "cifar10": (10, 100, 10),
}
_TYPE_NAMES = {"int": "an integer", "float": "a finite number", "str": "a string"}  # TrainConfig field types


@dataclass(frozen=True)
class SolverMode:
    kind: str
    depth: int = 0  # direct-unroll layer count

    @classmethod
    def parse(cls, text: str) -> "SolverMode":
        if text == IMPLICIT:
            return cls(IMPLICIT)
        if text == IMPLICIT_WARMUP:
            return cls(IMPLICIT_WARMUP)
        if text.startswith("direct_"):
            try:
                depth = int(text.split("_", 1)[1])
            except ValueError:
                depth = 0
            if depth >= 1 and text == f"direct_{depth}":  # int() also reads " 5", "+5", "05" and "1_0"
                return cls(DIRECT, depth)
        raise ConfigError(
            f"unknown solver_mode {text!r}; expected implicit, implicit_warmup or direct_<L>"
        )

    @property
    def implicit_family(self) -> bool:
        return self.kind in (IMPLICIT, IMPLICIT_WARMUP)


@dataclass
class TrainConfig:
    dataset: str
    solver_mode: str
    learning_rate: float
    encoding: str = "amplitude"
    epochs: int = 100
    batch_size: int = 256
    warmup_steps: int = 0
    jac_loss_weight: float = 0.0
    jac_loss_freq: float = 0.0
    dropout_p: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # JSON may hold any type, NaN or a huge integer in any field
            value = getattr(self, f.name)
            num = isinstance(value, (int, float)) and not isinstance(value, bool)
            ok = {"int": num and isinstance(value, int), "float": num and abs(value) <= sys.float_info.max}
            if not ok.get(f.type, isinstance(value, str)):
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[f.type]}, got {value!r}")
        if self.dataset not in DATASET_SHAPES:
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        if self.encoding not in ("amplitude", "angle"):
            raise ConfigError(f"unknown encoding {self.encoding!r}")
        if self.encoding == "angle" and self.dataset != "mnist4":
            raise ConfigError("angle encoding is only wired for the 4-qubit mnist4 setup")
        SolverMode.parse(self.solver_mode)
        if not 0 <= self.seed < 1 << 64:  # the substreams take the seed as one 64-bit word
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not 0.0 <= self.jac_loss_freq <= 1.0:
            raise ConfigError("jac_loss_freq must lie in [0, 1]")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be >= 0")
        if self.jac_loss_weight < 0:
            raise ConfigError("jac_loss_weight must be >= 0")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a config must be a JSON object, got {raw!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        missing = [k for k in ("dataset", "solver_mode", "learning_rate") if k not in raw]
        if missing:
            raise ConfigError(f"missing required config keys {missing}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def shape(self):
        return DATASET_SHAPES[self.dataset]


@dataclass
class ClassifierHead:
    weight: np.ndarray  # (C, n)
    bias: np.ndarray  # (C,)
    dropout_p: float = 0.0

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if self.weight.ndim != 2 or self.weight.shape[0] != self.bias.shape[0]:
            raise DimensionError("head weight must be (C, n) with matching bias")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise DimensionError("head parameters must be finite")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must lie in [0, 1)")


def init_head(num_classes: int, input_dim: int, dropout_p: float, rng) -> ClassifierHead:
    bound = 1.0 / math.sqrt(input_dim)
    return ClassifierHead(
        weight=rng.uniform(-bound, bound, size=(num_classes, input_dim)),
        bias=np.zeros(num_classes),
        dropout_p=dropout_p,
    )


def head_forward_batch(head: ClassifierHead, Z: np.ndarray, train_mode: bool, rng=None):
    """Logits plus the dropout multiplier actually applied (ones in eval mode)."""
    if train_mode and head.dropout_p > 0.0:
        keep = rng.random(Z.shape) >= head.dropout_p
        mask = keep / (1.0 - head.dropout_p)
    else:
        mask = np.ones_like(Z)
    hidden = Z * mask
    return hidden @ head.weight.T + head.bias, mask


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """(mean loss, dloss/dlogits already divided by the batch size)."""
    logits = np.atleast_2d(logits)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    n = logits.shape[0]
    loss = -log_probs[np.arange(n), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return float(loss), grad / n


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0
    skipped: int = 0

    @classmethod
    def init(cls, params: list) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # the standard Adam constants


def adam_step(params: list, grads: list, state: AdamState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update in place; a non-finite gradient skips the step."""
    for g in grads:
        if not np.isfinite(g).all():
            state.skipped += 1
            return
    state.t += 1
    bc1 = 1.0 - _ADAM_BETA1**state.t
    bc2 = 1.0 - _ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * g
        v *= _ADAM_BETA2
        v += (1.0 - _ADAM_BETA2) * g * g
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)


@dataclass
class RunMetrics:
    # dicts: epoch, phase, train_loss, train_acc, val_acc, mean_residual, unconverged
    epochs: list = field(default_factory=list)
    test_acc: float = 0.0
    test_residual: float = 0.0
    wall_time_seconds: float = 0.0


def build_from_config(cfg: TrainConfig):
    """(model, head) with all randomness drawn from the config seed substreams."""
    num_qubits, input_dim, num_classes = cfg.shape
    model = build_default_model(cfg.encoding, num_qubits, input_dim, cfg.seed)
    head = init_head(num_classes, input_dim, cfg.dropout_p, substream(cfg.seed, "head"))
    return model, head


def _check_split(X: np.ndarray, y, input_dim: int, num_classes: int, name: str = "the split") -> None:
    """DimensionError unless X is (N > 0, input_dim) of finite features and y is N whole-number labels
    in [0, num_classes)."""
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise DimensionError(f"{name} needs rows of {input_dim} features, got an X of shape {X.shape}")
    if X.shape[0] == 0:
        raise DimensionError(f"{name} has no rows")
    if not np.isfinite(X).all():
        row = np.flatnonzero(~np.isfinite(X).all(axis=1))[0]
        raise DimensionError(f"{name} has a non-finite feature in row {row}")
    y = np.asarray(y)
    if y.shape != X.shape[:1] or not np.all((y >= 0) & (y < num_classes) & (y == np.round(y))):
        raise DimensionError(
            f"{name} needs one whole-number label in [0, {num_classes}) for each of its {X.shape[0]} rows"
        )


def evaluate(
    model: QuantumModel,
    head: ClassifierHead,
    X: np.ndarray,
    y: np.ndarray,
    mode: SolverMode,
    broyden: BroydenConfig = BroydenConfig(),
    batch_size: int = 256,
):
    """(accuracy %, mean relative residual) over a dataset split.

    Batches of ``batch_size`` rows each stop on their own, but a row's result depends on its batch.
    One ``solve_batch`` call takes as many whole batches (at least one) as fit ``_EVAL_CHUNK_BYTES``,
    4 MiB at 8 K d bytes (a row's readout forms) per row and unroll layer: 8192 implicit rows at Q=4,
    512 at Q=10 in batches of 256. A chunk whose solve diverges or meets an input the encoder
    rejects is solved again batch by batch, and a failing batch's rows count as misclassified with
    residual inf. An X not (N > 0, input_dim) of finite features, a y not N whole-number labels in
    [0, C), or a batch_size below 1 raises DimensionError.
    """
    _check_split(X, y, model.input_dim, head.bias.size)
    if batch_size < 1:
        raise DimensionError(f"batch_size must be >= 1, got {batch_size}")
    correct, residual = 0, np.full(X.shape[0], np.inf)

    def solved(lo, hi):  # solve and score rows lo:hi; False when the solve fails
        nonlocal correct
        try:
            z, residual[lo:hi], _, _ = solve_batch(model, X[lo:hi], mode.depth, broyden, batch_size)
        except (SolverDivergedError, DegenerateInputError):
            return False
        correct += int((head_forward_batch(head, z, train_mode=False)[0].argmax(axis=1) == y[lo:hi]).sum())
        return True

    row_bytes = 8 * model.ensemble.size * model.encoding.width * max(1, mode.depth)
    chunk = batch_size * max(1, _EVAL_CHUNK_BYTES // (row_bytes * batch_size))
    for lo in range(0, X.shape[0], chunk):
        if not solved(lo, lo + chunk):
            for b in range(lo, min(lo + chunk, X.shape[0]), batch_size):
                solved(b, b + batch_size)
    return 100.0 * correct / X.shape[0], float(residual.mean())


def train(bundle: DataBundle, model: QuantumModel, head: ClassifierHead, cfg: TrainConfig,
          broyden: BroydenConfig = BroydenConfig(), log=None):
    """Run the full optimization; returns (RunMetrics, AdamState).

    A batch whose solve diverges, or that holds an input the encoder rejects
    (an all-zero row under amplitude encoding), is skipped; training aborts
    with TrainingAborted when more than 10% of an epoch's batches are skipped.
    An implicit step that the ``jac-gate`` draw picks (probability jac_loss_freq)
    adds jac_loss_weight times the exact penalty mean_b ||J_b||_F^2 to its loss.
    A split with no rows, rows not of input_dim finite features or y not one whole-number label in [0, C)
    per row raises DimensionError before any step.
    """
    for split in ("train", "val", "test"):
        X, y = getattr(bundle, f"x_{split}"), getattr(bundle, f"y_{split}")
        _check_split(X, y, model.input_dim, head.bias.size, f"x_{split}/y_{split} of {bundle.name!r}")
    mode = SolverMode.parse(cfg.solver_mode)
    params = [model.theta, head.weight, head.bias]
    adam = AdamState.init(params)
    metrics = RunMetrics()
    n_train = bundle.x_train.shape[0]
    steps_per_epoch = math.ceil(n_train / cfg.batch_size)
    max_diverged = 0.1 * steps_per_epoch
    step = 0
    t0 = time.perf_counter()

    for epoch in range(cfg.epochs):
        order = substream(cfg.seed, "batch-order", epoch).permutation(n_train)
        losses = []
        residuals = []
        correct = 0
        diverged = 0
        unconverged = 0
        epoch_phase = None
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = bundle.x_train[idx]
            yb = bundle.y_train[idx]
            warm = mode.kind == IMPLICIT_WARMUP and step < cfg.warmup_steps
            phase = "warmup" if warm else (IMPLICIT if mode.implicit_family else DIRECT)
            epoch_phase = phase if epoch_phase in (None, phase) else "mixed"
            dropout_rng = substream(cfg.seed, "dropout", step)
            try:
                depth = _WARMUP_DEPTH if warm else mode.depth
                z, residual, backward, batch_unconverged = solve_batch(model, xb, depth, broyden)
                unconverged += batch_unconverged
                residuals.append(residual)
                logits, mask = head_forward_batch(head, z, train_mode=True, rng=dropout_rng)
                loss, dlogits = cross_entropy_batch(logits, yb)
                penalized = phase == IMPLICIT and cfg.jac_loss_weight > 0.0
                penalized = penalized and substream(cfg.seed, "jac-gate", step).random() < cfg.jac_loss_freq
                jac_weight = cfg.jac_loss_weight if penalized else 0.0
                dtheta, penalty = backward((dlogits @ head.weight) * mask, jac_weight)
                loss += jac_weight * penalty
            except (SolverDivergedError, DegenerateInputError):
                diverged += 1
                if diverged > max_diverged:
                    raise TrainingAborted(
                        f"{diverged} diverged or unencodable batches in epoch {epoch}",
                        diagnostics={"epoch": epoch, "diverged_batches": diverged, "step": step},
                    )
                step += 1
                continue

            dweight = dlogits.T @ (z * mask)
            dbias = dlogits.sum(axis=0)
            adam_step(params, [dtheta, dweight, dbias], adam, cfg)
            step += 1
            losses.append(loss)
            correct += int((logits.argmax(axis=1) == yb).sum())

        val_acc, _ = evaluate(model, head, bundle.x_val, bundle.y_val, mode, broyden, cfg.batch_size)
        row = {
            "epoch": epoch,
            "phase": epoch_phase or "n/a",
            "train_loss": float(np.mean(losses)) if losses else float("nan"),
            "train_acc": 100.0 * correct / n_train,
            "val_acc": val_acc,
            "mean_residual": float(np.concatenate(residuals).mean()) if residuals else float("nan"),
            "unconverged": unconverged,
        }
        metrics.epochs.append(row)
        if log is not None:
            log(row)

    metrics.test_acc, metrics.test_residual = evaluate(
        model, head, bundle.x_test, bundle.y_test, mode, broyden, cfg.batch_size
    )
    metrics.wall_time_seconds = time.perf_counter() - t0
    return metrics, adam


# ---------------------------------------------------------------------------
# checkpoints: JSON text, floats round-trip bit-exactly at double precision

_CHECKPOINT_FORMAT = "qdeq-checkpoint-v2"
_PARAM_KEYS = ("theta", "head_weight", "head_bias")  # the parameters, and each Adam moment list, in order


def save_checkpoint(path, cfg: TrainConfig, model: QuantumModel, head: ClassifierHead,
                    adam: Optional[AdamState] = None, step: int = 0) -> None:
    """Write a checkpoint; a value that ``load_checkpoint`` would refuse (a non-finite parameter or Adam
    moment, a step or Adam count that is not a non-negative int) raises DataFormatError and writes nothing."""
    params = [model.theta, head.weight, head.bias]
    _checkpoint_arrays(params, params, "parameter")
    if adam is not None:
        _checkpoint_arrays(adam.m, params, "Adam m")
        _checkpoint_arrays(adam.v, params, "Adam v")
    payload = {
        "format": _CHECKPOINT_FORMAT,
        "config": cfg.to_dict(),
        "step": step,
        "theta": model.theta.tolist(),
        "head_weight": head.weight.tolist(),
        "head_bias": head.bias.tolist(),
    }
    if adam is not None:
        payload["adam"] = {
            "t": adam.t,
            "skipped": adam.skipped,
            "m": [m.tolist() for m in adam.m],
            "v": [v.tolist() for v in adam.v],
        }
        for key in ("t", "skipped"):
            _checkpoint_count(payload["adam"], key, "checkpoint adam")
    _checkpoint_count(payload, "step")
    # write and flush a temp file beside the target, then rename it over the target:
    # a failed or interrupted save leaves the previous checkpoint intact
    path = Path(path)
    tmp = tempfile.NamedTemporaryFile("w", dir=path.parent, prefix=path.name, suffix=".tmp", delete=False)
    try:
        with tmp:
            tmp.write(json.dumps(payload, indent=1, allow_nan=False))
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp.name, path)
    finally:
        Path(tmp.name).unlink(missing_ok=True)


def load_checkpoint(path):
    """(cfg, model, head, adam, step) rebuilt from a checkpoint file."""
    try:
        payload = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if _checkpoint_field(payload, "format") != _CHECKPOINT_FORMAT:
        raise DataFormatError(f"unexpected checkpoint format {payload['format']!r}")
    cfg = TrainConfig.from_dict(_checkpoint_field(payload, "config"))
    model, head = build_from_config(cfg)
    params = [model.theta, head.weight, head.bias]
    saved = [_checkpoint_field(payload, key) for key in _PARAM_KEYS]
    for param, arr in zip(params, _checkpoint_arrays(saved, params, "parameter")):
        param[:] = arr
    adam = None
    if "adam" in payload:
        m, v = (_checkpoint_field(payload["adam"], key, "checkpoint adam") for key in ("m", "v"))
        t, skipped = (_checkpoint_count(payload["adam"], key, "checkpoint adam") for key in ("t", "skipped"))
        adam = AdamState(
            _checkpoint_arrays(m, params, "Adam m"), _checkpoint_arrays(v, params, "Adam v"), t, skipped
        )
    return cfg, model, head, adam, _checkpoint_count(payload, "step")


def _checkpoint_field(payload, key: str, where: str = "checkpoint"):
    """``payload[key]``; DataFormatError naming the key if it is missing or payload is no object."""
    if not isinstance(payload, dict):
        raise DataFormatError(f"{where} is not a JSON object")
    if key not in payload:
        raise DataFormatError(f"{where} lacks the {key!r} field")
    return payload[key]


def _checkpoint_count(payload, key: str, where: str = "checkpoint") -> int:
    """``payload[key]`` if it is a non-negative int, not a bool; DataFormatError naming the key otherwise."""
    value = _checkpoint_field(payload, key, where)
    if type(value) is not int or value < 0:
        raise DataFormatError(f"{where} {key!r} must be a non-negative integer, got {value!r}")
    return value


def _checkpoint_arrays(values: list, like: list, what: str) -> list:
    """``values`` as finite float arrays, which must match the shapes of ``like`` one to one."""
    try:
        arrays = [np.asarray(v, dtype=np.float64) for v in values]
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"checkpoint {what} values are not arrays of numbers: {exc}") from exc
    shapes, expected = [a.shape for a in arrays], [p.shape for p in like]
    if shapes != expected:
        raise DataFormatError(f"checkpoint {what} shapes {shapes} differ from the model's {expected}")
    for key, a in zip(_PARAM_KEYS, arrays):
        if not np.isfinite(a).all():
            raise DataFormatError(f"checkpoint {what} {key!r} holds a non-finite value")
    return arrays
