"""In-memory span tracer that wraps the public functions of ``qdeq`` modules.

The program itself carries no tracing. ``Tracer.install`` replaces each
listed function at every module attribute bound to it (``training`` imports
``forward_fixed_point_batch`` by name, ``qmodel`` imports ``apply_ops`` the
same way), and each listed method on its class; ``uninstall`` puts the
originals back. A function missing from the program, or one whose
arguments or return value no longer have the shape an observer reads, is
recorded in ``absent`` instead of raising, so the benchmark keeps running
against commits that deleted, renamed or reshaped it.

A span is named ``<module>.<function>``. Its parent is the innermost span
open when it started, and its self time is its duration minus the durations
of its direct children (one thread, so children never overlap). Inside
``training.train`` the tracer opens a synthetic ``training.step`` span around
each optimizer step: it starts with the step's forward solve or unroll and
ends when ``adam_step`` returns (or, for a diverged step, when the next step
or an evaluation starts). Every span of that step carries the step's id; its
own self time is the loop-body code of ``train`` that no traced call covers.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass

LAYERS = {
    "training": (
        "train", "evaluate", "adam_step", "head_forward_batch", "cross_entropy_batch",
        "save_checkpoint", "load_checkpoint",
    ),
    "deqsolve": (
        "forward_fixed_point_batch", "implicit_backward_batch", "broyden_root_batch",
        "direct_unroll_batch", "unroll_backward_batch", "jacobian_frobenius_batch",
    ),
    "qmodel": ("QuantumModel.prepare", "QuantumModel.forward_batch", "QuantumModel.backward_batch"),
    "simcore": ("apply_ops", "adjoint_sweep", "resolve_circuit"),
    "encoding": ("amplitude_encode_batch", "amplitude_encode_vjp"),
    "measurement": ("expect_batch", "upsample_batch", "upsample_transpose_batch"),
    "datasets": ("prepare_bundle", "load_idx", "load_cifar_binary", "avg_pool", "resize_bilinear"),
}

PACKAGE = "qdeq"
TRAIN = "training.train"
STEP = "training.step"
ADAM = "training.adam_step"
EVALUATE = "training.evaluate"
STEP_OPENERS = frozenset({"deqsolve.forward_fixed_point_batch", "deqsolve.direct_unroll_batch"})


# spans reported as inclusive ``S.ms`` outside train(); every other span per step
ONCE = ("training.evaluate", "training.save_checkpoint", "training.load_checkpoint") + tuple(
    f"datasets.{fn}" for fn in LAYERS["datasets"]
)
PER_STEP = tuple(
    f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns
    if f"{layer}.{fn}" not in ONCE or fn == "evaluate"
) + (STEP,)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    root: int
    step: int
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    """Collects spans while installed; ``observations`` holds values read from calls."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.observations: list[tuple[int, str, object]] = []  # (span index, kind, value)
        self._stack: list[int] = []
        self._next_step = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, fns in self.layers.items():
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                owner_name, _, attr = fn.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = None
                if owner is not None:
                    original = vars(owner).get(attr) if owner_name else getattr(owner, attr, None)
                if not inspect.isfunction(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    for kind, value in observe(bound, result):
                        self.observations.append((idx, kind, value))
                except (AttributeError, TypeError, KeyError, IndexError, ValueError, OSError):
                    unreadable = f"{name} (arguments or return value)"
                    if unreadable not in self.absent:
                        self.absent.append(unreadable)
            return result

        return traced

    # -- span bookkeeping --------------------------------------------------

    def _push(self, name, now, parent) -> int:
        idx = len(self.spans)
        if parent < 0:
            root, step = idx, -1
        else:
            root, step = self.spans[parent].root, self.spans[parent].step
        if name == STEP:
            step = self._next_step
            self._next_step += 1
        self.spans.append(Span(name, now, parent, root, step))
        self._stack.append(idx)
        return idx

    def _pop(self, now) -> None:
        span = self.spans[self._stack.pop()]
        span.end = now
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration_s

    def _top_name(self):
        return self.spans[self._stack[-1]].name if self._stack else None

    def _open(self, name) -> int:
        now = time.perf_counter()
        if self._top_name() == STEP and (name in STEP_OPENERS or name == EVALUATE):
            self._pop(now)  # a diverged step never reached adam_step
        if self._top_name() == TRAIN and name in STEP_OPENERS:
            self._push(STEP, now, self._stack[-1])
        return self._push(name, now, self._stack[-1] if self._stack else -1)

    def _close(self, idx) -> None:
        now = time.perf_counter()
        while self._stack[-1] != idx:  # a step span left open inside this call
            self._pop(now)
        self._pop(now)
        if self.spans[idx].name == ADAM and self._top_name() == STEP:
            self._pop(now)

    # -- export ------------------------------------------------------------

    def records(self):
        """One plain dict per span, in start order."""
        for i, s in enumerate(self.spans):
            yield {
                "id": i, "name": s.name, "parent": s.parent, "step": s.step,
                "start_s": s.start, "end_s": s.end, "self_ms": 1e3 * s.self_s,
            }


# ---------------------------------------------------------------------------
# observers: (bound arguments, return value) -> [(kind, value), ...]


def _state_bytes(ops, states):
    """Computed traffic: every gate reads and writes the whole batch state once."""
    return [("state_bytes", len(ops) * states.nbytes * 2)]


def _forward_solve(args, result):
    return [("forward_solve", (int(result.steps_taken), int(result.converged.sum()), int(result.converged.size)))]


def _implicit_backward(args, result):
    diagnostics = result[1]
    samples = int(args["loss_grads"].shape[0])
    converged = diagnostics.get("backward_converged")
    n_conv = int(converged.sum()) if converged is not None else 0
    return [("backward_solve", (n_conv, samples, bool(diagnostics.get("neumann_fallback", False))))]


def _checkpoint_bytes(args, result):
    return [("checkpoint_bytes", os.path.getsize(args["path"]))]


_OBSERVERS = {
    "simcore.apply_ops": lambda a, r: _state_bytes(a["ops"], a["states"]),
    "simcore.adjoint_sweep": lambda a, r: _state_bytes(a["ops"], a["final_states"]),
    "deqsolve.forward_fixed_point_batch": _forward_solve,
    "deqsolve.implicit_backward_batch": _implicit_backward,
    "training.save_checkpoint": _checkpoint_bytes,
}


# ---------------------------------------------------------------------------
# aggregation


def step_sum_check(tracer: Tracer, rel_tol: float = 1e-6):
    """Per step: (sum of self times of its spans, the step span's duration)."""
    totals: dict[int, float] = {}
    roots: dict[int, float] = {}
    for s in tracer.spans:
        if s.step < 0:
            continue
        totals[s.step] = totals.get(s.step, 0.0) + s.self_s
        if s.name == STEP:
            roots[s.step] = s.duration_s
    bad = [k for k in roots if abs(totals[k] - roots[k]) > rel_tol * roots[k] + 1e-9]
    return totals, roots, bad


def per_layer_metrics(tracer: Tracer, steps: int) -> dict:
    """Per-layer figures from the spans of one traced ``train`` call and the calls after it.

    ``S.calls_per_step`` and ``S.self_ms_per_step`` total every span inside the
    ``training.train`` call, divided by the optimizer steps attempted.
    ``S.ms`` is the inclusive time of spans outside ``train`` (set-up, the
    held-out evaluation and the checkpoint round trip).
    """
    in_train = [tracer.spans[s.root].name == TRAIN for s in tracer.spans]
    calls = dict.fromkeys(PER_STEP, 0)
    self_ms = dict.fromkeys(PER_STEP, 0.0)
    once_ms = dict.fromkeys(ONCE, 0.0)
    for s, inside in zip(tracer.spans, in_train):
        if inside and s.name in calls:
            calls[s.name] += 1
            self_ms[s.name] += 1e3 * s.self_s
        elif not inside and s.name in once_ms:
            once_ms[s.name] += 1e3 * s.duration_s

    fwd_steps, fwd_conv, fwd_n = [], 0, 0
    bwd_conv, bwd_n, fallbacks, state_bytes, ckpt_bytes = 0, 0, 0, 0, 0
    for idx, kind, value in tracer.observations:
        span = tracer.spans[idx]
        if kind == "checkpoint_bytes":
            ckpt_bytes = value
        elif not in_train[idx]:
            continue
        elif kind == "state_bytes":
            state_bytes += value
        elif kind == "forward_solve" and span.step >= 0:
            fwd_steps.append(value[0])
            fwd_conv += value[1]
            fwd_n += value[2]
        elif kind == "backward_solve" and span.step >= 0:
            bwd_conv += value[0]
            bwd_n += value[1]
            fallbacks += int(value[2])

    out = {}
    for name in PER_STEP:
        out[f"{name}.calls_per_step"] = (calls[name] / steps, "count")
        out[f"{name}.self_ms_per_step"] = (self_ms[name] / steps, "ms")
    for name in ONCE:
        out[f"{name}.ms"] = (once_ms[name], "ms")
    out["deqsolve.forward.steps_mean"] = (sum(fwd_steps) / len(fwd_steps) if fwd_steps else 0.0, "count")
    out["deqsolve.forward.converged_frac"] = (fwd_conv / fwd_n if fwd_n else 0.0, "1")
    out["deqsolve.backward.converged_frac"] = (bwd_conv / bwd_n if bwd_n else 0.0, "1")
    out["deqsolve.backward.neumann_fallbacks"] = (float(fallbacks), "count")
    out["simcore.state_bytes_per_step"] = (state_bytes / steps, "bytes_computed")
    out["training.save_checkpoint.bytes"] = (float(ckpt_bytes), "bytes")
    return out
