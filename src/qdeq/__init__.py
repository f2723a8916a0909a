"""Equilibrium-model training for parametrized-quantum-circuit classifiers.

The forward pass solves for a fixed point of an input-injected quantum layer
(dense statevector simulation, Broyden root finding); the backward pass uses
implicit differentiation instead of unrolled backpropagation.
"""

from .bounds import (
    BoundReport,
    verify_amplitude_overlap,
    verify_angle_overlap,
    verify_contraction_bound,
    verify_trig_inequality,
)
from .deqsolve import BroydenConfig
from .encoding import EncodingSpec, amplitude_encode, angle_encode, inject
from .measurement import ObservableEnsemble, UpsampleMap, upsample
from .qmodel import QuantumModel, build_default_model, build_staircase10
from .simcore import (
    GateOp,
    ParamCircuit,
    StateVector,
    apply_circuit,
    parameter_shift_grad,
    random_layer,
)
from .training import ClassifierHead, RunMetrics, TrainConfig, evaluate, train

__all__ = [
    "BoundReport",
    "BroydenConfig",
    "ClassifierHead",
    "EncodingSpec",
    "GateOp",
    "ObservableEnsemble",
    "ParamCircuit",
    "QuantumModel",
    "RunMetrics",
    "StateVector",
    "TrainConfig",
    "UpsampleMap",
    "amplitude_encode",
    "angle_encode",
    "apply_circuit",
    "build_default_model",
    "build_staircase10",
    "evaluate",
    "inject",
    "parameter_shift_grad",
    "random_layer",
    "train",
    "upsample",
    "verify_amplitude_overlap",
    "verify_angle_overlap",
    "verify_contraction_bound",
    "verify_trig_inequality",
]

__version__ = "0.1.0"
