"""Expectation readout over observable ensembles and the upsampling map.

Both observable kinds used here (Pauli-Z on a site, projectors onto
computational basis states) are diagonal in the computational basis, so an
ensemble reduces to K real diagonal vectors and expectations to one matrix
product against |amplitudes|^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .simcore import StateVector

PAULI_Z = "pauli_z"
BASIS_PROJECTOR = "basis_projector"


@lru_cache(maxsize=None)
def _diagonals(kind: str, sites: tuple, num_qubits: int) -> np.ndarray:
    dim = 1 << num_qubits
    idx = np.arange(dim)
    rows = np.empty((len(sites), dim))
    for k, site in enumerate(sites):
        if kind == PAULI_Z:
            if not 0 <= site < num_qubits:
                raise DimensionError(f"pauli-z site {site} out of range for {num_qubits} qubits")
            rows[k] = 1.0 - 2.0 * ((idx >> site) & 1)
        else:
            if not 0 <= site < dim:
                raise DimensionError(f"projector basis index {site} out of range for dim {dim}")
            rows[k] = 0.0
            rows[k, site] = 1.0
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class ObservableEnsemble:
    """K diagonal observables: Pauli-Z per listed qubit, or basis-state projectors."""

    kind: str
    sites: tuple

    def __post_init__(self):
        if self.kind not in (PAULI_Z, BASIS_PROJECTOR):
            raise DimensionError(f"unknown ensemble kind {self.kind!r}")
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        if not self.sites:
            raise DimensionError("ensemble needs at least one observable")

    @property
    def size(self) -> int:
        return len(self.sites)

    def diagonals(self, num_qubits: int) -> np.ndarray:
        """(K, 2**Q) diagonal entries; rows have unit spectral norm."""
        return _diagonals(self.kind, self.sites, num_qubits)

    @classmethod
    def pauli_z_all(cls, num_qubits: int) -> "ObservableEnsemble":
        return cls(PAULI_Z, tuple(range(num_qubits)))


def expect_ensemble(state: StateVector, ensemble: ObservableEnsemble) -> np.ndarray:
    """<psi|M_k|psi> for each ensemble member; purely real."""
    diags = ensemble.diagonals(state.num_qubits)
    return diags @ (np.abs(state.amplitudes) ** 2)


def expect_batch(states: np.ndarray, diags: np.ndarray) -> np.ndarray:
    """(B, K) expectations for states of shape (B, 2**Q)."""
    probs = states.real**2 + states.imag**2
    return probs @ diags.T


@dataclass(frozen=True)
class UpsampleMap:
    """Entry repetition from K readouts to n latent entries, scaled 1/sqrt(r).

    r = ceil(n / K) is the repeat count; with n = r*K the map is an exact isometry.
    """

    num_outputs: int  # K
    target_dim: int  # n
    repeat: int = field(init=False)
    scale: float = field(init=False)

    def __post_init__(self):
        if self.num_outputs < 1 or self.target_dim < 1:
            raise DimensionError("upsample dims must be positive")
        r = math.ceil(self.target_dim / self.num_outputs)
        object.__setattr__(self, "repeat", r)
        object.__setattr__(self, "scale", 1.0 / math.sqrt(r))


def upsample(v: np.ndarray, umap: UpsampleMap) -> np.ndarray:
    """Repeat each entry ``repeat`` times, truncate to n, scale."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != umap.num_outputs:
        raise DimensionError(f"expected {umap.num_outputs} entries, got {v.shape[0]}")
    return umap.scale * np.repeat(v, umap.repeat)[: umap.target_dim]


def upsample_batch(V: np.ndarray, umap: UpsampleMap) -> np.ndarray:
    return umap.scale * np.repeat(V, umap.repeat, axis=1)[:, : umap.target_dim]


def upsample_transpose_batch(C: np.ndarray, umap: UpsampleMap) -> np.ndarray:
    """Adjoint of upsample_batch: (B, n) cotangents to (B, K)."""
    b = C.shape[0]
    full = np.zeros((b, umap.num_outputs * umap.repeat))
    full[:, : umap.target_dim] = C
    return umap.scale * full.reshape(b, umap.num_outputs, umap.repeat).sum(axis=2)
