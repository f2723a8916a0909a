"""Expectation readout over observable ensembles and the upsampling map.

Both observable kinds used here (Pauli-Z on a site, projectors onto
computational basis states) are diagonal in the computational basis, so an
ensemble reduces to K real diagonal vectors and expectations to one matrix
product against |amplitudes|^2. Basis columns with equal diagonal entries are
read alike, so ``ObservableEnsemble.classes`` sorts them into classes, per group
of up to 5 observables read at one width, and the model builds its forms per class.
The upsampling map is the fixed (n, K) matrix S that takes the K readouts back
to the input width n = rK.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError

PAULI_Z = "pauli_z"
BASIS_PROJECTOR = "basis_projector"

_GROUP = 5  # observables per class group: at most 2**5 Pauli-Z classes


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


@lru_cache(maxsize=None)
def _classes(kind: str, sites: tuple, num_qubits: int, widths: tuple) -> tuple:
    diags = _diagonals(kind, sites, num_qubits)
    reads = [widths[s] if kind == PAULI_Z else max(widths) for s in sites]
    table = []
    for width in sorted(set(reads)):
        members = [k for k, w in enumerate(reads) if w == width]
        for lo in range(0, len(members), _GROUP):
            obs = np.array(members[lo : lo + _GROUP])
            block = diags[obs, :width]
            live = np.flatnonzero(block.any(axis=0))
            if not live.size:  # projectors past the columns that the kets reach read 0
                continue
            signs, inverse = np.unique(block[:, live], axis=1, return_inverse=True)
            # both kinds give equal classes: 2**(q - distinct sites) columns for Pauli-Z, one for a projector
            cols = live[np.argsort(inverse.reshape(-1), kind="stable")].reshape(signs.shape[1], -1)
            slots = np.full(width, cols.size)
            slots[cols.reshape(-1)] = np.arange(cols.size)
            for a in (obs, signs, cols, slots):
                a.setflags(write=False)
            table.append((obs, signs, cols, slots))
    return tuple(table)


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

    def classes(self, num_qubits: int, widths: tuple) -> tuple:
        """Per group of up to 5 observables read at one width, (obs, signs, cols, slots), read-only.

        ``widths`` (Q,) gives, per qubit, the lowest basis columns at which a Pauli-Z on it
        is read (``simcore.cone_widths``; projectors read at the widest). ``obs`` indexes the
        group's observables out of the K. Columns below the group's width with equal
        non-zero diagonal entries over the group form a class: class c holds the columns
        cols[c] (cols is (C, s), every class one size), and signs[:, c] (shape (K_g, C)) are
        their entries. Columns whose entries are all zero belong to no class, and a group
        with none is left out. slots (width,) gives each column's place in cols.ravel(), and
        cols.size for a column of no class.
        """
        return _classes(self.kind, self.sites, num_qubits, tuple(widths))

    @classmethod
    def pauli_z_all(cls, num_qubits: int) -> "ObservableEnsemble":
        return cls(PAULI_Z, tuple(range(num_qubits)))


@dataclass(frozen=True)
class UpsampleMap:
    """Entry repetition from K readouts to n = r*K latent entries, scaled 1/sqrt(r): an exact
    isometry (S^T S = I), so the solvers can work on the K readouts. K must divide n."""

    num_outputs: int  # K
    target_dim: int  # n
    repeat: int = field(init=False)
    scale: float = field(init=False)

    def __post_init__(self):
        if self.num_outputs < 1 or self.target_dim < 1:
            raise DimensionError("upsample dims must be positive")
        r, rest = divmod(self.target_dim, self.num_outputs)
        if rest:
            raise DimensionError(f"upsample target dim {self.target_dim} is not a multiple of {self.num_outputs}")
        object.__setattr__(self, "repeat", r)
        object.__setattr__(self, "scale", 1.0 / math.sqrt(r))

    @cached_property
    def matrix(self) -> np.ndarray:
        """S (n, K), read-only: a batch of readouts E (B, K) upsamples to E @ S.T."""
        S = self.scale * np.repeat(np.eye(self.num_outputs), self.repeat, axis=0)
        S.setflags(write=False)
        return S


def upsample(v: np.ndarray, umap: UpsampleMap) -> np.ndarray:
    """Repeat each entry ``repeat`` times, scale."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != umap.num_outputs:
        raise DimensionError(f"expected {umap.num_outputs} entries, got {v.shape[0]}")
    return umap.scale * np.repeat(v, umap.repeat)
