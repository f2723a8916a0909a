"""Pauli-Z readout on every qubit and the upsampling map.

Each Z_q is diagonal in the computational basis, so the ensemble reduces to
K = Q real diagonal vectors of +-1 and expectations to one matrix product
against |amplitudes|^2. Basis columns with equal diagonal entries are read
alike, so ``ObservableEnsemble.classes`` sorts them into classes, per group of
up to 5 qubits read at one width, and the model builds its forms per class.
The upsampling map is the fixed (n, K) matrix S that takes the K readouts back
to the input width n = rK.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError

_GROUP = 5  # observables per class group: at most 2**5 classes


@lru_cache(maxsize=None)
def _diagonals(num_qubits: int) -> np.ndarray:
    rows = 1.0 - 2.0 * ((np.arange(1 << num_qubits) >> np.arange(num_qubits)[:, None]) & 1)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _classes(num_qubits: int, widths: tuple) -> tuple:
    diags = _diagonals(num_qubits)
    table = []
    for width in sorted(set(widths)):
        members = [q for q, w in enumerate(widths) if w == width]
        for lo in range(0, len(members), _GROUP):
            obs = np.array(members[lo : lo + _GROUP])
            signs, inverse = np.unique(diags[obs, :width], axis=1, return_inverse=True)
            cols = np.argsort(inverse.reshape(-1), kind="stable").reshape(signs.shape[1], -1)
            slots = np.argsort(cols.reshape(-1))  # the inverse permutation
            for a in (obs, signs, cols, slots):
                a.setflags(write=False)
            table.append((obs, signs, cols, slots))
    return tuple(table)


@dataclass(frozen=True)
class ObservableEnsemble:
    """The K = Q observables Z_0 ... Z_(Q-1): Pauli-Z on every qubit."""

    num_qubits: int

    def __post_init__(self):
        if self.num_qubits < 1:
            raise DimensionError("ensemble needs at least one qubit")

    @property
    def size(self) -> int:
        return self.num_qubits

    def diagonals(self) -> np.ndarray:
        """(K, 2**Q) diagonal entries, read-only: row q is 1 - 2 (bit q of the column index)."""
        return _diagonals(self.num_qubits)

    def classes(self, widths: tuple) -> tuple:
        """Per group of up to 5 qubits read at one width, (obs, signs, cols, slots), read-only.

        ``widths`` (Q,) gives, per qubit, the lowest basis columns at which Z_q is read
        (``simcore.cone_widths``). ``obs`` indexes the group's observables out of the K.
        Columns below the group's width with equal diagonal entries over the group form a
        class: class c holds the columns cols[c] (cols is (C, s), every class one size), and
        signs[:, c] (shape (K_g, C)) are their entries. Every column falls in one class, so
        slots (width,), each column's place in cols.ravel(), is the inverse permutation of cols.
        """
        return _classes(self.num_qubits, tuple(widths))


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
