"""Density matrices, Bloch-ball states and seeded random instances."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PSD_EIG_FLOOR,
    ZERO_EIG_SNAP,
    EigenSystem,
    HermitianMatrix,
    NotPositiveSemidefiniteError,
    as_matrix,
)
from .rng import SplitMix64

TRACE_ATOL = 1e-10
BLOCH_NORM_ATOL = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2):
    _m.setflags(write=False)
del _m


@dataclass(frozen=True)
class BlochVector:
    """Point in the Bloch ball; the norm may not exceed 1."""

    rx: float
    ry: float
    rz: float

    def __post_init__(self):
        n = self.norm
        if not math.isfinite(n):
            raise ValueError("Bloch components must be finite")
        if n > 1.0 + BLOCH_NORM_ATOL:
            raise ValueError(f"Bloch vector norm {n} exceeds 1")

    @property
    def norm(self) -> float:
        return math.sqrt(self.rx**2 + self.ry**2 + self.rz**2)


class DensityMatrix:
    """Validated density matrix with a cached eigensystem and square root.

    Construction requires a Hermitian matrix with unit trace (within
    ``TRACE_ATOL``) and eigenvalues above ``PSD_EIG_FLOOR``. The
    eigendecomposition, cached on the underlying :class:`HermitianMatrix`,
    runs once, up front, and feeds both validation and the cached principal
    square root used by skew-information evaluations.
    """

    __slots__ = ("hermitian", "_sqrt")

    def __init__(self, mat):
        h = mat if isinstance(mat, HermitianMatrix) else HermitianMatrix(mat)
        trace = float(np.trace(h.mat).real)
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace must be 1, got {trace!r}")
        lo = float(h.eigensystem.values[0])
        if lo < PSD_EIG_FLOOR:
            raise NotPositiveSemidefiniteError(lo)
        self.hermitian = h
        self._sqrt = None

    @property
    def mat(self) -> np.ndarray:
        return self.hermitian.mat

    @property
    def dim(self) -> int:
        return self.hermitian.dim

    @property
    def eigensystem(self) -> EigenSystem:
        return self.hermitian.eigensystem

    def sqrt(self) -> HermitianMatrix:
        """Principal square root, computed once from the cached eigensystem."""
        if self._sqrt is None:
            eig = self.eigensystem
            w = np.where(eig.values < ZERO_EIG_SNAP, 0.0, eig.values)
            v = eig.vectors
            root = (v * np.sqrt(w)) @ v.conj().T
            root = (root + root.conj().T) / 2.0
            self._sqrt = HermitianMatrix(root)
        return self._sqrt

    def purity(self) -> float:
        return float(np.sum(self.eigensystem.values**2))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.mat, dtype=dtype)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, purity={self.purity():.6f})"


def pure_state(amplitudes) -> DensityMatrix:
    """Density matrix |psi><psi| of a state vector, normalizing if needed."""
    psi = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if psi.size == 0:
        raise ValueError("state vector is empty")
    if not np.all(np.isfinite(psi.view(np.float64))):
        raise ValueError("state vector has non-finite entries")
    nrm = float(np.linalg.norm(psi))
    if nrm <= 0.0:
        raise ValueError("state vector has zero norm")
    psi = psi / nrm
    return DensityMatrix(np.outer(psi, psi.conj()))


def from_bloch(r) -> DensityMatrix:
    """Qubit state (I + r . sigma) / 2 for r in the Bloch ball."""
    if not isinstance(r, BlochVector):
        rx, ry, rz = (float(c) for c in r)
        r = BlochVector(rx, ry, rz)
    rho = 0.5 * (IDENTITY_2 + r.rx * SIGMA_X + r.ry * SIGMA_Y + r.rz * SIGMA_Z)
    return DensityMatrix(rho)


def random_pure(dim: int, seed: int) -> DensityMatrix:
    """Haar-distributed pure state of dimension ``dim``."""
    if dim < 1:
        raise ValueError("dim must be positive")
    g = SplitMix64(seed)
    return pure_state(g.complex_normals(dim))


def random_mixed(dim: int, seed: int) -> DensityMatrix:
    """Full-rank-almost-surely mixed state G G^dag / tr(G G^dag), G Ginibre."""
    if dim < 1:
        raise ValueError("dim must be positive")
    g = SplitMix64(seed)
    gin = g.complex_normals((dim, dim))
    rho = gin @ gin.conj().T
    rho = rho / float(np.trace(rho).real)
    return DensityMatrix(rho)


def random_observable(dim: int, seed: int) -> HermitianMatrix:
    """GUE-style random observable (G + G^dag) / 2, G Ginibre."""
    if dim < 1:
        raise ValueError("dim must be positive")
    g = SplitMix64(seed)
    gin = g.complex_normals((dim, dim))
    return HermitianMatrix((gin + gin.conj().T) / 2.0)


def coerce_density(state) -> DensityMatrix:
    """Accept a DensityMatrix, or anything convertible to one."""
    if isinstance(state, DensityMatrix):
        return state
    return DensityMatrix(as_matrix(state))
