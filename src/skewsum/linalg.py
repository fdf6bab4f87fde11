"""Dense Hermitian linear algebra on small complex matrices.

Eigendecomposition goes through the in-package cyclic Jacobi kernels (see
``_kernels``) rather than LAPACK so that results are bit-stable for a given
backend. Matrices are plain ``complex128`` arrays wrapped in a thin
validated type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

HERMITIAN_ATOL = 1e-12
# eigenvalues of a nominally PSD matrix: reject below this ...
PSD_EIG_FLOOR = -1e-10
# ... and snap to exactly zero below this before taking square roots,
# so rank-deficient inputs do not leak sqrt(tiny-noise) into results
ZERO_EIG_SNAP = 1e-12
JACOBI_TOL_FACTOR = 1e-13
JACOBI_MAX_SWEEPS = 100
_PHASE_EPS = 1e-8


class LinalgError(Exception):
    """Base class for errors raised by this module."""


class NotHermitianError(LinalgError):
    """Input matrix is further from its conjugate transpose than allowed."""

    def __init__(self, deviation: float, atol: float):
        self.deviation = float(deviation)
        self.atol = float(atol)
        super().__init__(
            f"matrix deviates from Hermitian by {self.deviation:.3e} "
            f"(allowed {self.atol:.3e})"
        )


class NotPositiveSemidefiniteError(LinalgError):
    """A matrix required to be PSD has a clearly negative eigenvalue."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = float(eigenvalue)
        super().__init__(f"matrix has negative eigenvalue {self.eigenvalue:.6e}")


class EigenConvergenceError(LinalgError):
    """Jacobi iteration hit the sweep cap before reaching its residual target."""

    def __init__(self, residual: float, sweeps: int):
        self.residual = float(residual)
        self.sweeps = int(sweeps)
        super().__init__(
            f"eigensolver did not converge after {self.sweeps} sweeps "
            f"(off-diagonal residual {self.residual:.3e})"
        )


class HermitianMatrix:
    """A validated, immutable complex Hermitian matrix.

    Construction checks the conjugate-transpose deviation against ``atol``
    and stores the hermitized average ``(M + M^dag) / 2``. The eigensystem
    is computed on first use and cached; the matrix never changes, so the
    cache never goes stale.
    """

    __slots__ = ("mat", "_eigen")

    def __init__(self, mat, atol: float = HERMITIAN_ATOL):
        m = np.array(mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("matrix has non-finite entries")
        deviation = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if deviation > atol:
            raise NotHermitianError(deviation, atol)
        m = (m + m.conj().T) / 2.0
        m.setflags(write=False)
        self.mat = m
        self._eigen = None

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def eigensystem(self) -> EigenSystem:
        """``hermitian_eig(self)``, solved once per matrix."""
        if self._eigen is None:
            self._eigen = hermitian_eig(self)
        return self._eigen

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.mat, dtype=dtype)

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"

    # sums, differences and real scalings of Hermitian matrices are
    # Hermitian exactly, so these never trip the tolerance check
    def __add__(self, other):
        return HermitianMatrix(self.mat + as_matrix(other))

    def __sub__(self, other):
        return HermitianMatrix(self.mat - as_matrix(other))

    def __neg__(self):
        return HermitianMatrix(-self.mat)

    def __mul__(self, scale):
        return HermitianMatrix(self.mat * float(scale))

    __rmul__ = __mul__


def as_matrix(x) -> np.ndarray:
    """Unwrap HermitianMatrix-like objects to a complex128 ndarray view."""
    m = getattr(x, "mat", x)
    return np.asarray(m, dtype=np.complex128)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in ascending order and matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def hermitian_eig(matrix, max_sweeps: int = JACOBI_MAX_SWEEPS) -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix via cyclic Jacobi.

    Eigenvalues come back ascending (stable order among exact ties) and each
    eigenvector's first component of magnitude above 1e-8 is made real and
    positive, which pins the phase deterministically.
    """
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix(matrix)
    a = np.array(matrix.mat, dtype=np.complex128, order="C")
    d = a.shape[0]
    v = np.eye(d, dtype=np.complex128)
    norm = float(np.linalg.norm(matrix.mat))
    tol = JACOBI_TOL_FACTOR * max(norm, np.finfo(np.float64).tiny)
    sweeps, off = _kernels.jacobi_sweeps(a, v, tol, max_sweeps)
    if off > tol:
        raise EigenConvergenceError(off, sweeps)

    values = np.diagonal(a).real.copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = np.array(v[:, order], order="C")
    for k in range(d):
        col = vectors[:, k]
        idx = np.flatnonzero(np.abs(col) > _PHASE_EPS)
        lead = col[idx[0]] if idx.size else 1.0
        mag = abs(lead)
        if mag > 0.0:
            vectors[:, k] = col * (mag / lead)
    return EigenSystem(values=values, vectors=vectors)


def sqrt_psd(matrix, max_sweeps: int = JACOBI_MAX_SWEEPS) -> HermitianMatrix:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues below ``PSD_EIG_FLOOR`` raise; eigenvalues below
    ``ZERO_EIG_SNAP`` are treated as exact zeros so that square-rooting a
    rank-deficient matrix does not amplify round-off noise.
    """
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix(matrix)
    eig = hermitian_eig(matrix, max_sweeps=max_sweeps)
    lo = float(eig.values[0]) if eig.dim else 0.0
    if lo < PSD_EIG_FLOOR:
        raise NotPositiveSemidefiniteError(lo)
    w = np.where(eig.values < ZERO_EIG_SNAP, 0.0, eig.values)
    root = (eig.vectors * np.sqrt(w)) @ eig.vectors.conj().T
    # the spectral product is Hermitian only to round-off; symmetrizing
    # makes it exact so the wrapper check cannot trip at large norms
    root = (root + root.conj().T) / 2.0
    return HermitianMatrix(root)


def commutator(x, y) -> np.ndarray:
    """Matrix commutator [X, Y] = XY - YX."""
    xm = as_matrix(x)
    ym = as_matrix(y)
    if xm.shape != ym.shape:
        raise ValueError(f"dimension mismatch: {xm.shape} vs {ym.shape}")
    return xm @ ym - ym @ xm


def frobenius_norm_sq(x) -> float:
    """Squared Frobenius norm, sum of |entries|^2."""
    m = as_matrix(x)
    return float(np.sum(m.real**2 + m.imag**2))
