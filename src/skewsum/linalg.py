"""Dense Hermitian linear algebra on small complex matrices.

Eigendecomposition goes through the in-package cyclic Jacobi kernel (see
``_kernels``) rather than LAPACK, so that its rotation order and arithmetic,
and with them the results' bits, are fixed by this package. The kernel
rotates Python floats, and each Python float operation is one IEEE
operation rounded once, so the rotations' bits do not depend on how numpy
dispatches its loops; only the convergence tolerance comes from
``numpy.linalg.norm``. Matrices are plain ``complex128`` arrays wrapped in
a thin validated type.
"""

from __future__ import annotations

import math
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
# matrices whose Frobenius norm is below this or not finite are solved
# scaled by a power of two, which is exact, and the eigenvalues scaled back
_NORM_FLOOR = 2.0**-500
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

    Construction checks the conjugate-transpose deviation against
    ``HERMITIAN_ATOL`` times the largest entry's magnitude, so that the
    check does not depend on the matrix's scale, and stores the hermitized
    average
    ``M / 2 + M^dag / 2``, halved before the sum so that entries near the
    float64 maximum do not overflow. The eigensystem
    is computed on first use and cached; the matrix never changes, so the
    cache never goes stale.
    """

    __slots__ = ("mat", "_eigen")

    def __init__(self, mat):
        m = np.array(mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("matrix has non-finite entries")
        deviation = float(np.abs(m - m.conj().T).max(initial=0.0))
        if deviation:  # an exactly Hermitian matrix passes at any scale
            allowed = HERMITIAN_ATOL * float(np.abs(m).max())
            if deviation > allowed:
                raise NotHermitianError(deviation, allowed)
        m = m / 2.0 + m.conj().T / 2.0
        m.setflags(write=False)
        self.mat = m
        self._eigen = None

    @classmethod
    def coerce(cls, x) -> HermitianMatrix:
        """``x`` itself if it is already a ``cls``, else ``cls(x)``, which
        validates it; a subclass applies its own rules."""
        return x if isinstance(x, cls) else cls(x)

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
        return HermitianMatrix(self.mat + np.asarray(other, dtype=np.complex128))

    def __sub__(self, other):
        return HermitianMatrix(self.mat - np.asarray(other, dtype=np.complex128))

    def __neg__(self):
        return HermitianMatrix(-self.mat)

    def __mul__(self, scale):
        return HermitianMatrix(self.mat * float(scale))

    __rmul__ = __mul__


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


def rescaled_norm(a: np.ndarray) -> tuple[float, int]:
    """The Frobenius norm of the complex array ``a``, as ``(norm, exp)``.

    Where the norm is not finite or is below 2**-500, its squares over- or
    underflowed: ``a`` is then scaled in place by 2**-exp, which is exact,
    so that its largest real or imaginary part lies in [1/2, 1), and the
    norm returned is the scaled array's. Otherwise ``a`` is untouched and
    ``exp`` is 0.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if _NORM_FLOOR <= norm < math.inf:
        return norm, 0
    parts = a.view(np.float64)
    exp = math.frexp(float(np.max(np.abs(parts), initial=0.0)))[1]
    np.ldexp(parts, -exp, out=parts)
    return float(np.linalg.norm(a)), exp


def hermitian_eig(matrix) -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix via cyclic Jacobi.

    Eigenvalues come back ascending (stable order among exact ties) and each
    eigenvector's first component of magnitude above 1e-8 is made real and
    positive, which pins the phase deterministically.

    A matrix whose Frobenius norm overflows, or underflows below 2**-500,
    would get a meaningless convergence tolerance; it is solved scaled by a
    power of two and its eigenvalues are scaled back, both exactly. The
    solver gives up after ``JACOBI_MAX_SWEEPS`` sweeps, read at each call.
    """
    a = np.array(HermitianMatrix.coerce(matrix).mat, dtype=np.complex128, order="C")
    d = a.shape[0]
    v = np.eye(d, dtype=np.complex128)
    # where the squares in the norm over- or underflow, the residual's
    # would too: solve a copy whose largest entry lies in [1/2, 1)
    norm, exp = rescaled_norm(a)
    tol = JACOBI_TOL_FACTOR * max(norm, np.finfo(np.float64).tiny)
    sweeps, off = _kernels.jacobi_sweeps(a, v, tol, JACOBI_MAX_SWEEPS)
    if off > tol:
        raise EigenConvergenceError(math.ldexp(off, exp), sweeps)

    values = np.ldexp(np.diagonal(a).real, exp)
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


def sqrt_psd(matrix) -> HermitianMatrix:
    """Principal square root of a positive semidefinite Hermitian matrix.

    The one owner of the PSD check: eigenvalues below ``PSD_EIG_FLOOR``
    raise; eigenvalues below ``ZERO_EIG_SNAP`` are treated as exact zeros so
    that square-rooting a rank-deficient matrix does not amplify round-off
    noise. A matrix's cached eigensystem is reused, not solved again.
    """
    eig = HermitianMatrix.coerce(matrix).eigensystem
    lo = float(eig.values[0]) if eig.dim else 0.0
    if lo < PSD_EIG_FLOOR:
        raise NotPositiveSemidefiniteError(lo)
    w = np.where(eig.values < ZERO_EIG_SNAP, 0.0, eig.values)
    return HermitianMatrix((eig.vectors * np.sqrt(w)) @ eig.vectors.conj().T)
