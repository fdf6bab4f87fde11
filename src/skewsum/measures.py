"""Uncertainty measures of an observable in a state.

Variance is (Delta A)^2 = <A^2> - <A>^2. Skew information is
I(rho, A) = -(1/2) tr([sqrt(rho), A]^2) = (1/2) ||[sqrt(rho), A]||_F^2,
which reduces to the variance exactly when rho is pure.
"""

from __future__ import annotations

import numpy as np

# hermitian_eig is not called here; perfbench/tracing.py patches
# ``measures.hermitian_eig`` and its tests assert that the name exists, so the
# import stays until the tracer reads library-owned counters instead
from .linalg import HermitianMatrix, hermitian_eig  # noqa: F401
from .states import DensityMatrix

# mild round-off below zero is clamped; anything worse is a real error
NEGATIVE_CLAMP = -1e-12


def _state_and_obs(rho, obs):
    """The validated ``(DensityMatrix, HermitianMatrix)`` pair, checked for
    equal dimensions."""
    state = DensityMatrix.coerce(rho)
    obs = HermitianMatrix.coerce(obs)
    if obs.dim != state.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, observable {obs.dim}")
    return state, obs


def expectation(rho, obs) -> float:
    """<A> = tr(rho A), real because both matrices are validated Hermitian."""
    state, obs = _state_and_obs(rho, obs)
    return float(np.einsum("ij,ji->", state.mat, obs.mat).real)


def variance(rho, obs) -> float:
    """(Delta A)^2 = <A^2> - <A>^2, clamped to 0 against round-off."""
    state, obs = _state_and_obs(rho, obs)
    a = obs.mat
    ra = state.mat @ a
    mean = float(np.trace(ra).real)
    second = float(np.einsum("ij,ji->", ra, a).real)
    var = second - mean * mean
    if var < 0.0:
        if var < NEGATIVE_CLAMP * max(1.0, abs(second)):
            raise ValueError(f"variance {var} is negative beyond round-off")
        var = 0.0
    return var


def skew_information(rho, obs) -> float:
    """Wigner-Yanase skew information (1/2) ||[sqrt(rho), A]||_F^2."""
    state, obs = _state_and_obs(rho, obs)
    a = obs.mat
    root = state.sqrt().mat
    comm = root @ a - a @ root
    return 0.5 * float(np.sum(comm.real**2 + comm.imag**2))


def _amplitude_vectors(rho: np.ndarray, a: np.ndarray, sets) -> np.ndarray:
    """The (B, N, d) :func:`amplitude_vector` stack of B (d, d) states, the
    (B, N, d, d) stack ``a`` of their observables and ``sets``, the B rows
    of validated observables whose eigensystems it reads; one mean einsum
    per observable, since one over all N sums <A_i> in another order."""
    eigs = [[o.eigensystem for o in obs] for obs in sets]
    values = np.array([[e.values for e in row] for row in eigs])
    vectors = np.array([[e.vectors for e in row] for row in eigs])
    mean = np.stack([np.einsum("bij,bji->b", rho, a[:, k]) for k in range(a.shape[1])], 1).real
    # probabilities of the observables' eigenvectors in the state
    probs = np.einsum("bnik,bij,bnjk->bnk", vectors.conj(), rho, vectors).real
    probs = np.clip(probs, 0.0, None)
    return np.abs(values - mean[:, :, None]) * np.sqrt(probs)


def amplitude_vector(rho, obs) -> np.ndarray:
    """Nonnegative vector a with ||a||^2 = variance of the observable.

    Component k is |u_k - <A>| sqrt(<u_k|rho|u_k>) over the eigenpairs
    (u_k, |u_k>) of the observable: the batch of one of what reports read.
    """
    state, obs = _state_and_obs(rho, obs)
    return _amplitude_vectors(state.mat[None], obs.mat[None, None], [[obs]])[0, 0]
