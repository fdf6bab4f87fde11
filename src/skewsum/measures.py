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
from .linalg import coerce_hermitian, hermitian_eig  # noqa: F401
from .states import coerce_density

# mild round-off below zero is clamped; anything worse is a real error
NEGATIVE_CLAMP = -1e-12


def _state_and_obs(rho, obs):
    """The validated ``(DensityMatrix, HermitianMatrix)`` pair, checked for
    equal dimensions."""
    state = coerce_density(rho)
    obs = coerce_hermitian(obs)
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


def amplitude_vector(rho, obs) -> np.ndarray:
    """Nonnegative vector a with ||a||^2 = variance of the observable.

    Component k is |u_k - <A>| sqrt(<u_k|rho|u_k>) over the eigenpairs
    (u_k, |u_k>) of the observable.
    """
    state, obs = _state_and_obs(rho, obs)
    eig = obs.eigensystem
    mean = float(np.einsum("ij,ji->", state.mat, obs.mat).real)
    # probabilities of the observable's eigenvectors in the state
    probs = np.einsum("ik,ij,jk->k", eig.vectors.conj(), state.mat, eig.vectors).real
    probs = np.clip(probs, 0.0, None)
    return np.abs(eig.values - mean) * np.sqrt(probs)
