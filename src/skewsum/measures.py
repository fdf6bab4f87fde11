"""Uncertainty measures of an observable in a state.

Variance is (Delta A)^2 = <A^2> - <A>^2. Skew information is
I(rho, A) = -(1/2) tr([sqrt(rho), A]^2) = (1/2) ||[sqrt(rho), A]||_F^2,
which reduces to the variance exactly when rho is pure.
"""

from __future__ import annotations

import numpy as np

from .linalg import HermitianMatrix, as_matrix, commutator, frobenius_norm_sq, hermitian_eig
from .states import DensityMatrix, coerce_density

# mild round-off below zero is clamped; anything worse is a real error
NEGATIVE_CLAMP = -1e-12
_EXPECT_IMAG_ATOL = 1e-10


def _state_and_obs(rho, obs):
    state = coerce_density(rho)
    a = as_matrix(obs)
    if a.shape != state.mat.shape:
        raise ValueError(f"dimension mismatch: state {state.mat.shape}, observable {a.shape}")
    return state, a


def expectation(rho, obs) -> float:
    """<A> = tr(rho A), returned as a real number."""
    state, a = _state_and_obs(rho, obs)
    val = complex(np.einsum("ij,ji->", state.mat, a))
    if abs(val.imag) > _EXPECT_IMAG_ATOL * max(1.0, abs(val)):
        raise ValueError(f"expectation has non-real value {val}")
    return float(val.real)


def variance(rho, obs) -> float:
    """(Delta A)^2 = <A^2> - <A>^2, clamped to 0 against round-off."""
    state, a = _state_and_obs(rho, obs)
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
    state, a = _state_and_obs(rho, obs)
    return 0.5 * frobenius_norm_sq(commutator(state.sqrt(), a))


def amplitude_vector(rho, obs) -> np.ndarray:
    """Nonnegative vector a with ||a||^2 = variance of the observable.

    Component k is |u_k - <A>| sqrt(<u_k|rho|u_k>) over the eigenpairs
    (u_k, |u_k>) of the observable.
    """
    state, a = _state_and_obs(rho, obs)
    # a HermitianMatrix solves once and keeps the result; a bare array is solved here
    eig = obs.eigensystem if isinstance(obs, HermitianMatrix) else hermitian_eig(a)
    mean = float(np.einsum("ij,ji->", state.mat, a).real)
    # probabilities of the observable's eigenvectors in the state
    probs = np.einsum("ik,ij,jk->k", eig.vectors.conj(), state.mat, eig.vectors).real
    probs = np.clip(probs, 0.0, None)
    return np.abs(eig.values - mean) * np.sqrt(probs)
