"""Uncertainty measures of an observable in a state.

Variance is (Delta A)^2 = <A^2> - <A>^2. Skew information is
I(rho, A) = -(1/2) tr([sqrt(rho), A]^2) = (1/2) ||[sqrt(rho), A]||_F^2,
which reduces to the variance exactly when rho is pure. Each is computed
here once, over batches, and so is the round-off rule :func:`_clamp`;
``bounds.InstanceData`` reads them, and each public measure is their batch of one.
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


def _moments(rho: np.ndarray, a: np.ndarray):
    """The means <A_i>, complex moments tr(rho A_i A_j) and covariances
    Re tr(rho A_i A_j) - <A_i><A_j> of B (d, d) states and their (B, N, d, d) ``a``."""
    ra = rho[:, None] @ a
    means = np.trace(ra, axis1=2, axis2=3).real
    # tr(rho A_i A_j) = sum_kl (rho A_i)_kl conj((A_j)_kl) for Hermitian A_j
    moments = ra.reshape(*a.shape[:2], -1) @ a.reshape(*a.shape[:2], -1).conj().transpose(0, 2, 1)
    return means, moments, moments.real - means[:, :, None] * means[:, None, :]


def _skew_gram(root: np.ndarray, a: np.ndarray) -> np.ndarray:
    """K_ij = (1/2) Re <[sqrt(rho), A_i], [sqrt(rho), A_j]> of B (d, d) roots
    sqrt(rho) and the (B, N, d, d) stack ``a`` of their observables."""
    comm = (root[:, None] @ a - a @ root[:, None]).reshape(*a.shape[:2], -1).view(np.float64)
    return 0.5 * (comm @ comm.transpose(0, 2, 1))


def _clamp(forms: np.ndarray, scales: np.ndarray, what: str) -> np.ndarray:
    """Round-off below 0 snapped to 0; ``ValueError`` below NEGATIVE_CLAMP * max(1, |scales|)."""
    bad = forms < NEGATIVE_CLAMP * np.maximum(1.0, np.abs(scales))
    if bad.any():
        raise ValueError(f"{what} {forms[bad][0]} is negative beyond round-off")
    return np.where(forms < 0.0, 0.0, forms)


def _finite(x, what: str) -> float:
    """``x`` as a float; ``ValueError`` on float64 overflow, as the reports raise."""
    if not np.isfinite(x := float(x)):
        raise ValueError(f"non-finite {what} {x!r}: "
                         "float64 overflow, the observable's entries are too large")
    return x


def expectation(rho, obs) -> float:
    """<A> = tr(rho A), real because both matrices are validated Hermitian."""
    state, obs = _state_and_obs(rho, obs)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_moments(state.mat[None], obs.mat[None, None])[0][0, 0], "expectation")


def variance(rho, obs) -> float:
    """(Delta A)^2 = <A^2> - <A>^2, clamped to 0 against round-off."""
    state, obs = _state_and_obs(rho, obs)
    with np.errstate(over="ignore", invalid="ignore"):
        _, moments, cov = _moments(state.mat[None], obs.mat[None, None])
        return _finite(_clamp(cov[0, 0], moments.real[0, 0], "variance")[0], "variance")


def skew_information(rho, obs) -> float:
    """Wigner-Yanase skew information (1/2) ||[sqrt(rho), A]||_F^2."""
    state, obs = _state_and_obs(rho, obs)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _skew_gram(state.sqrt().mat[None], obs.mat[None, None])
    return _finite(gram[0, 0, 0], "skew information")


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
