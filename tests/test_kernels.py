"""The kernels: Jacobi sweeps and the Theorem-1 permutation scan."""

import itertools
import math

import numpy as np
import pytest

import skewsum
from skewsum import _kernels
from skewsum.rng import SplitMix64
from skewsum.scenarios import L_X, L_Y, L_Z
from skewsum.states import SIGMA_X, SIGMA_Y, SIGMA_Z, random_pure


def _random_hermitian(dim, gen):
    g = gen.complex_normals((dim, dim))
    return (g + g.conj().T) / 2.0


def _run_jacobi(mat):
    a = mat.copy()
    v = np.eye(mat.shape[0], dtype=np.complex128)
    tol = 1e-13 * max(float(np.linalg.norm(mat)), 1e-300)
    sweeps, off = _kernels.jacobi_sweeps(a, v, tol, 100)
    assert off <= tol
    return a, v


def test_backend_reports_active_path():
    assert skewsum.backend() == _kernels.backend() == "numpy"


def test_jacobi_numpy_diagonalizes():
    gen = SplitMix64(31)
    for dim in (2, 3, 5):
        m = _random_hermitian(dim, gen)
        a, v = _run_jacobi(m)
        rec = v @ a @ v.conj().T
        assert np.max(np.abs(rec - m)) < 1e-11 * max(1.0, float(np.linalg.norm(m)))


def _theorem1_objective(avs, tup):
    n = avs.shape[0]
    c1 = 1.0 / (2.0 * n - 2.0)
    c2 = 2.0 / (n * (n - 1.0))
    ss = 0.0
    dd = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            ai = avs[i][list(tup[i])]
            aj = avs[j][list(tup[j])]
            ss += float(np.sum((ai + aj) ** 2))
            dd += float(np.linalg.norm(ai - aj))
    return c1 * (ss + c2 * dd * dd)


def test_scan_numpy_matches_direct_enumeration():
    gen = SplitMix64(33)
    for trial in range(25):
        n = 2 + trial % 3
        d = 2 + (trial // 3) % 2
        avs = np.abs(gen.normals((n, d)))
        (best,), (best_perms,) = _kernels.theorem1_scan(avs[None])

        perms = list(itertools.permutations(range(d)))
        ref_best = max(
            _theorem1_objective(avs, tup)
            for tup in itertools.product(*([perms[0:1]] + [perms] * (n - 1)))
        )
        assert best == pytest.approx(ref_best, abs=1e-10)
        assert len(best_perms) == n and best_perms[0] == perms[0]
        assert _theorem1_objective(avs, best_perms) == pytest.approx(best, abs=1e-10)


def test_scan_tie_selection_is_first_index():
    # identical amplitude vectors make every tuple optimal; the scan must
    # settle on the lexicographically first one
    assert _kernels.theorem1_scan(np.ones((1, 3, 3)))[1][0] == ((0, 1, 2),) * 3


# ---------------------------------------------------------------------------
# Bitwise oracle: the element-wise numpy Jacobi kernel that the scalar one
# replaced, kept verbatim. The scalar kernel must reproduce its sweeps,
# residual and every bit of a and v.
# ---------------------------------------------------------------------------


def _reference_off_norm(a: np.ndarray) -> float:
    sq = a.real**2 + a.imag**2
    np.fill_diagonal(sq, 0.0)
    if sq.size == 0:
        return 0.0
    # cumsum accumulates strictly left to right; sum() would reassociate
    # pairwise, round differently, and could stop the sweeps elsewhere
    return math.sqrt(float(np.cumsum(sq.reshape(-1))[-1]))


def _reference_jacobi_sweeps(a, v, tol, max_sweeps):
    d = a.shape[0]
    ar, ai = a.real, a.imag
    vr, vi = v.real, v.imag
    off = _reference_off_norm(a)
    sweeps = 0
    while off > tol and sweeps < max_sweeps:
        # rotations below this size cannot move the residual past tol
        skip = tol / d
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                phr = apq.real / r
                phi = apq.imag / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
                if tau < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cpr = c * phr
                cpi = c * phi
                spr = s * phr
                spi = s * phi
                xr, xi = ar[:, p].copy(), ai[:, p].copy()
                yr, yi = ar[:, q].copy(), ai[:, q].copy()
                ar[:, p] = (cpr * xr - cpi * xi) - s * yr
                ai[:, p] = (cpr * xi + cpi * xr) - s * yi
                ar[:, q] = (spr * xr - spi * xi) + c * yr
                ai[:, q] = (spr * xi + spi * xr) + c * yi
                # rows pick up conj(cp) and conj(sp)
                xr, xi = ar[p, :].copy(), ai[p, :].copy()
                yr, yi = ar[q, :].copy(), ai[q, :].copy()
                ar[p, :] = (cpr * xr + cpi * xi) - s * yr
                ai[p, :] = (cpr * xi - cpi * xr) - s * yi
                ar[q, :] = (spr * xr + spi * xi) + c * yr
                ai[q, :] = (spr * xi - spi * xr) + c * yi
                a[p, q] = 0.0
                a[q, p] = 0.0
                ai[p, p] = 0.0
                ai[q, q] = 0.0
                xr, xi = vr[:, p].copy(), vi[:, p].copy()
                yr, yi = vr[:, q].copy(), vi[:, q].copy()
                vr[:, p] = (cpr * xr - cpi * xi) - s * yr
                vi[:, p] = (cpr * xi + cpi * xr) - s * yi
                vr[:, q] = (spr * xr - spi * xi) + c * yr
                vi[:, q] = (spr * xi + spi * xr) + c * yi
        sweeps += 1
        off = _reference_off_norm(a)
    return sweeps, off


def _differential_corpus():
    """(label, matrix) pairs covering every branch of the rotation loop."""
    gen = SplitMix64(20261018)
    cases = []
    for d in (1, 2, 3, 4, 5, 6, 10):
        for k in range(6):
            cases.append((f"gue-d{d}-{k}", _random_hermitian(d, gen)))
        for k in range(3):
            psi = random_pure(d, seed=1000 * d + k).mat
            cases.append((f"rank1-d{d}-{k}", np.array(psi)))
        # already diagonal: every rotation takes the skip branch
        cases.append((f"diag-d{d}", np.diag(gen.normals(d)).astype(np.complex128)))
        cases.append((f"zero-d{d}", np.zeros((d, d), dtype=np.complex128)))
        # a degenerate spectrum in a random basis
        u, _ = np.linalg.qr(gen.complex_normals((d, d)))
        w = np.where(np.arange(d) < (d + 1) // 2, 1.0, -2.0)
        cases.append((f"degenerate-d{d}", (u * w) @ u.conj().T))
    for name, m in (("L_X", L_X), ("L_Y", L_Y), ("L_Z", L_Z),
                    ("sigma_x", SIGMA_X), ("sigma_y", SIGMA_Y), ("sigma_z", SIGMA_Z)):
        cases.append((name, np.array(m)))
    return cases


@pytest.mark.parametrize("max_sweeps", [100, 1])
def test_scalar_jacobi_is_bitwise_equal_to_numpy_reference(max_sweeps):
    cases = _differential_corpus()
    rotated = 0
    for label, m in cases:
        tol = 1e-13 * max(float(np.linalg.norm(m)), np.finfo(np.float64).tiny)
        d = m.shape[0]
        a_ref, v_ref = m.copy(), np.eye(d, dtype=np.complex128)
        a_new, v_new = m.copy(), np.eye(d, dtype=np.complex128)
        sweeps_ref, off_ref = _reference_jacobi_sweeps(a_ref, v_ref, tol, max_sweeps)
        sweeps_new, off_new = _kernels.jacobi_sweeps(a_new, v_new, tol, max_sweeps)
        assert (sweeps_new, off_new.hex()) == (sweeps_ref, off_ref.hex()), label
        assert a_new.tobytes() == a_ref.tobytes(), label
        assert v_new.tobytes() == v_ref.tobytes(), label
        rotated += sweeps_ref > 0
    # the corpus must exercise real rotations, not only the skip branch
    assert rotated > len(cases) // 2
