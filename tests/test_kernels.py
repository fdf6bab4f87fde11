"""The numpy kernels: Jacobi sweeps and the Theorem-1 permutation scan."""

import numpy as np
import pytest

import skewsum
from skewsum import _kernels
from skewsum.bounds import scan_inputs
from skewsum.rng import SplitMix64


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


def test_scan_numpy_matches_direct_enumeration():
    import itertools

    gen = SplitMix64(33)
    for trial in range(25):
        n = 2 + trial % 3
        d = 2 + (trial // 3) % 2
        avs = np.abs(gen.normals((n, d)))
        perms_arr, args = scan_inputs(avs)
        best, sel = _kernels.theorem1_scan(*args)

        perms = list(itertools.permutations(range(d)))
        c1 = 1.0 / (2.0 * n - 2.0)
        c2 = 2.0 / (n * (n - 1.0))
        ref_best = -np.inf
        for tup in itertools.product(*([perms[0:1]] + [perms] * (n - 1))):
            ss = 0.0
            dd = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    ai = avs[i][list(tup[i])]
                    aj = avs[j][list(tup[j])]
                    ss += float(np.sum((ai + aj) ** 2))
                    dd += float(np.linalg.norm(ai - aj))
            ref_best = max(ref_best, c1 * (ss + c2 * dd * dd))
        assert best == pytest.approx(ref_best, abs=1e-10)


def test_scan_tie_selection_is_first_index():
    # identical amplitude vectors make every tuple optimal; the scan must
    # settle on the lexicographically first one
    avs = np.ones((3, 3))
    _, args = scan_inputs(avs)
    _, sel = _kernels.theorem1_scan(*args)
    assert sel == 0
