import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewsum import _kernels
from skewsum.linalg import (
    EigenConvergenceError,
    HermitianMatrix,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    as_matrix,
    commutator,
    frobenius_norm_sq,
    hermitian_eig,
    sqrt_psd,
)
from skewsum.rng import SplitMix64
from skewsum.states import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z


def _random_hermitian(dim, gen, scale=1.0):
    g = gen.complex_normals((dim, dim)) * scale
    return (g + g.conj().T) / 2.0


class TestHermitianMatrix:
    def test_eigensystem_is_solved_once(self, monkeypatch):
        calls = []
        jacobi = _kernels.jacobi_sweeps
        monkeypatch.setattr(
            _kernels, "jacobi_sweeps", lambda *a: calls.append(1) or jacobi(*a)
        )
        h = HermitianMatrix(SIGMA_X + 0.5 * SIGMA_Z)
        eig = h.eigensystem
        assert h.eigensystem is eig and len(calls) == 1
        ref = hermitian_eig(h)
        np.testing.assert_array_equal(eig.values, ref.values)
        np.testing.assert_array_equal(eig.vectors, ref.vectors)

    def test_rejects_plainly_asymmetric(self):
        with pytest.raises(NotHermitianError) as err:
            HermitianMatrix([[0, 1], [0, 0]])
        assert err.value.deviation == pytest.approx(1.0)

    def test_accepts_and_symmetrizes_within_atol(self):
        m = np.array([[1.0, 0.5 + 1e-13j], [0.5, 2.0]])
        h = HermitianMatrix(m)
        assert np.array_equal(h.mat, h.mat.conj().T)
        assert h.dim == 2

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            HermitianMatrix([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 2, 2)))

    def test_matrix_is_readonly(self):
        h = HermitianMatrix(SIGMA_X)
        with pytest.raises(ValueError):
            h.mat[0, 0] = 5.0

    def test_arithmetic_stays_hermitian(self):
        gen = SplitMix64(3)
        a = HermitianMatrix(_random_hermitian(3, gen, scale=100.0))
        b = HermitianMatrix(_random_hermitian(3, gen, scale=100.0))
        for combo in (a + b, a - b, -a, 2.5 * a, a * 0.0):
            assert isinstance(combo, HermitianMatrix)
        np.testing.assert_allclose(as_matrix(a + b), a.mat + b.mat)

    def test_rejects_complex_scale(self):
        with pytest.raises(TypeError):
            HermitianMatrix(SIGMA_Z) * 1j


class TestHermitianEig:
    def test_sigma_z(self):
        eig = hermitian_eig(SIGMA_Z)
        np.testing.assert_array_equal(eig.values, [-1.0, 1.0])
        np.testing.assert_array_equal(eig.vectors[:, 0], [0.0, 1.0])
        np.testing.assert_array_equal(eig.vectors[:, 1], [1.0, 0.0])

    def test_sigma_x(self):
        eig = hermitian_eig(SIGMA_X)
        np.testing.assert_allclose(eig.values, [-1.0, 1.0], atol=1e-14)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(eig.vectors[:, 0], [s, -s], atol=1e-14)
        np.testing.assert_allclose(eig.vectors[:, 1], [s, s], atol=1e-14)

    def test_spin1_z(self):
        eig = hermitian_eig(np.diag([1.0, 0.0, -1.0]).astype(complex))
        np.testing.assert_array_equal(eig.values, [-1.0, 0.0, 1.0])

    def test_random_reconstruction_orthonormality_and_oracle(self):
        gen = SplitMix64(17)
        for trial in range(150):
            dim = 2 + trial % 7
            m = _random_hermitian(dim, gen)
            eig = hermitian_eig(m)
            norm = max(1.0, float(np.linalg.norm(m)))
            rec = (eig.vectors * eig.values) @ eig.vectors.conj().T
            assert float(np.linalg.norm(rec - m)) <= 1e-10 * norm
            gram = eig.vectors.conj().T @ eig.vectors
            assert np.max(np.abs(gram - np.eye(dim))) < 1e-12
            # independent oracle for the spectrum
            ref = np.linalg.eigvalsh(m)
            assert np.max(np.abs(eig.values - ref)) <= 1e-10 * norm
            assert np.all(np.diff(eig.values) >= -1e-12)

    def test_degenerate_spectrum(self):
        m = np.diag([1.0, 1.0, 2.0]).astype(complex)
        eig = hermitian_eig(m)
        np.testing.assert_array_equal(eig.values, [1.0, 1.0, 2.0])
        rec = (eig.vectors * eig.values) @ eig.vectors.conj().T
        np.testing.assert_allclose(rec, m, atol=1e-12)

    def test_stable_order_among_exact_ties(self):
        eig = hermitian_eig(np.diag([2.0, 2.0, 1.0]).astype(complex))
        np.testing.assert_array_equal(eig.values, [1.0, 2.0, 2.0])
        # the two tied eigenvectors keep their original relative order
        np.testing.assert_array_equal(eig.vectors[:, 1], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(eig.vectors[:, 2], [0.0, 1.0, 0.0])

    def test_phase_fix_leading_component_real_positive(self):
        gen = SplitMix64(18)
        for trial in range(30):
            dim = 2 + trial % 4
            eig = hermitian_eig(_random_hermitian(dim, gen))
            for k in range(dim):
                col = eig.vectors[:, k]
                lead = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
                assert abs(lead.imag) < 1e-12
                assert lead.real > 0.0

    def test_convergence_error_carries_residual(self):
        with pytest.raises(EigenConvergenceError) as err:
            hermitian_eig(SIGMA_X, max_sweeps=0)
        assert err.value.residual == pytest.approx(math.sqrt(2.0))
        assert err.value.sweeps == 0

    def test_eigensystem_arrays_readonly(self):
        eig = hermitian_eig(SIGMA_Y)
        with pytest.raises(ValueError):
            eig.values[0] = 9.0
        with pytest.raises(ValueError):
            eig.vectors[0, 0] = 9.0


class TestSqrtPsd:
    def test_closed_form_bloch_x(self):
        rho = 0.5 * (IDENTITY_2 + (math.sqrt(3.0) / 2.0) * SIGMA_X)
        root = sqrt_psd(rho)
        expect = (math.sqrt(6.0) / 4.0) * IDENTITY_2 + (math.sqrt(2.0) / 4.0) * SIGMA_X
        assert np.max(np.abs(root.mat - expect)) < 1e-12

    def test_round_trip_random_psd(self):
        gen = SplitMix64(19)
        for trial in range(60):
            dim = 2 + trial % 5
            g = gen.complex_normals((dim, dim))
            m = g @ g.conj().T
            norm = max(1.0, float(np.linalg.norm(m)))
            root = sqrt_psd(m)
            assert float(np.linalg.norm(root.mat @ root.mat - m)) <= 1e-9 * norm
            assert float(np.min(np.linalg.eigvalsh(root.mat))) > -1e-10

    def test_rank_deficient_projector(self):
        # sqrt of a rank-1 projector is itself; noise eigenvalues must snap to 0
        gen = SplitMix64(20)
        for dim in (2, 3, 4):
            psi = gen.complex_normals(dim)
            psi = psi / np.linalg.norm(psi)
            proj = np.outer(psi, psi.conj())
            root = sqrt_psd(proj)
            assert np.max(np.abs(root.mat - proj)) < 1e-10

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveSemidefiniteError) as err:
            sqrt_psd(np.diag([1.0, -0.5]).astype(complex))
        assert err.value.eigenvalue == pytest.approx(-0.5)

    def test_clamps_slightly_negative_eigenvalue(self):
        root = sqrt_psd(np.diag([1.0, -5e-11]).astype(complex))
        np.testing.assert_allclose(root.mat, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_matrix(self):
        root = sqrt_psd(np.zeros((3, 3), dtype=complex))
        np.testing.assert_array_equal(root.mat, np.zeros((3, 3)))


class TestCommutatorAndNorm:
    def test_pauli_commutator(self):
        np.testing.assert_allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)

    def test_commuting_matrices(self):
        np.testing.assert_array_equal(
            commutator(SIGMA_Z, IDENTITY_2), np.zeros((2, 2))
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(SIGMA_X, np.eye(3))

    def test_frobenius_norm_sq(self):
        assert frobenius_norm_sq(SIGMA_X) == pytest.approx(2.0)
        assert frobenius_norm_sq(np.zeros((4, 4))) == 0.0
        assert frobenius_norm_sq(HermitianMatrix(SIGMA_Y)) == pytest.approx(2.0)


@st.composite
def hermitian_matrices(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    elems = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    re = draw(st.lists(st.lists(elems, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    im = draw(st.lists(st.lists(elems, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    g = np.array(re) + 1j * np.array(im)
    return (g + g.conj().T) / 2.0


@given(hermitian_matrices())
@settings(max_examples=60)
def test_eig_reconstructs_and_preserves_trace(m):
    eig = hermitian_eig(m)
    norm = max(1.0, float(np.linalg.norm(m)))
    rec = (eig.vectors * eig.values) @ eig.vectors.conj().T
    assert float(np.linalg.norm(rec - m)) <= 1e-10 * norm
    assert float(np.sum(eig.values)) == pytest.approx(float(np.trace(m).real), abs=1e-10 * norm)


@given(hermitian_matrices())
@settings(max_examples=40)
def test_sqrt_of_squared_hermitian_round_trips(m):
    psd = m @ m.conj().T
    norm = max(1.0, float(np.linalg.norm(psd)))
    root = sqrt_psd(psd)
    assert float(np.linalg.norm(root.mat @ root.mat - psd)) <= 1e-9 * norm
