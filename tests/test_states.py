import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewsum.linalg import HermitianMatrix, NotHermitianError, NotPositiveSemidefiniteError
from skewsum.states import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    BlochVector,
    DensityMatrix,
    PureState,
    from_bloch,
    pure_state,
    random_mixed,
    random_observable,
    random_pure,
)


class TestBlochVector:
    def test_norm(self):
        assert BlochVector(0.6, 0.0, 0.8).norm == pytest.approx(1.0)

    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            BlochVector(1.0, 0.1, 0.0)

    def test_accepts_boundary_within_atol(self):
        BlochVector(1.0, 0.0, 0.0)
        BlochVector(1.0 + 5e-13, 0.0, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BlochVector(math.inf, 0.0, 0.0)


class TestDensityMatrix:
    def test_maximally_mixed(self):
        rho = DensityMatrix(IDENTITY_2 / 2.0)
        assert rho.dim == 2
        assert rho.purity() == pytest.approx(0.5)
        np.testing.assert_array_equal(rho.eigensystem.values, [0.5, 0.5])

    def test_coerce_applies_the_density_rules(self):
        rho = from_bloch((0.3, -0.2, 0.5))
        assert DensityMatrix.coerce(rho) is rho
        fresh = DensityMatrix.coerce(HermitianMatrix(rho.mat))
        assert type(fresh) is DensityMatrix and fresh is not rho
        assert fresh.mat.tobytes() == rho.mat.tobytes()
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.coerce(HermitianMatrix(SIGMA_Z))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.5]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_eigensystem_and_sqrt_are_cached(self):
        rho = random_mixed(3, seed=5)
        assert rho.eigensystem is rho.eigensystem
        assert rho.sqrt() is rho.sqrt()

    def test_sqrt_of_pure_state_is_projector(self):
        rho = random_pure(4, seed=6)
        assert isinstance(rho, PureState) and rho.sqrt() is rho
        assert rho.purity() == pytest.approx(1.0)  # the eigensystem, solved on demand

    def test_sqrt_squares_back(self):
        rho = random_mixed(4, seed=7)
        root = rho.sqrt().mat
        assert float(np.linalg.norm(root @ root - rho.mat)) < 1e-9


class TestPureState:
    def test_projector_of_basis_vector(self):
        rho = pure_state([1, 0])
        np.testing.assert_array_equal(rho.mat, np.diag([1.0, 0.0]))

    def test_normalizes_input(self):
        rho = pure_state([2.0, 0.0])
        np.testing.assert_array_equal(rho.mat, np.diag([1.0, 0.0]))

    def test_complex_phase_invariance(self):
        a = pure_state([1 / math.sqrt(2), 1j / math.sqrt(2)])
        b = pure_state([1j / math.sqrt(2), -1 / math.sqrt(2)])
        np.testing.assert_allclose(a.mat, b.mat, atol=1e-15)

    @pytest.mark.parametrize(
        "amplitude", [2.0**600, 2.0**-600, 1e200], ids=["2^600", "2^-600", "1e200"]
    )
    def test_huge_and_tiny_amplitudes_normalize(self, amplitude):
        # the norm's squares over- or underflow; the state is still |+><+|
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = pure_state([amplitude] * 2)
        expected = pure_state([1, 1]).mat
        if math.frexp(amplitude)[0] == 0.5:  # powers of two scale back exactly
            np.testing.assert_array_equal(rho.mat, expected)
        else:
            np.testing.assert_allclose(rho.mat, expected, rtol=1e-15)

    def test_keeps_its_unit_vector_read_only(self):
        rho = pure_state([2.0, 2.0j])
        np.testing.assert_array_equal(rho.psi, np.array([1.0, 1.0j]) / math.sqrt(2.0))
        with pytest.raises(ValueError, match="read-only"):
            rho.psi[0] = 0.0

    def test_a_projector_given_as_a_matrix_takes_the_general_path(self):
        rho = pure_state([0.6, 0.8j])
        general = DensityMatrix(rho.mat)
        assert type(general) is DensityMatrix and general.sqrt() is not general
        np.testing.assert_allclose(general.sqrt().mat, rho.mat, atol=1e-14)

    def test_rejects_zero_or_empty_or_nonfinite(self):
        with pytest.raises(ValueError):
            pure_state([0.0, 0.0])
        with pytest.raises(ValueError):
            pure_state([])
        with pytest.raises(ValueError):
            pure_state([math.nan, 1.0])


class TestFromBloch:
    def test_center_is_maximally_mixed(self):
        np.testing.assert_array_equal(from_bloch([0, 0, 0]).mat, IDENTITY_2 / 2.0)

    def test_poles(self):
        np.testing.assert_allclose(from_bloch([0, 0, 1]).mat, np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(from_bloch([1, 0, 0]).mat, 0.5 * (IDENTITY_2 + SIGMA_X), atol=1e-15)

    def test_accepts_bloch_vector_instance(self):
        bv = BlochVector(0.2, 0.3, -0.1)
        np.testing.assert_array_equal(from_bloch(bv).mat, from_bloch([0.2, 0.3, -0.1]).mat)

    def test_purity_tracks_norm(self):
        rho = from_bloch([0.5, 0.0, 0.0])
        assert rho.purity() == pytest.approx((1 + 0.25) / 2)


class TestRandomInstances:
    def test_random_pure_is_pure_and_reproducible(self):
        a = random_pure(3, seed=99)
        b = random_pure(3, seed=99)
        c = random_pure(3, seed=100)
        np.testing.assert_array_equal(a.mat, b.mat)
        assert np.max(np.abs(a.mat - c.mat)) > 1e-3
        assert a.purity() == pytest.approx(1.0, abs=1e-10)
        assert float(np.trace(a.mat).real) == pytest.approx(1.0, abs=1e-12)

    def test_random_mixed_is_full_rank(self):
        rho = random_mixed(4, seed=42)
        assert float(np.trace(rho.mat).real) == pytest.approx(1.0, abs=1e-12)
        assert float(rho.eigensystem.values[0]) > 1e-6
        np.testing.assert_array_equal(rho.mat, random_mixed(4, seed=42).mat)

    def test_random_observable_is_hermitian_and_reproducible(self):
        a = random_observable(3, seed=8)
        np.testing.assert_array_equal(a.mat, a.mat.conj().T)
        np.testing.assert_array_equal(a.mat, random_observable(3, seed=8).mat)
        assert np.max(np.abs(a.mat - random_observable(3, seed=9).mat)) > 1e-3

    def test_rejects_nonpositive_dim(self):
        for factory in (random_pure, random_mixed, random_observable):
            with pytest.raises(ValueError):
                factory(0, seed=1)


@given(
    st.floats(min_value=-0.57, max_value=0.57),
    st.floats(min_value=-0.57, max_value=0.57),
    st.floats(min_value=-0.57, max_value=0.57),
)
@settings(max_examples=50)
def test_bloch_ball_always_valid_state(rx, ry, rz):
    rho = from_bloch([rx, ry, rz])
    assert float(rho.eigensystem.values[0]) >= -1e-12
    assert float(np.trace(rho.mat).real) == pytest.approx(1.0, abs=1e-12)
