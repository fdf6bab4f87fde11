import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewsum import measures
from skewsum.measures import amplitude_vector, expectation, skew_information, variance
from skewsum.states import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    from_bloch,
    pure_state,
    random_mixed,
    random_observable,
    random_pure,
)


class TestExpectationVariance:
    def test_basis_state_expectations(self):
        up = pure_state([1, 0])
        assert expectation(up, SIGMA_Z) == pytest.approx(1.0)
        assert expectation(up, SIGMA_X) == pytest.approx(0.0)
        assert variance(up, SIGMA_X) == pytest.approx(1.0)
        assert variance(up, SIGMA_Z) == pytest.approx(0.0, abs=1e-14)

    def test_variance_never_negative(self):
        # eigenstate of the observable: the raw difference is round-off scale
        rho = pure_state([1, 1])
        assert variance(rho, SIGMA_X) >= 0.0
        assert variance(rho, SIGMA_X) < 1e-12

    def test_variance_shift_invariance(self):
        rho = random_mixed(3, seed=21)
        a = random_observable(3, seed=22)
        shifted = a.mat + 3.7 * np.eye(3)
        assert variance(rho, shifted) == pytest.approx(variance(rho, a), abs=1e-12)

    def test_expectation_is_real_at_any_scale(self):
        # centred 1e20-scale observables: the expectation is round-off, and
        # so is its imaginary part, which no relative check can tell apart
        for s in range(50):
            rho = random_pure(3, seed=s)
            a = random_observable(3, seed=1000 + s) * 1e20
            a = a - expectation(rho, a) * np.eye(3)
            assert math.isfinite(expectation(rho, a)), s

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(pure_state([1, 0]), np.eye(3))
        with pytest.raises(ValueError):
            variance(random_mixed(3, seed=1), SIGMA_X)


class TestSkewInformation:
    def test_equals_variance_on_pure_states(self):
        for trial in range(40):
            dim = 2 + trial % 3
            rho = random_pure(dim, seed=300 + trial)
            a = random_observable(dim, seed=400 + trial)
            assert skew_information(rho, a) == pytest.approx(
                variance(rho, a), abs=1e-12
            )

    def test_below_variance_on_mixed_states(self):
        for trial in range(40):
            dim = 2 + trial % 3
            rho = random_mixed(dim, seed=500 + trial)
            a = random_observable(dim, seed=600 + trial)
            assert skew_information(rho, a) <= variance(rho, a) + 1e-10

    def test_bloch_x_against_sigma_z_closed_form(self):
        # state on the Bloch x axis at radius sqrt(3)/2: I(rho, sigma_z) = 1/2
        rho = from_bloch([math.sqrt(3.0) / 2.0, 0.0, 0.0])
        assert skew_information(rho, SIGMA_Z) == pytest.approx(0.5, abs=1e-12)

    def test_zero_for_commuting_observable(self):
        rho = from_bloch([0.0, 0.0, 0.5])
        assert skew_information(rho, SIGMA_Z) == pytest.approx(0.0, abs=1e-14)

    def test_shift_invariance(self):
        rho = random_mixed(3, seed=23)
        a = random_observable(3, seed=24)
        shifted = a.mat - 2.2 * np.eye(3)
        assert skew_information(rho, shifted) == pytest.approx(
            skew_information(rho, a), abs=1e-12
        )

    def test_quadratic_scaling(self):
        rho = random_mixed(3, seed=25)
        a = random_observable(3, seed=26)
        assert skew_information(rho, 2.0 * np.asarray(a)) == pytest.approx(
            4.0 * skew_information(rho, a), rel=1e-12
        )

    def test_maximally_mixed_has_zero_skew(self):
        rho = from_bloch([0, 0, 0])
        for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            assert skew_information(rho, pauli) == pytest.approx(0.0, abs=1e-14)

    def test_accepts_raw_density_array(self):
        rho = random_mixed(2, seed=27)
        a = random_observable(2, seed=28)
        assert skew_information(rho.mat, a) == pytest.approx(
            skew_information(rho, a), abs=1e-14
        )


class TestOverflow:
    """Entries whose float64 products overflow raise, as the reports do,
    instead of returning nan or inf."""

    @pytest.mark.parametrize(
        "measure,dim,obs",
        [
            (variance, 2, np.diag([1.5e308, -1.5e308])),
            (variance, 3, 1e160 * random_observable(3, seed=6).mat),
            (skew_information, 3, 1e160 * random_observable(3, seed=6).mat),
        ],
        ids=["variance-diagonal", "variance-scaled", "skew_information-scaled"],
    )
    def test_raises_value_error(self, measure, dim, obs):
        with pytest.raises(ValueError, match="float64 overflow"):
            measure(random_mixed(dim, seed=5), obs)

    def test_finite_expectation_of_an_overflowing_second_moment(self):
        rho = random_mixed(3, seed=5)
        a = 1e160 * random_observable(3, seed=6).mat
        assert math.isfinite(expectation(rho, a))


class TestClamp:
    """The one round-off rule for forms that should be nonnegative."""

    @pytest.mark.parametrize("scale", [0.5, 1.0, -1.0, 1e6, -1e6])
    def test_edge(self, scale):
        edge = measures.NEGATIVE_CLAMP * max(1.0, abs(scale))
        forms = measures._clamp(np.array([edge, 2.0]), np.array([scale, scale]), "form")
        assert forms.tolist() == [0.0, 2.0]
        below = np.nextafter(edge, -math.inf)
        with pytest.raises(ValueError) as err:
            measures._clamp(np.array([below]), np.array([scale]), "variance")
        assert str(err.value) == f"variance {below} is negative beyond round-off"


class TestAmplitudeVector:
    def test_norm_squared_equals_variance(self):
        for trial in range(40):
            dim = 2 + trial % 4
            rho = random_mixed(dim, seed=700 + trial)
            a = random_observable(dim, seed=800 + trial)
            av = amplitude_vector(rho, a)
            assert av.shape == (dim,)
            assert np.all(av >= 0.0)
            assert float(av @ av) == pytest.approx(variance(rho, a), abs=1e-10)

    def test_maximally_mixed_sigma_z(self):
        av = amplitude_vector(from_bloch([0, 0, 0]), SIGMA_Z)
        np.testing.assert_allclose(np.sort(av), [1 / math.sqrt(2)] * 2, atol=1e-14)

    def test_eigenstate_gives_zero_vector(self):
        av = amplitude_vector(pure_state([1, 0]), SIGMA_Z)
        np.testing.assert_allclose(av, [0.0, 0.0], atol=1e-14)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_skew_between_zero_and_variance(seed):
    dim = 2 + seed % 3
    rho = random_mixed(dim, seed=seed)
    a = random_observable(dim, seed=seed + 1)
    s = skew_information(rho, a)
    assert s >= 0.0
    assert s <= variance(rho, a) + 1e-10


@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(-5.0, 5.0))
@settings(max_examples=40)
def test_variance_shift_property(seed, shift):
    dim = 2 + seed % 3
    rho = random_mixed(dim, seed=seed)
    a = random_observable(dim, seed=seed + 3)
    scale = max(1.0, abs(shift))
    shifted = a.mat + shift * np.eye(dim)
    assert variance(rho, shifted) == pytest.approx(
        variance(rho, a), abs=1e-11 * scale * scale
    )