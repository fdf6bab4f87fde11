import itertools
import json
import math
import warnings

import numpy as np
import pytest

from skewsum import _kernels
from skewsum.bounds import (
    CATALOG,
    FAMILY,
    BoundReport,
    BoundValue,
    BudgetExceededError,
    ObservableSet,
    PermutationTuple,
    bound_chen_skew,
    bound_chen_variance,
    bound_mp_quadratic,
    bound_parallelogram_diff,
    bound_parallelogram_sum,
    bound_robertson,
    bound_song,
    bound_theorem1,
    bound_theorem2a,
    bound_theorem2b,
    bound_zhang,
    evaluate_all,
    scan_inputs,
)
from skewsum.linalg import commutator
from skewsum.measures import amplitude_vector, skew_information, variance
from skewsum.scenarios import example1_instance, example2_instance, example3_instance
from skewsum.states import SIGMA_X, SIGMA_Y, SIGMA_Z, pure_state

EX1_POINT = (math.pi / 2, math.pi / 4)


class TestObservableSet:
    def test_needs_two(self):
        with pytest.raises(ValueError):
            ObservableSet([SIGMA_X])

    def test_uniform_dimension(self):
        with pytest.raises(ValueError):
            ObservableSet([SIGMA_X, np.eye(3)])

    def test_iteration_and_total(self):
        obs = ObservableSet([SIGMA_X, SIGMA_Y, SIGMA_Z])
        assert obs.n == 3 and obs.dim == 2 and len(obs) == 3
        assert list(obs.pairs()) == [(0, 1), (0, 2), (1, 2)]
        np.testing.assert_array_equal(
            obs.total().mat, SIGMA_X + SIGMA_Y + SIGMA_Z
        )


class TestPermutationTuple:
    def test_valid(self):
        t = PermutationTuple(((0, 1, 2), (2, 0, 1)))
        assert t.n == 2

    def test_first_must_be_identity(self):
        with pytest.raises(ValueError):
            PermutationTuple(((1, 0), (0, 1)))

    def test_entries_must_be_permutations(self):
        with pytest.raises(ValueError):
            PermutationTuple(((0, 1), (0, 0)))
        with pytest.raises(ValueError):
            PermutationTuple(())


def _brute_force_theorem1(state, obs):
    """Independent exhaustive reference for the permutation-maximized bound."""
    n, d = obs.n, obs.dim
    avs = [amplitude_vector(state, a) for a in obs]
    perms = list(itertools.permutations(range(d)))
    c1 = 1.0 / (2.0 * n - 2.0)
    c2 = 2.0 / (n * (n - 1.0))
    best = -math.inf
    for tup in itertools.product(*([perms[0:1]] + [perms] * (n - 1))):
        ss = 0.0
        dd = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                ai = avs[i][list(tup[i])]
                aj = avs[j][list(tup[j])]
                ss += float(np.sum((ai + aj) ** 2))
                dd += float(np.linalg.norm(ai - aj))
        best = max(best, c1 * (ss + c2 * dd * dd))
    return best


class TestTheorem1:
    def test_matches_brute_force(self, make_instance):
        for trial in range(12):
            dim = 2 + trial % 2
            n = 2 + trial % 3
            state, obs = make_instance(dim, n, trial)
            bv = bound_theorem1(state, obs)
            assert bv.value == pytest.approx(
                _brute_force_theorem1(state, obs), abs=1e-10
            )

    def test_frozen_reference_point(self):
        state, obs = example1_instance(*EX1_POINT)
        bv = bound_theorem1(state, obs)
        assert bv.value == pytest.approx(1.9982869711064197, abs=1e-12)
        assert bv.detail.perms == ((0, 1), (1, 0), (0, 1))

    def test_two_observables_is_exact(self, make_instance):
        for trial in range(30):
            dim = 2 + trial % 3
            state, obs = make_instance(dim, 2, 100 + trial)
            varsum = sum(variance(state, a) for a in obs)
            assert bound_theorem1(state, obs).value == pytest.approx(
                varsum, abs=1e-10
            )

    def test_detail_is_valid_permutation_tuple(self, make_instance):
        state, obs = make_instance(3, 3, 7)
        detail = bound_theorem1(state, obs).detail
        assert isinstance(detail, PermutationTuple)
        assert detail.n == 3
        assert detail.perms[0] == (0, 1, 2)

    def test_budget_exceeded(self, make_instance):
        state, obs = make_instance(4, 4, 0)
        with pytest.raises(BudgetExceededError) as err:
            bound_theorem1(state, obs, budget=1000)
        assert err.value.tuples == math.factorial(4) ** 3
        assert err.value.budget == 1000

    def test_never_exceeds_variance_sum(self, make_instance):
        for trial in range(15):
            state, obs = make_instance(3, 3, 200 + trial)
            varsum = sum(variance(state, a) for a in obs)
            assert bound_theorem1(state, obs).value <= varsum + 1e-9


class TestVarianceBounds:
    def test_song_frozen_reference_point(self):
        state, obs = example1_instance(*EX1_POINT)
        assert bound_song(state, obs).value == pytest.approx(
            1.9920225811417236, abs=1e-12
        )

    def test_chen_variance_frozen_reference_point(self):
        state, obs = example1_instance(*EX1_POINT)
        assert bound_chen_variance(state, obs).value == pytest.approx(
            1.9373593160203395, abs=1e-12
        )

    def test_chen_variance_two_observable_form(self, make_instance):
        # at N = 2 the coefficient collapses to half the squared sum norm
        state, obs = make_instance(3, 2, 5)
        b1 = np.sort(amplitude_vector(state, obs[0]))
        b2 = np.sort(amplitude_vector(state, obs[1]))
        expect = 0.5 * float((b1 + b2) @ (b1 + b2))
        assert bound_chen_variance(state, obs).value == pytest.approx(expect, abs=1e-12)

    def test_mp_quadratic_two_observables_only(self, make_instance):
        state, obs = make_instance(2, 3, 1)
        bv = bound_mp_quadratic(state, obs)
        assert not bv.applicable and bv.value is None

        state, obs = make_instance(3, 2, 2)
        bv = bound_mp_quadratic(state, obs)
        assert bv.applicable
        assert bv.value == pytest.approx(
            0.5 * variance(state, obs[0] + obs[1]), abs=1e-12
        )
        varsum = variance(state, obs[0]) + variance(state, obs[1])
        assert bv.value <= varsum + 1e-9

    def test_robertson_equality_case(self):
        # |0> with sigma_x, sigma_y saturates: both sides equal 1
        state = pure_state([1, 0])
        bv = bound_robertson(state, ObservableSet([SIGMA_X, SIGMA_Y]))
        assert bv.value == pytest.approx(1.0, abs=1e-12)
        assert bv.detail["delta_product"] == pytest.approx(1.0, abs=1e-12)

    def test_robertson_inapplicable_beyond_two(self, make_instance):
        state, obs = make_instance(2, 3, 3)
        bv = bound_robertson(state, obs)
        assert not bv.applicable and bv.value is None

    def test_robertson_validity(self, make_instance):
        for trial in range(20):
            state, obs = make_instance(3, 2, 300 + trial)
            bv = bound_robertson(state, obs)
            assert bv.value <= bv.detail["delta_product"] + 1e-9


class TestSkewBounds:
    def test_theorem2a_frozen_reference_point(self):
        state, obs = example2_instance(0.0)
        expect = (9.0 + 2.0 * math.sqrt(2.0)) / 12.0
        assert bound_theorem2a(state, obs).value == pytest.approx(expect, abs=1e-12)

    def test_zhang_frozen_reference_point(self):
        state, obs = example2_instance(math.pi / 4)
        expect = (0.5 + (1.0 + 2.0 * math.sqrt(0.75)) ** 2 / 3.0) / 3.0
        assert bound_zhang(state, obs).value == pytest.approx(expect, abs=1e-12)

    def test_chen_skew_frozen_reference_point(self):
        state, obs = example2_instance(math.pi / 4)
        assert bound_chen_skew(state, obs).value == pytest.approx(0.75, abs=1e-12)

    def test_chen_skew_needs_three(self, make_instance):
        state, obs = make_instance(2, 2, 4)
        bv = bound_chen_skew(state, obs)
        assert not bv.applicable and bv.value is None

    def test_two_observables_theorems_are_exact(self, make_instance):
        for trial in range(30):
            dim = 2 + trial % 3
            state, obs = make_instance(dim, 2, 400 + trial)
            ssum = sum(skew_information(state, a) for a in obs)
            assert bound_theorem2a(state, obs).value == pytest.approx(ssum, abs=1e-10)
            assert bound_theorem2b(state, obs).value == pytest.approx(ssum, abs=1e-10)

    def test_parallelogram_identity(self, make_instance):
        for trial in range(20):
            dim = 2 + trial % 3
            n = 2 + trial % 3
            state, obs = make_instance(dim, n, 500 + trial)
            ssum = sum(skew_information(state, a) for a in obs)
            total = (
                bound_parallelogram_sum(state, obs).value
                + bound_parallelogram_diff(state, obs).value
            )
            assert total == pytest.approx(ssum, abs=1e-9 * max(1.0, ssum))

    def test_theorems_dominate_parallelogram_bounds(self, make_instance):
        for trial in range(20):
            dim = 2 + trial % 3
            n = 2 + trial % 3
            state, obs = make_instance(dim, n, 600 + trial)
            assert (
                bound_theorem2a(state, obs).value
                >= bound_parallelogram_diff(state, obs).value - 1e-10
            )
            assert (
                bound_theorem2b(state, obs).value
                >= bound_parallelogram_sum(state, obs).value - 1e-10
            )


class TestEvaluateAll:
    def test_report_structure(self, make_instance):
        state, obs = make_instance(3, 3, 9)
        report = evaluate_all(state, obs, metadata={"tag": 1})
        assert [b.name for b in report.bounds] == list(CATALOG)
        assert report.metadata == {"tag": 1}
        assert report.violations == ()
        applicable = {b.name for b in report.bounds if b.applicable}
        assert applicable == {
            "theorem1",
            "song",
            "chen_variance",
            "theorem2a",
            "theorem2b",
            "zhang",
            "chen_skew",
            "parallelogram_sum",
            "parallelogram_diff",
        }

    def test_two_observable_applicability(self, make_instance):
        state, obs = make_instance(2, 2, 10)
        report = evaluate_all(state, obs)
        applicable = {b.name for b in report.bounds if b.applicable}
        assert "robertson" in applicable and "mp_quadratic" in applicable
        assert "chen_skew" not in applicable

    def test_tightest_selection(self, make_instance):
        for trial in range(8):
            state, obs = make_instance(3, 3, 700 + trial)
            report = evaluate_all(state, obs)
            for family, pick in (
                ("variance", report.tightest_variance),
                ("skew", report.tightest_skew),
            ):
                candidates = [
                    b for b in report.bounds if b.family == family and b.applicable
                ]
                best = max(c.value for c in candidates)
                assert report.bound(pick).value == best
                # ties resolve to the earliest catalog entry
                first = next(c.name for c in candidates if c.value == best)
                assert pick == first

    def test_bounds_respect_targets(self, make_instance):
        for trial in range(10):
            dim = 2 + trial % 3
            n = 2 + trial % 3
            state, obs = make_instance(dim, n, 800 + trial)
            report = evaluate_all(state, obs)
            for b in report.bounds:
                if not b.applicable:
                    continue
                target = report.target_for(b)
                assert b.value <= target + 1e-8 * max(1.0, target)

    def test_round_trip_through_json(self, make_instance):
        state, obs = make_instance(3, 3, 11)
        report = evaluate_all(state, obs, metadata={"dim": 3, "n": 3})
        clone = BoundReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone == report

    def test_budget_propagates(self, make_instance):
        state, obs = make_instance(4, 4, 12)
        with pytest.raises(BudgetExceededError):
            evaluate_all(state, obs, budget=10)

    def test_dimension_mismatch(self, make_instance):
        state, _ = make_instance(2, 2, 13)
        with pytest.raises(ValueError):
            evaluate_all(state, [np.eye(3), np.diag([1.0, 2.0, 3.0])])

    def test_bound_lookup(self, make_instance):
        state, obs = make_instance(2, 2, 14)
        report = evaluate_all(state, obs)
        assert report.bound("song").name == "song"
        with pytest.raises(KeyError):
            report.bound("nope")

    def test_family_labels_cover_catalog(self):
        assert set(FAMILY) == set(CATALOG)
        assert set(FAMILY.values()) == {"variance", "skew", "product"}

    def test_bound_value_serialization_with_permutations(self):
        bv = BoundValue("theorem1", 1.5, True, PermutationTuple(((0, 1), (1, 0))))
        clone = BoundValue.from_dict(bv.to_dict())
        assert clone == bv

    def test_standalone_bounds_match_the_report(self, make_instance):
        funcs = {
            "theorem1": bound_theorem1,
            "song": bound_song,
            "chen_variance": bound_chen_variance,
            "mp_quadratic": bound_mp_quadratic,
            "robertson": bound_robertson,
            "theorem2a": bound_theorem2a,
            "theorem2b": bound_theorem2b,
            "zhang": bound_zhang,
            "chen_skew": bound_chen_skew,
            "parallelogram_sum": bound_parallelogram_sum,
            "parallelogram_diff": bound_parallelogram_diff,
        }
        for n in (2, 3):
            state, obs = make_instance(3, n, 15)
            report = evaluate_all(state, obs)
            for name, func in funcs.items():
                assert func(state, obs) == report.bound(name), name

    def test_non_finite_values_raise(self):
        # entries near 1e200 overflow the second moments to inf/NaN; such a
        # report used to come back with no violations, since NaN > x is false
        state = pure_state([1, 1])
        obs = [
            np.array([[1e200, 2e200], [2e200, -1e200]]),
            np.array([[0, -3e200j], [3e200j, 0]]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the ValueError is the only signal
            with pytest.raises(ValueError, match="non-finite"):
                evaluate_all(state, obs)


def _pairwise_reference(state, obs):
    """Every report number from the explicit pairwise formulas: A_i +- A_j
    built as matrices and measured one by one, on bare arrays so that no
    cached eigensystem is reused."""
    mats = [np.array(a) for a in obs]
    n = len(mats)
    pairs = list(itertools.combinations(range(n), 2))
    var_minus = [variance(state, mats[i] - mats[j]) for i, j in pairs]
    skew_plus = [skew_information(state, mats[i] + mats[j]) for i, j in pairs]
    skew_minus = [skew_information(state, mats[i] - mats[j]) for i, j in pairs]
    c = 2.0 / (n * (n - 1.0))
    amps = np.stack([amplitude_vector(state, m) for m in mats])
    _, args = scan_inputs(amps)
    sorted_amps = np.sort(amps, axis=1)
    chen_norms = [float(np.sum((sorted_amps[i] + sorted_amps[j]) ** 2)) for i, j in pairs]
    h = 1.0 if n == 2 else 0.0
    ref = {
        "variance_sum": sum(variance(state, m) for m in mats),
        "skew_sum": sum(skew_information(state, m) for m in mats),
        "theorem1": float(_kernels.theorem1_scan(*args)[0]),
        "song": (variance(state, sum(mats)) + c * sum(map(math.sqrt, var_minus)) ** 2) / n,
        "chen_variance": (
            sum(chen_norms) + (h - 1.0) / (n - 1.0) ** 2 * sum(map(math.sqrt, chen_norms)) ** 2
        ) / (2.0**h * n - 2.0),
        "theorem2a": (c * sum(map(math.sqrt, skew_plus)) ** 2 + sum(skew_minus)) / (2 * n - 2),
        "theorem2b": (c * sum(map(math.sqrt, skew_minus)) ** 2 + sum(skew_plus)) / (2 * n - 2),
        "zhang": (skew_information(state, sum(mats)) + c * sum(map(math.sqrt, skew_minus)) ** 2) / n,
        "parallelogram_sum": sum(skew_plus) / (2 * n - 2),
        "parallelogram_diff": sum(skew_minus) / (2 * n - 2),
    }
    if n == 2:
        ref["mp_quadratic"] = 0.5 * variance(state, mats[0] + mats[1])
        ref["robertson"] = 0.5 * abs(complex(np.trace(state.mat @ commutator(*mats))))
        ref["delta_product"] = math.sqrt(variance(state, mats[0])) * math.sqrt(
            variance(state, mats[1])
        )
    else:
        ref["chen_skew"] = (
            sum(skew_plus) - sum(map(math.sqrt, skew_plus)) ** 2 / (n - 1.0) ** 2
        ) / (n - 2.0)
    return ref


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_matches_pairwise_formulas(make_instance, dim, n):
    for trial in range(4):
        state, obs = make_instance(dim, n, 900 + trial)
        report = evaluate_all(state, obs)
        got = {"variance_sum": report.variance_sum, "skew_sum": report.skew_sum}
        for b in report.bounds:
            if b.applicable:
                got[b.name] = b.value
        if n == 2:
            got["delta_product"] = report.bound("robertson").detail["delta_product"]
        ref = _pairwise_reference(state, obs)
        assert got.keys() == ref.keys()
        for key, value in ref.items():
            assert abs(got[key] - value) <= 1e-12 * max(1.0, abs(value)), key


class TestComputeOnce:
    """Each observable is eigendecomposed once per instance (and once per
    process for the shared scenario observables)."""

    @pytest.fixture
    def solves(self, monkeypatch):
        count = [0]
        jacobi = _kernels.jacobi_sweeps

        def counting(*args):
            count[0] += 1
            return jacobi(*args)

        monkeypatch.setattr(_kernels, "jacobi_sweeps", counting)
        return count

    @pytest.mark.parametrize("dim,n", [(3, 2), (3, 3), (4, 4)])
    def test_fresh_instance_solves_each_observable_once(self, make_instance, solves, dim, n):
        state, obs = make_instance(dim, n, 1000)
        solves[0] = 0  # the state's solve happened at construction
        evaluate_all(state, obs)
        assert solves[0] == n

    def test_sweep_point_solves_only_the_state(self, solves):
        evaluate_all(*example3_instance(0.3))
        for theta in (0.5, 1.0, 2.5):
            solves[0] = 0
            evaluate_all(*example3_instance(theta))
            assert solves[0] == 1
