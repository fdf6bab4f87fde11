import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

import skewsum
from skewsum import _kernels, bounds
from skewsum.bounds import (
    CATALOG,
    FAMILY,
    BoundReport,
    BoundValue,
    BudgetExceededError,
    InstanceData,
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
    evaluate_batch,
)
from skewsum.linalg import HermitianMatrix, NotHermitianError, sqrt_psd
from skewsum.measures import amplitude_vector, expectation, skew_information, variance
from skewsum.rng import SplitMix64
from skewsum.scenarios import example1_instance, example2_instance, example3_instance
from skewsum.states import SIGMA_X, SIGMA_Y, SIGMA_Z, pure_state, random_mixed, random_pure

EX1_POINT = (math.pi / 2, math.pi / 4)
# entries near 1e200 overflow the second moments of this instance
OVERFLOWING = (
    pure_state([1, 1]),
    [np.array([[1e200, 2e200], [2e200, -1e200]]), np.array([[0, -3e200j], [3e200j, 0]])],
)


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
        assert list(obs) == list(obs.observables)
        np.testing.assert_array_equal(
            sum(o.mat for o in obs), SIGMA_X + SIGMA_Y + SIGMA_Z
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


def _reference_amplitudes(state, a) -> np.ndarray:
    """Amplitude vector from LAPACK's eigh, independent of the package's
    eigensolver and of the amplitude-vector code the reports read."""
    a = np.array(a)
    w, u = np.linalg.eigh(a)
    mean = np.trace(state.mat @ a).real
    probs = np.einsum("ik,ij,jk->k", u.conj(), state.mat, u).real
    return np.abs(w - mean) * np.sqrt(np.clip(probs, 0.0, None))


def _brute_force_theorem1(state, obs):
    """Independent exhaustive reference for the permutation-maximized bound."""
    n, d = obs.n, obs.dim
    avs = [_reference_amplitudes(state, a) for a in obs]
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

    def test_budget_error_message_for_counts_too_long_to_print(self):
        # 2000! has 5736 digits, past Python's int -> str limit of 4300
        tuples = math.factorial(2000)
        err = BudgetExceededError(tuples, 10**6)
        assert err.tuples == tuples
        assert str(err) == "permutation search needs about 10^5735.5 tuples, budget is 1000000"
        small = BudgetExceededError(13824, 1000)
        assert str(small) == "permutation search needs 13824 tuples, budget is 1000"

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
        b1 = np.sort(_reference_amplitudes(state, obs[0]))
        b2 = np.sort(_reference_amplitudes(state, obs[1]))
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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_observable_applicability(self, make_instance, n):
        # the README's catalog table: mp_quadratic and robertson at N = 2
        # only, chen_skew at N >= 3 only, every other bound at every N
        state, obs = make_instance(2, n, 10)
        report = evaluate_all(state, obs)
        applicable = {b.name for b in report.bounds if b.applicable}
        if n == 2:
            assert applicable == set(CATALOG) - {"chen_skew"}
        else:
            assert applicable == set(CATALOG) - {"mp_quadratic", "robertson"}

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

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_tolerance_raises(self, make_instance, tolerance):
        # a NaN tolerance made every violation comparison false; a negative
        # one flagged every bound
        state, obs = make_instance(3, 3, 16)
        with pytest.raises(ValueError, match="tolerance must be finite"):
            evaluate_all(state, obs, tolerance=tolerance)

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

    def test_bound_value_rejects_unknown_name(self):
        data = BoundValue("song", 1.5).to_dict()
        data["name"] = "bogus"
        with pytest.raises(ValueError, match="name: unknown bound 'bogus'"):
            BoundValue.from_dict(data)

    def test_report_rejects_unknown_bound_name(self, make_instance):
        state, obs = make_instance(2, 2, 14)
        data = evaluate_all(state, obs).to_dict()
        data["bounds"][1]["name"] = "bogus"
        with pytest.raises(ValueError, match="name: unknown bound 'bogus'"):
            BoundReport.from_dict(data)

    @pytest.mark.parametrize("field,value,message", [
        ("bounds", lambda bounds: bounds[:2], "bounds: expected theorem1, song, "),
        ("violations", ["nope", 3], "violations: 'nope' is not an applicable bound"),
        ("violations", ["chen_skew"], "violations: 'chen_skew' is not an applicable bound"),
        ("violations", ["song", "song"], "violations: 'song' is repeated"),
        ("tightest_variance", "bogus", "tightest_variance: 'bogus' is not an applicable"),
        ("tightest_skew", "song", "tightest_skew: 'song' is not an applicable skew bound"),
        ("tightest_skew", "chen_skew", "tightest_skew: 'chen_skew' is not an applicable"),
    ])
    def test_report_rejects_fields_that_contradict_the_catalog(self, make_instance, field,
                                                                value, message):
        state, obs = make_instance(2, 2, 14)  # N = 2: chen_skew does not apply
        data = evaluate_all(state, obs).to_dict()
        data[field] = value(data[field]) if callable(value) else value
        with pytest.raises(ValueError, match=message):
            BoundReport.from_dict(data)

    def test_bound_value_serialization_with_permutations(self):
        bv = BoundValue("theorem1", 1.5, PermutationTuple(((0, 1), (1, 0))))
        clone = BoundValue.from_dict(bv.to_dict())
        assert clone == bv

    @pytest.mark.parametrize("value", ["abc", "1.5", True, math.nan, math.inf, -math.inf])
    def test_bound_value_rejects_a_value_that_is_not_a_finite_number(self, value):
        data = BoundValue("song", 1.5).to_dict()
        data["value"] = value
        with pytest.raises(ValueError, match="bound song value: expected a finite number"):
            BoundValue.from_dict(data)

    @pytest.mark.parametrize("field", ["variance_sum", "skew_sum"])
    @pytest.mark.parametrize("value", ["nan", "2.0", False, math.nan, -math.inf, 10**400])
    def test_report_rejects_a_sum_that_is_not_a_finite_number(self, make_instance, field,
                                                               value):
        state, obs = make_instance(2, 2, 14)
        data = evaluate_all(state, obs).to_dict()
        data[field] = value
        with pytest.raises(ValueError, match=f"{field}: expected a finite number"):
            BoundReport.from_dict(data)

    @pytest.mark.parametrize("value,applicable", [(1.5, False), (None, True)])
    def test_bound_value_rejects_contradictory_applicable(self, value, applicable):
        data = BoundValue("song", value).to_dict()
        data["applicable"] = applicable
        with pytest.raises(ValueError, match="contradicts"):
            BoundValue.from_dict(data)

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
        for n in (2, 3, 4):
            state, obs = make_instance(3, n, 15)
            report = evaluate_all(state, obs)
            for name, func in funcs.items():
                assert func(state, obs) == report.bound(name), name

    def test_non_finite_values_raise(self):
        # entries near 1e200 overflow the second moments to inf/NaN; such a
        # report used to come back with no violations, since NaN > x is false
        state, obs = OVERFLOWING
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the ValueError is the only signal
            with pytest.raises(ValueError, match="non-finite"):
                evaluate_all(state, obs)

    @pytest.mark.parametrize("name", CATALOG)
    def test_standalone_bounds_raise_on_overflow(self, name):
        # as evaluate_all does: not nan/inf with RuntimeWarnings
        state, obs = OVERFLOWING
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                getattr(skewsum, f"bound_{name}")(state, obs)


def _json(report: BoundReport) -> str:
    return json.dumps(report.to_dict())


class TestEvaluateBatch:
    """Each report of a batch holds the bytes evaluate_all gives its
    instance alone."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_evaluate_all_in_every_cell(self, make_instance, dim, n):
        # fuzz trials alternate pure and mixed states, and draw every
        # observable afresh
        instances = [make_instance(dim, n, 300 + t) for t in range(6)]
        reports = evaluate_batch(instances)
        assert [_json(r) for r in reports] == [_json(evaluate_all(*i)) for i in instances]

    @pytest.mark.parametrize("make", [example1_instance, example2_instance, example3_instance])
    def test_matches_evaluate_all_on_a_shared_observable_set(self, make):
        instances = [make(theta) for theta in np.linspace(0.0, math.pi, 41)]
        assert len({id(obs) for _, obs in instances}) == 1
        reports = evaluate_batch(instances)
        assert [_json(r) for r in reports] == [_json(evaluate_all(*i)) for i in instances]

    def test_matches_evaluate_all_across_scan_chunks(self, make_instance):
        instances = [make_instance(4, 4, 400 + t) for t in range(9)]
        per_chunk = _kernels._SCAN_CHUNK_ELEMENTS // math.factorial(4) ** 3
        assert 1 <= per_chunk < len(instances)
        reports = evaluate_batch(instances)
        assert [_json(r) for r in reports] == [_json(evaluate_all(*i)) for i in instances]

    def test_reports_follow_the_order_of_the_instances(self, make_instance):
        instances = [make_instance(3, 3, 500 + t) for t in range(5)]
        forward = [_json(r) for r in evaluate_batch(instances)]
        backward = [_json(r) for r in evaluate_batch(instances[::-1])]
        assert forward == backward[::-1]
        assert len(set(forward)) == len(forward)

    def test_empty_batch(self):
        assert evaluate_batch([]) == []

    @pytest.mark.parametrize("other", [(3, 3), (2, 2)])
    def test_mixed_cells_raise(self, make_instance, other):
        with pytest.raises(ValueError, match="one \\(dimension, observable count\\)"):
            evaluate_batch([make_instance(2, 3, 1), make_instance(*other, 1)])

    def test_overflowing_instance_raises_its_own_message(self, make_instance):
        with pytest.raises(ValueError) as alone:
            evaluate_all(*OVERFLOWING)
        batch = [make_instance(2, 2, 1), OVERFLOWING, make_instance(2, 2, 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as batched:
                evaluate_batch(batch)
        assert str(batched.value) == str(alone.value)

    def test_a_non_finite_bound_mid_batch_raises_its_own_message(self, make_instance,
                                                                   monkeypatch):
        # the 2nd instance's song value is NaN and the 3rd instance's sums
        # overflow: the batch raises what the 2nd instance raises alone
        first, marked = make_instance(2, 2, 1), make_instance(2, 2, 2)
        marked_sum = evaluate_all(*marked).variance_sum
        song = next(b for b in bounds.BOUNDS if b.name == "song")

        def nan_where_marked(q):
            value, detail = song.formula(q.variance)
            return np.where(q.variance.diag.sum(axis=1) == marked_sum, np.nan, value), detail

        _patched(monkeypatch, {"song": nan_where_marked})
        with pytest.raises(ValueError) as alone:
            evaluate_all(*marked)
        assert str(alone.value) == "bound song has a non-finite value nan"
        evaluate_all(*first)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as batched:
                evaluate_batch([first, marked, OVERFLOWING])
        assert str(batched.value) == str(alone.value)


def _patched(monkeypatch, formulas):
    """Replace the named entries' formulas in the table ``evaluate_all`` reads
    by formulas over the whole instance data."""
    table = [dataclasses.replace(b, formula=formulas[b.name], form=None)
             if b.name in formulas else b for b in bounds.BOUNDS]
    monkeypatch.setattr(bounds, "BOUNDS", tuple(table))


class TestOnePass:
    """Each report is checked, flagged and ranked in one loop over the table,
    after one validation of the batch."""

    @pytest.mark.parametrize("name", ["song", "zhang", "robertson"])
    def test_an_inflated_bound_is_flagged_alone(self, make_instance, monkeypatch, name):
        # one per family: robertson's target is the product in its detail
        state, obs = make_instance(3, 2, 40)
        assert evaluate_all(state, obs).violations == ()
        row = next(b for b in bounds.BOUNDS if b.name == name)

        def inflated(q):
            value, detail = row.formula(getattr(q, row.form) if row.form else q)
            return 2.0 * value + 1.0, detail

        _patched(monkeypatch, {name: inflated})
        assert evaluate_all(state, obs).violations == (name,)

    def test_a_tie_goes_to_the_earlier_entry(self, make_instance, monkeypatch):
        state, obs = make_instance(3, 3, 41)

        def variance_sum(q):
            return q.variance.diag.sum(axis=1), None

        _patched(monkeypatch, {"song": variance_sum, "chen_variance": variance_sum})
        report = evaluate_all(state, obs)
        assert report.value("song") == report.value("chen_variance") == report.variance_sum
        assert report.value("theorem1") < report.variance_sum
        assert report.tightest_variance == "song"
        assert report.violations == ()

    def test_a_value_at_the_tolerance_edge_is_not_a_violation(self, make_instance, monkeypatch):
        state, obs = make_instance(3, 3, 42)
        tolerance = 1e-8

        def at_edge(q):
            edge = [t + tolerance * max(1.0, t) for t in q.variance.diag.sum(axis=1).tolist()]
            return np.array(edge), None

        def past_edge(q):
            return np.nextafter(at_edge(q)[0], math.inf), None

        _patched(monkeypatch, {"song": at_edge})
        assert evaluate_all(state, obs, tolerance=tolerance).violations == ()
        _patched(monkeypatch, {"song": past_edge})
        assert evaluate_all(state, obs, tolerance=tolerance).violations == ("song",)

    @pytest.mark.parametrize(
        "call",
        [
            lambda s, o: evaluate_batch([(s, o), (s, o)]),
            evaluate_all,
            bound_theorem1,
            bound_zhang,
        ],
        ids=["evaluate_batch", "evaluate_all", "bound_theorem1", "bound_zhang"],
    )
    def test_each_call_validates_its_batch_once(self, make_instance, monkeypatch, call):
        count = [0]
        coerce_batch = bounds._coerce_batch

        def counting(instances):
            count[0] += 1
            return coerce_batch(instances)

        monkeypatch.setattr(bounds, "_coerce_batch", counting)
        call(*make_instance(3, 3, 43))
        assert count[0] == 1


@pytest.mark.parametrize(
    "call",
    [
        variance,
        skew_information,
        expectation,
        amplitude_vector,
        lambda s, a: InstanceData(s, [a, SIGMA_X]),
        lambda s, a: evaluate_all(s, [a, SIGMA_X]),
    ],
    ids=["variance", "skew_information", "expectation", "amplitude_vector",
         "InstanceData", "evaluate_all"],
)
def test_every_entry_point_rejects_a_non_hermitian_observable(call):
    with pytest.raises(NotHermitianError):
        call(pure_state([1, 0]), [[0, 1], [0, 0]])


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
    amps = np.stack([_reference_amplitudes(state, m) for m in mats])
    sorted_amps = np.sort(amps, axis=1)
    chen_norms = [float(np.sum((sorted_amps[i] + sorted_amps[j]) ** 2)) for i, j in pairs]
    h = 1.0 if n == 2 else 0.0
    ref = {
        "variance_sum": sum(variance(state, m) for m in mats),
        "skew_sum": sum(skew_information(state, m) for m in mats),
        "theorem1": _kernels.theorem1_scan(amps[None])[0][0],
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
        comm = mats[0] @ mats[1] - mats[1] @ mats[0]
        ref["robertson"] = 0.5 * abs(complex(np.trace(state.mat @ comm)))
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


class TestSharedFormulas:
    """Rows that share a formula keep the bits of the private copies they
    replaced: ``_chen`` in the arithmetic order of the old variance-only
    copy, ``mp_quadratic`` as the parallelogram sum at N = 2."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_merged_rows_keep_their_bits(self, dim, n):
        from skewsum.cli import fuzz_instance

        i, j = bounds._pairs(n)
        kinds = set()
        for trial in range(60):
            state, obs, kind = fuzz_instance(20260814, dim, n, trial)
            kinds.add(kind)
            data = InstanceData(state, obs)
            report = evaluate_all(state, obs)
            # the old chen_variance: sorted amplitude vectors and a step h
            b = np.sort(data.amplitudes, axis=2)
            s = b[:, i] + b[:, j]
            sq_norms = np.einsum("bpk,bpk->bp", s, s)
            root = np.sqrt(sq_norms).sum(axis=-1)
            h = 1.0 if n == 2 else 0.0
            pref = 1.0 / (2.0**h * n - 2.0)
            coef = (h - 1.0) / (n - 1.0) ** 2
            chen_variance = pref * (sq_norms.sum(axis=1) + coef * (root * root))
            assert report.value("chen_variance").hex() == chen_variance.item().hex()
            if n == 2:
                mp_quadratic = 0.5 * data.variance.plus[:, 0]
                assert report.value("mp_quadratic").hex() == mp_quadratic.item().hex()
                continue
            # the old chen_skew
            plus = data.skew.plus
            root = np.sqrt(plus).sum(axis=-1)
            chen_skew = ((plus.sum(axis=1) - root * root / (n - 1.0) ** 2) / (n - 2.0)).item()
            if n == 3:
                assert report.value("chen_skew").hex() == chen_skew.hex()
            else:
                assert abs(report.value("chen_skew") - chen_skew) <= 1e-15 * abs(chen_skew)
        assert kinds == {"pure", "mixed"}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vector_form_fields(self, n):
        v = SplitMix64(700 + n).normals((5, n, 3))
        form = bounds._vector_form(v)
        pairs = list(itertools.combinations(range(n), 2))

        def sq(x):
            return np.sum(x * x, axis=-1)

        np.testing.assert_allclose(form.diag, sq(v), rtol=1e-14)
        np.testing.assert_allclose(
            form.plus, np.stack([sq(v[:, a] + v[:, c]) for a, c in pairs], axis=1), rtol=1e-14
        )
        np.testing.assert_allclose(
            form.minus, np.stack([sq(v[:, a] - v[:, c]) for a, c in pairs], axis=1), rtol=1e-14
        )
        np.testing.assert_allclose(form.total, sq(v.sum(axis=1)), rtol=1e-14)
        assert form.n == n
        for field in form:
            assert np.all(field >= 0.0)
        i, j = bounds._pairs(n)
        np.testing.assert_allclose(
            form.plus + form.minus, 2.0 * (form.diag[:, i] + form.diag[:, j]), rtol=1e-14
        )

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_amplitude_vector_is_what_reports_read(self, make_instance, dim, n):
        for trial in range(4):
            state, obs = make_instance(dim, n, 1300 + trial)
            amps = InstanceData(state, obs).amplitudes[0]
            for a, row in zip(obs, amps):
                assert amplitude_vector(state, a).tobytes() == row.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sorted_amplitude_norms_are_the_variances(self, make_instance, dim, n):
        # ||a_i||^2 = Var A_i, and sorting keeps the norm
        for trial in range(10):
            data = InstanceData(*make_instance(dim, n, 1200 + trial))
            np.testing.assert_allclose(
                data.sorted_amplitudes.diag, data.variance.diag, rtol=1e-12, atol=0.0
            )


def test_public_api_surface():
    for name in skewsum.__all__:
        assert hasattr(skewsum, name), name
    for name in CATALOG:
        func = getattr(skewsum, f"bound_{name}")
        assert func.__name__ == f"bound_{name}"
        assert func.__doc__ and func.__doc__.strip(), name


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

    @pytest.mark.parametrize("name", CATALOG)
    def test_standalone_bound_solves_only_for_amplitude_vectors(self, make_instance, solves,
                                                               name):
        # only theorem1 and chen_variance read amplitude vectors, which need
        # every observable's eigensystem
        state, obs = make_instance(3, 2, 1001)
        solves[0] = 0
        bounds._BOUND_FUNCS[name](state, obs)
        assert solves[0] == (2 if name in ("theorem1", "chen_variance") else 0)

    def test_sweep_point_solves_only_the_state(self, solves):
        # a pure state takes sqrt(rho) = rho and K = C: no solve at all
        evaluate_all(*example3_instance(0.3))
        for theta in (0.5, 1.0, 2.5):
            solves[0] = 0
            evaluate_all(*example3_instance(theta))
            assert solves[0] == 0

    def test_mixed_sweep_point_solves_the_state_once(self, solves):
        evaluate_all(*example2_instance(0.3))
        for theta in (0.5, 1.0, 2.5):
            solves[0] = 0
            evaluate_all(*example2_instance(theta))
            assert solves[0] == 1

    @pytest.mark.parametrize("factory,expected", [(random_pure, 0), (random_mixed, 1)])
    def test_state_construction_solves_only_mixed_states(self, solves, factory, expected):
        solves[0] = 0
        factory(3, seed=17)
        assert solves[0] == expected

    def test_sqrt_psd_reuses_the_cached_eigensystem(self, solves):
        rho = random_mixed(3, seed=5)  # solved at construction
        m = HermitianMatrix(rho.mat)
        assert m.eigensystem.dim == 3  # solved here, then cached
        solves[0] = 0
        for matrix in (rho, m):
            np.testing.assert_array_equal(sqrt_psd(matrix).mat, rho.sqrt().mat)
        assert solves[0] == 0


def _pure_instances(seed: int, per_cell: int) -> list:
    """``per_cell`` pure fuzz instances (the even trials) per (d, N) cell,
    d, N in {2, 3, 4}, then the example1 and example3 points at theta =
    0.1, 0.2, ..., 3.0."""
    from skewsum.cli import fuzz_instance

    draws = [fuzz_instance(seed, dim, n, 2 * t)
             for dim in (2, 3, 4) for n in (2, 3, 4) for t in range(per_cell)]
    assert {kind for _, _, kind in draws} == {"pure"}
    instances = [(state, obs) for state, obs, _ in draws]
    thetas = [k / 10.0 for k in range(1, 31)]
    return instances + [make(theta) for make in (example1_instance, example3_instance)
                        for theta in thetas]


class TestPureStates:
    """sqrt(rho) = rho for a pure state, so skew information is variance."""

    def test_skew_equals_variance_bit_for_bit(self):
        for state, obs in _pure_instances(seed=3, per_cell=3):
            data = InstanceData(state, obs)
            for name in data.skew._fields:
                assert getattr(data.skew, name).tobytes() == getattr(data.variance, name).tobytes()
            report = evaluate_all(state, obs)
            assert report.skew_sum.hex() == report.variance_sum.hex()
            assert report.value("zhang").hex() == report.value("song").hex()

    def test_sums_match_a_40_digit_reference(self):
        mpmath = pytest.importorskip("mpmath")
        instances = _pure_instances(seed=7, per_cell=6)
        assert len(instances) == 114
        worst = {"variance_sum": 0.0, "skew_sum": 0.0}
        with mpmath.workdps(40):
            for state, obs in instances:
                d = state.dim
                rho = [[mpmath.mpc(complex(x)) for x in row] for row in state.mat]
                exact = mpmath.mpf(0)
                for o in obs:
                    a = [[mpmath.mpc(complex(x)) for x in row] for row in o.mat]
                    ra = [[mpmath.fsum(rho[i][k] * a[k][j] for k in range(d)) for j in range(d)]
                          for i in range(d)]
                    mean = mpmath.fsum(ra[i][i] for i in range(d)).real
                    second = mpmath.fsum(ra[i][k] * a[k][i] for i in range(d)
                                         for k in range(d)).real
                    exact += second - mean * mean
                report = evaluate_all(state, obs)
                for key in worst:
                    err = float(abs(getattr(report, key) - exact) / exact)
                    worst[key] = max(worst[key], err)
        assert max(worst.values()) <= 1e-15, worst
