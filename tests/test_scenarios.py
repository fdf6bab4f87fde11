import math

import numpy as np
import pytest

from skewsum.bounds import (
    bound_chen_skew,
    bound_parallelogram_diff,
    bound_parallelogram_sum,
    bound_theorem2a,
    bound_theorem2b,
    bound_zhang,
    evaluate_batch,
)
from skewsum.measures import expectation, skew_information, variance
from skewsum.scenarios import (
    L_X,
    L_Y,
    L_Z,
    MAX_GRID_POINTS,
    SCENARIOS,
    SweepSpec,
    example1_instance,
    example2_instance,
    example2_skew_oracle,
    example3_instance,
    example3_sum_oracle,
    grid_points,
    run_sweep,
)

THETAS_2PI = np.linspace(0.0, 2.0 * math.pi, 17)


class TestInstances:
    def test_example1_validation(self):
        with pytest.raises(ValueError):
            example1_instance(-0.1, math.pi / 4)
        with pytest.raises(ValueError):
            example1_instance(math.pi + 0.1, math.pi / 4)
        with pytest.raises(ValueError):
            example1_instance(1.0, 7.0)

    def test_example3_validation(self):
        with pytest.raises(ValueError):
            example3_instance(-0.2, 1.0)
        with pytest.raises(ValueError):
            example3_instance(1.0, -1.0)

    def test_example1_shape(self):
        state, obs = example1_instance(0.3, 0.8)
        assert state.dim == 2 and obs.n == 3
        assert state.purity() == pytest.approx(1.0, abs=1e-12)

    def test_example1_variance_sum_is_two(self):
        # pure qubit: the three Pauli variances always add to 2
        for theta in np.linspace(0.0, math.pi, 9):
            state, obs = example1_instance(theta, math.pi / 4)
            varsum = sum(variance(state, a) for a in obs)
            assert varsum == pytest.approx(2.0, abs=1e-12)

    def test_example2_state_on_bloch_circle(self):
        state, obs = example2_instance(0.7)
        assert obs.n == 3
        r = math.sqrt(3.0) / 2.0
        assert expectation(state, obs[0]) == pytest.approx(r * math.cos(0.7), abs=1e-12)
        assert expectation(state, obs[1]) == pytest.approx(r * math.sin(0.7), abs=1e-12)
        assert expectation(state, obs[2]) == pytest.approx(0.0, abs=1e-12)

    def test_example3_observables_are_angular_momenta(self):
        state, obs = example3_instance(0.4, math.pi / 2)
        assert state.dim == 3
        np.testing.assert_allclose(np.asarray(obs[0]), L_X)
        np.testing.assert_allclose(np.asarray(obs[1]), L_Y)
        np.testing.assert_allclose(np.asarray(obs[2]), L_Z)
        comm = L_X @ L_Y - L_Y @ L_X
        np.testing.assert_allclose(comm, 1j * L_Z, atol=1e-15)


class TestExample2Oracle:
    def test_total_skew_is_one(self):
        for theta in THETAS_2PI:
            state, obs = example2_instance(theta)
            total = sum(skew_information(state, a) for a in obs)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_pairwise_combinations(self):
        combos = {
            "x+y+z": lambda o: o[0] + o[1] + o[2],
            "x+y": lambda o: o[0] + o[1],
            "x+z": lambda o: o[0] + o[2],
            "y+z": lambda o: o[1] + o[2],
            "x-y": lambda o: o[0] - o[1],
            "x-z": lambda o: o[0] - o[2],
            "y-z": lambda o: o[1] - o[2],
        }
        for theta in THETAS_2PI:
            state, obs = example2_instance(theta)
            oracle = example2_skew_oracle(theta)
            mats = [np.asarray(a) for a in obs]
            for key, make in combos.items():
                got = skew_information(state, make(mats))
                assert got == pytest.approx(oracle[key], abs=1e-10), (key, theta)

    def test_bounds_match_closed_forms(self):
        for theta in THETAS_2PI:
            state, obs = example2_instance(theta)
            o = example2_skew_oracle(theta)
            plus = [o["x+y"], o["x+z"], o["y+z"]]
            minus = [o["x-y"], o["x-z"], o["y-z"]]
            # closed forms can round to -1e-16 where the true value is 0
            root_plus = sum(math.sqrt(max(0.0, v)) for v in plus)
            root_minus = sum(math.sqrt(max(0.0, v)) for v in minus)

            expect_t2a = (root_plus**2 / 3.0 + sum(minus)) / 4.0
            expect_t2b = (root_minus**2 / 3.0 + sum(plus)) / 4.0
            expect_zhang = (o["x+y+z"] + root_minus**2 / 3.0) / 3.0
            expect_chen = sum(plus) - root_plus**2 / 4.0
            assert bound_theorem2a(state, obs).value == pytest.approx(expect_t2a, abs=1e-10)
            assert bound_theorem2b(state, obs).value == pytest.approx(expect_t2b, abs=1e-10)
            assert bound_zhang(state, obs).value == pytest.approx(expect_zhang, abs=1e-10)
            assert bound_chen_skew(state, obs).value == pytest.approx(expect_chen, abs=1e-10)
            assert bound_parallelogram_sum(state, obs).value == pytest.approx(
                sum(plus) / 4.0, abs=1e-10
            )
            assert bound_parallelogram_diff(state, obs).value == pytest.approx(
                sum(minus) / 4.0, abs=1e-10
            )


class TestExample3Oracle:
    def test_total_skew_matches_closed_form(self):
        for theta in np.linspace(0.0, math.pi, 7):
            for phi in np.linspace(0.0, 2.0 * math.pi, 7):
                state, obs = example3_instance(theta, phi)
                total = sum(skew_information(state, a) for a in obs)
                assert total == pytest.approx(
                    example3_sum_oracle(theta, phi), abs=1e-10
                ), (theta, phi)

    def test_north_pole(self):
        # amplitudes (0, 0, 1): I(L_z) = 0, I(L_x) = I(L_y) = 1/2
        state, obs = example3_instance(0.0, math.pi / 2)
        assert skew_information(state, obs[2]) == pytest.approx(0.0, abs=1e-12)
        assert skew_information(state, obs[0]) == pytest.approx(0.5, abs=1e-12)
        assert skew_information(state, obs[1]) == pytest.approx(0.5, abs=1e-12)
        assert example3_sum_oracle(0.0, math.pi / 2) == pytest.approx(1.0)


class TestGrid:
    def test_inclusive_endpoints(self):
        pts = grid_points(0.0, math.pi, math.pi / 200.0)
        assert len(pts) == 201
        assert pts[0] == 0.0
        assert pts[-1] == pytest.approx(math.pi, abs=1e-12)

    def test_single_point(self):
        pts = grid_points(1.0, 1.0, 0.5)
        np.testing.assert_array_equal(pts, [1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_points(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            grid_points(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            grid_points(1.0, 0.0, 0.1)

    @pytest.mark.parametrize(
        "start,stop,step",
        [(0.0, math.inf, 1.0), (-math.inf, 0.0, 1.0), (0.0, 1.0, math.inf), (0.0, 1.0, math.nan)],
    )
    def test_non_finite_rejected(self, start, stop, step):
        with pytest.raises(ValueError, match="finite"):
            grid_points(start, stop, step)

    @pytest.mark.parametrize(
        "start,stop,step", [(0.0, 1e300, 1e-300), (-1e308, 1e308, 1.0), (0.0, 1.0, 1e-15)]
    )
    def test_overflowing_point_count_rejected(self, start, stop, step):
        with pytest.raises(ValueError, match="too many points"):
            grid_points(start, stop, step)

    def test_largest_grid_accepted(self):
        assert len(grid_points(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="too many points"):
            grid_points(0.0, float(MAX_GRID_POINTS), 1.0)


class TestSweep:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(scenario="nope", start=0.0, stop=1.0, step=0.5)
        with pytest.raises(ValueError):
            SweepSpec(scenario="example2", start=0.0, stop=1.0, step=0.5, phi=0.3)
        with pytest.raises(ValueError):
            SweepSpec(scenario="example1", start=0.0, stop=1.0, step=-1.0)

    def test_default_specs(self):
        spec = SweepSpec.default("example1")
        assert spec.phi == pytest.approx(math.pi / 4)
        assert spec.stop == pytest.approx(math.pi)
        assert len(grid_points(spec.start, spec.stop, spec.step)) == 201

        spec3 = SweepSpec.default("example3")
        assert spec3.phi == pytest.approx(math.pi / 2)

        spec2 = SweepSpec.default("example2")
        assert spec2.phi is None
        assert spec2.stop == pytest.approx(2.0 * math.pi)

    def test_run_sweep_example1_columns_and_rows(self):
        spec = SweepSpec.default("example1", step=math.pi / 10.0)
        columns, rows, violations = run_sweep(spec)
        assert columns == [
            "theta",
            "phi",
            "variance_sum",
            "skew_sum",
            "theorem1",
            "song",
            "chen_variance",
            "theorem2a",
            "theorem2b",
            "zhang",
            "chen_skew",
            "parallelogram_sum",
            "parallelogram_diff",
        ]
        assert len(rows) == 11
        assert violations == []
        var_idx = columns.index("variance_sum")
        for row in rows:
            assert len(row) == len(columns)
            assert row[var_idx] == pytest.approx(2.0, abs=1e-10)

    def test_direct_spec_without_phi_uses_the_default(self):
        spec = SweepSpec(scenario="example1", start=0.0, stop=1.0, step=0.5, phi=None)
        columns, rows, _violations = run_sweep(spec)
        assert columns[:2] == ["theta", "phi"]
        assert [row[1] for row in rows] == [SCENARIOS["example1"].default_phi] * 3

    def test_run_sweep_example2_has_no_phi_column(self):
        spec = SweepSpec.default("example2", step=math.pi / 2.0)
        columns, rows, violations = run_sweep(spec)
        assert columns[0] == "theta"
        assert "phi" not in columns
        assert violations == []
        skew_idx = columns.index("skew_sum")
        for row in rows:
            assert row[skew_idx] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_rows_hold_the_bits_of_the_reports(self, scenario):
        # the rows are read from the batch's table, not from report objects
        columns, rows, violations = run_sweep(SweepSpec.default(scenario))
        k = 2 if SCENARIOS[scenario].uses_phi else 1
        reports = evaluate_batch([SCENARIOS[scenario].make(*row[:k]) for row in rows])
        applicable = [b.name for b in reports[0].bounds if b.applicable]
        assert columns == columns[:k] + ["variance_sum", "skew_sum"] + applicable
        expected = [
            row[:k] + [r.variance_sum, r.skew_sum] + [b.value for b in r.bounds if b.applicable]
            for row, r in zip(rows, reports)
        ]
        assert [[x.hex() for x in row] for row in rows] == [
            [x.hex() for x in row] for row in expected
        ]
        assert violations == [(row[:k], r.violations) for row, r in zip(rows, reports)
                              if r.violations]

    def test_scenarios_registry(self):
        assert set(SCENARIOS) == {"example1", "example2", "example3"}
        assert SCENARIOS["example2"].uses_phi is False
