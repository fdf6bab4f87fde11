"""End-to-end acceptance checks.

Each test covers one acceptance criterion and finishes by printing a
single ``ACCEPTANCE <k> <label>: PASS`` line, so running

    pytest tests/test_acceptance.py -v -s

yields one pass/fail line per criterion. The shared fuzz corpus (10,008
instances over dimensions {2, 3, 4} x counts {2, 3, 4}) is generated once
per session and reused by the criteria that quantify over it.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from skewsum.bounds import BoundReport, evaluate_all
from skewsum.cli import fuzz_instance
from skewsum.measures import skew_information, variance
from skewsum.scenarios import (
    SweepSpec,
    example2_instance,
    example2_skew_oracle,
    example3_instance,
    example3_sum_oracle,
    run_sweep,
)
from skewsum.states import random_observable, random_pure

FUZZ_SEED = 20260814
FUZZ_DIMS = (2, 3, 4)
FUZZ_NS = (2, 3, 4)
FUZZ_TRIALS_PER_CELL = 1112  # 9 cells -> 10,008 instances
VIOLATION_TOL = 1e-8


def _announce(num: int, label: str):
    print(f"ACCEPTANCE {num} {label}: PASS")


@dataclass(frozen=True)
class FuzzRecord:
    dim: int
    n: int
    report: BoundReport
    pair_identity_dev: float  # worst parallelogram-identity deviation (measures)
    pair_identity_scale: float


@pytest.fixture(scope="module")
def fuzz_corpus():
    records = []
    t0 = time.perf_counter()
    for dim in FUZZ_DIMS:
        for n in FUZZ_NS:
            for trial in range(FUZZ_TRIALS_PER_CELL):
                state, obs, _kind = fuzz_instance(FUZZ_SEED, dim, n, trial)
                report = evaluate_all(state, obs, tolerance=VIOLATION_TOL)
                dev = 0.0
                scale = 1.0
                skews = [skew_information(state, a) for a in obs]
                for i in range(n):
                    for j in range(i + 1, n):
                        lhs = skew_information(state, obs[i] + obs[j]) + skew_information(
                            state, obs[i] - obs[j]
                        )
                        rhs = 2.0 * skews[i] + 2.0 * skews[j]
                        if abs(lhs - rhs) > dev:
                            dev = abs(lhs - rhs)
                            scale = max(1.0, rhs)
                records.append(FuzzRecord(dim, n, report, dev, scale))
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_1_example2_closed_forms():
    combos = {
        "x+y+z": (1, 1, 1),
        "x+y": (1, 1, 0),
        "x+z": (1, 0, 1),
        "y+z": (0, 1, 1),
        "x-y": (1, -1, 0),
        "x-z": (1, 0, -1),
        "y-z": (0, 1, -1),
    }
    t0 = time.perf_counter()
    worst = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 201):
        state, obs = example2_instance(float(theta))
        oracle = example2_skew_oracle(float(theta))
        mats = [np.asarray(a) for a in obs]
        total = sum(skew_information(state, a) for a in obs)
        worst = max(worst, abs(total - oracle["sum"]))
        for key, (cx, cy, cz) in combos.items():
            combined = cx * mats[0] + cy * mats[1] + cz * mats[2]
            worst = max(worst, abs(skew_information(state, combined) - oracle[key]))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"worst closed-form deviation {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(1, f"example2 skew closed forms (201 pts, worst dev {worst:.1e})")


def test_criterion_2_example3_sum_formula():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in np.linspace(0.0, math.pi, 51):
        for phi in np.linspace(0.0, 2.0 * math.pi, 51):
            state, obs = example3_instance(float(theta), float(phi))
            total = sum(skew_information(state, a) for a in obs)
            worst = max(worst, abs(total - example3_sum_oracle(float(theta), float(phi))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"worst sum deviation {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _announce(2, f"example3 skew sum formula (51x51 grid, worst dev {worst:.1e})")


def test_criterion_3_fuzz_validity(fuzz_corpus):
    records, elapsed = fuzz_corpus
    assert len(records) >= 10_000
    violating = [
        (r.dim, r.n, r.report.violations) for r in records if r.report.violations
    ]
    assert violating == [], f"violations on {len(violating)} instances: {violating[:5]}"
    assert elapsed < 300.0, f"fuzz took {elapsed:.1f}s"
    _announce(3, f"validity fuzz ({len(records)} instances, {elapsed:.1f}s, 0 violations)")


def test_criterion_4_two_observable_exactness():
    worst = 0.0
    for trial in range(1000):
        dim = 2 + trial % 3
        state, obs, _ = fuzz_instance(777, dim, 2, trial)
        report = evaluate_all(state, obs)
        worst = max(
            worst,
            abs(report.value("theorem1") - report.variance_sum),
            abs(report.value("theorem2a") - report.skew_sum),
            abs(report.value("theorem2b") - report.skew_sum),
        )
    assert worst <= 1e-10, f"worst N=2 exactness deviation {worst:.3e}"
    _announce(4, f"N=2 reduction to plain sums (1000 instances, worst dev {worst:.1e})")


def test_criterion_5_dominance(fuzz_corpus):
    records, _ = fuzz_corpus
    worst_a = math.inf
    worst_b = math.inf
    worst_t1 = math.inf
    for r in records:
        rep = r.report
        worst_a = min(worst_a, rep.value("theorem2a") - rep.value("parallelogram_diff"))
        worst_b = min(worst_b, rep.value("theorem2b") - rep.value("parallelogram_sum"))
        if r.n == 2:
            worst_t1 = min(worst_t1, rep.value("theorem1") - rep.value("chen_variance"))
    assert worst_a >= -1e-10, f"theorem2a under parallelogram_diff by {worst_a:.3e}"
    assert worst_b >= -1e-10, f"theorem2b under parallelogram_sum by {worst_b:.3e}"
    assert worst_t1 >= -1e-10, f"theorem1 under chen_variance (N=2) by {worst_t1:.3e}"
    _announce(
        5,
        "dominance on fuzz corpus "
        f"(min gaps {worst_a:.1e}, {worst_b:.1e}, N=2 {worst_t1:.1e})",
    )


def test_criterion_6_variance_bound_strictly_tighter_somewhere():
    columns, rows, violations = run_sweep(SweepSpec.default("example1"))
    i_t1 = columns.index("theorem1")
    i_song = columns.index("song")
    i_chen = columns.index("chen_variance")
    best_gap = max(r[i_t1] - max(r[i_song], r[i_chen]) for r in rows)
    assert len(rows) == 201
    assert violations == []
    assert best_gap > 1e-6, f"best gap {best_gap:.3e}"
    _announce(6, f"example1 sweep: permutation bound beats prior variance bounds by {best_gap:.4f}")


def test_criterion_7_skew_bounds_strictly_tighter_somewhere():
    gaps = {}
    for scenario in ("example2", "example3"):
        columns, rows, violations = run_sweep(SweepSpec.default(scenario))
        i_a = columns.index("theorem2a")
        i_b = columns.index("theorem2b")
        i_z = columns.index("zhang")
        assert len(rows) == 201
        assert violations == []
        gaps[scenario] = max(max(r[i_a], r[i_b]) - r[i_z] for r in rows)
        assert gaps[scenario] > 1e-6, f"{scenario}: best gap {gaps[scenario]:.3e}"
    _announce(
        7,
        "skew bounds beat prior bound on sweeps "
        f"(gaps example2 {gaps['example2']:.4f}, example3 {gaps['example3']:.4f})",
    )


def test_criterion_8_pure_state_skew_equals_variance():
    worst = 0.0
    for trial in range(1000):
        dim = 2 + trial % 3
        state = random_pure(dim, seed=10_000 + trial)
        a = random_observable(dim, seed=20_000 + trial)
        worst = max(worst, abs(skew_information(state, a) - variance(state, a)))
    assert worst <= 1e-8, f"worst |skew - variance| on pure states {worst:.3e}"
    _announce(8, f"pure-state skew equals variance (1000 instances, worst dev {worst:.1e})")


def test_criterion_9_parallelogram_identities(fuzz_corpus):
    records, _ = fuzz_corpus
    worst_pair = 0.0
    worst_bound = 0.0
    for r in records:
        worst_pair = max(worst_pair, r.pair_identity_dev / r.pair_identity_scale)
        rep = r.report
        total = rep.value("parallelogram_sum") + rep.value("parallelogram_diff")
        worst_bound = max(
            worst_bound, abs(total - rep.skew_sum) / max(1.0, rep.skew_sum)
        )
    assert worst_pair <= 1e-9, f"pairwise identity off by {worst_pair:.3e}"
    assert worst_bound <= 1e-9, f"bound-sum identity off by {worst_bound:.3e}"
    _announce(
        9,
        "parallelogram identities on fuzz corpus "
        f"(worst rel devs {worst_pair:.1e}, {worst_bound:.1e})",
    )
