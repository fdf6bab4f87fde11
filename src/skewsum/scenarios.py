"""Reference scenarios with closed-form oracles, and parameter sweeps.

Three built-in families, all with N = 3 observables:

* ``example1``: qubit pure state cos(theta/2)|1> + e^{i phi} sin(theta/2)|0>
  against (-sigma_x, sigma_y, sigma_z).
* ``example2``: mixed qubit on the Bloch circle (sqrt(3)/2) (cos theta,
  sin theta, 0) against the three Pauli matrices. Every skew information
  the bounds need has a closed form here.
* ``example3``: spin-1 pure state with real amplitudes (sin theta cos phi,
  sin theta sin phi, cos theta) against the angular momentum matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ObservableSet, evaluate_batch
from .states import SIGMA_X, SIGMA_Y, SIGMA_Z, BlochVector, from_bloch, pure_state

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

L_X = np.array(
    [[0, _INV_SQRT2, 0], [_INV_SQRT2, 0, _INV_SQRT2], [0, _INV_SQRT2, 0]],
    dtype=np.complex128,
)
L_Y = np.array(
    [
        [0, -1j * _INV_SQRT2, 0],
        [1j * _INV_SQRT2, 0, -1j * _INV_SQRT2],
        [0, 1j * _INV_SQRT2, 0],
    ],
    dtype=np.complex128,
)
L_Z = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=np.complex128)
for _m in (L_X, L_Y, L_Z):
    _m.setflags(write=False)
del _m

# shared by every point of a sweep, so each observable's eigensystem is
# solved once per process (it is cached on the HermitianMatrix)
EXAMPLE1_OBSERVABLES = ObservableSet([-SIGMA_X, SIGMA_Y, SIGMA_Z])
PAULI_OBSERVABLES = ObservableSet([SIGMA_X, SIGMA_Y, SIGMA_Z])
SPIN1_OBSERVABLES = ObservableSet([L_X, L_Y, L_Z])


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    value = float(value)
    if not (lo <= value <= hi):
        raise ValueError(f"{name}={value} outside [{lo}, {hi}]")
    return value


def example1_instance(theta: float, phi: float = math.pi / 4):
    """Qubit pure-state scenario; returns (state, observables)."""
    theta = _check_range("theta", theta, 0.0, math.pi)
    phi = _check_range("phi", phi, 0.0, 2.0 * math.pi)
    amps = [
        np.exp(1j * phi) * math.sin(theta / 2.0),
        math.cos(theta / 2.0),
    ]
    return pure_state(amps), EXAMPLE1_OBSERVABLES


def example2_instance(theta: float):
    """Bloch-circle mixed-qubit scenario; returns (state, observables)."""
    r = math.sqrt(3.0) / 2.0
    state = from_bloch(BlochVector(r * math.cos(theta), r * math.sin(theta), 0.0))
    return state, PAULI_OBSERVABLES


def example2_skew_oracle(theta: float) -> dict:
    """Closed forms for the skew informations of the example2 scenario.

    Keys name the Pauli combination: "sum" is I(x) + I(y) + I(z), the rest
    are single combined observables such as "x+y" for I(sigma_x + sigma_y).
    """
    theta = float(theta)
    cs = math.cos(theta) * math.sin(theta)
    c2 = math.cos(2.0 * theta)
    s2 = math.sin(2.0 * theta)
    return {
        "sum": 1.0,
        "x+y+z": 1.0 - cs,
        "x+y": 0.5 - cs,
        "x+z": 0.25 * (3.0 - c2),
        "y+z": 0.25 * (3.0 + c2),
        "x-y": 0.5 * (1.0 + s2),
        "x-z": 0.25 * (3.0 - c2),
        "y-z": 0.25 * (3.0 + c2),
    }


def example3_instance(theta: float, phi: float = math.pi / 2):
    """Spin-1 real-amplitude scenario; returns (state, observables)."""
    theta = _check_range("theta", theta, 0.0, math.pi)
    phi = _check_range("phi", phi, 0.0, 2.0 * math.pi)
    amps = [
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    ]
    return pure_state(amps), SPIN1_OBSERVABLES


def example3_sum_oracle(theta: float, phi: float) -> float:
    """Closed form for I(L_x) + I(L_y) + I(L_z) in the example3 scenario."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return 2.0 - (ct**2 - st**2 * cp**2) ** 2 - 2.0 * st**2 * sp**2 * (ct + st * cp) ** 2


@dataclass(frozen=True)
class Scenario:
    name: str
    make: object
    default_phi: float | None
    theta_range: tuple

    @property
    def uses_phi(self) -> bool:
        return self.default_phi is not None


SCENARIOS = {
    "example1": Scenario("example1", example1_instance, math.pi / 4, (0.0, math.pi)),
    "example2": Scenario("example2", example2_instance, None, (0.0, 2.0 * math.pi)),
    "example3": Scenario("example3", example3_instance, math.pi / 2, (0.0, math.pi)),
}
DEFAULT_GRID_POINTS = 201
# a sweep holds every point's report in memory, about 5 KB each
MAX_GRID_POINTS = 100_000


def grid_points(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive grid start, start + step, ..., up to stop (within round-off),
    of at most ``MAX_GRID_POINTS`` points."""
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValueError(f"grid start, stop and step must be finite, got {start}:{stop}:{step}")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"stop {stop} below start {start}")
    # the step count, with slack for round-off; an overflow to inf fails the check
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise ValueError(
            f"grid {start}:{stop}:{step} has too many points (at most {MAX_GRID_POINTS})"
        )
    count = int(math.floor(steps)) + 1
    # accumulated round-off must not push the last point past stop
    return np.minimum(start + step * np.arange(count), stop)


@dataclass(frozen=True)
class SweepSpec:
    """A theta sweep of one scenario at a fixed phi (where applicable)."""

    scenario: str
    start: float
    stop: float
    step: float
    phi: float | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from {sorted(SCENARIOS)}"
            )
        scen = SCENARIOS[self.scenario]
        if self.phi is not None and not scen.uses_phi:
            raise ValueError(f"scenario {self.scenario} does not take phi")
        grid_points(self.start, self.stop, self.step)  # validates the grid

    @classmethod
    def default(cls, scenario: str, **overrides) -> "SweepSpec":
        scen = SCENARIOS[scenario]
        lo, hi = scen.theta_range
        spec = {
            "scenario": scenario,
            "start": lo,
            "stop": hi,
            "step": (hi - lo) / (DEFAULT_GRID_POINTS - 1),
            "phi": scen.default_phi,
        }
        spec.update(overrides)
        return cls(**spec)


def run_sweep(spec: SweepSpec):
    """Evaluate all bounds along the sweep grid, as one batch.

    Returns (columns, rows, violations): parameter columns first, then
    variance_sum and skew_sum, then one column per applicable bound in
    catalog order; ``violations`` lists ``(params, names)`` for every point
    where a bound exceeds its target, in grid order.
    """
    scen = SCENARIOS[spec.scenario]
    thetas = grid_points(spec.start, spec.stop, spec.step)
    phi = spec.phi if spec.phi is not None else scen.default_phi
    param_names = ["theta", "phi"] if scen.uses_phi else ["theta"]
    points = [[float(theta), float(phi)] if scen.uses_phi else [float(theta)] for theta in thetas]
    reports = evaluate_batch([scen.make(*params) for params in points])

    applicable = [b.name for b in reports[0].bounds if b.applicable]
    columns = param_names + ["variance_sum", "skew_sum"] + applicable
    rows = []
    violations = []
    for params, report in zip(points, reports):
        rows.append(params + [report.variance_sum, report.skew_sum]
                    + [b.value for b in report.bounds if b.applicable])
        if report.violations:
            violations.append((params, report.violations))
    return columns, rows, violations
