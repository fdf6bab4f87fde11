"""Command line interface.

Subcommands:

* ``evaluate``: read a (state, observables) problem from JSON, write the
  full bound report as JSON or a one-row CSV.
* ``sweep``: run a built-in scenario over a theta grid, write a CSV table.
* ``fuzz``: random instances over dimension/count cells, write a CSV
  summary of slacks; violations also land in a JSON reproducer file.

Exit codes: 0 success, 1 bad input or usage, 2 at least one bound
violation was detected (the report is still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .bounds import (
    CATALOG,
    DEFAULT_BUDGET,
    DEFAULT_TOLERANCE,
    BoundReport,
    BudgetExceededError,
    ObservableSet,
    evaluate_all,
)
from .linalg import LinalgError
from .rng import derive_seed
from .scenarios import SCENARIOS, SweepSpec, run_sweep
from .states import (
    DensityMatrix,
    from_bloch,
    pure_state,
    random_mixed,
    random_observable,
    random_pure,
)

STATE_KINDS = ("density", "pure", "bloch")


class CliInputError(Exception):
    """Bad input file or command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_csv(path: str, columns, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _parse_scalar(x, where: str) -> complex:
    if isinstance(x, bool):
        raise CliInputError(f"{where}: expected number or [re, im], got {x!r}")
    if isinstance(x, (int, float)):
        return complex(float(x), 0.0)
    if (
        isinstance(x, list)
        and len(x) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x)
    ):
        return complex(float(x[0]), float(x[1]))
    raise CliInputError(f"{where}: expected number or [re, im], got {x!r}")


def _parse_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise CliInputError(f"{where}: expected a non-empty list of rows")
    d = len(rows)
    out = np.zeros((d, d), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise CliInputError(f"{where}[{i}]: expected a row of {d} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_scalar(entry, f"{where}[{i}][{j}]")
    return out


def _parse_state(obj) -> DensityMatrix:
    if not isinstance(obj, dict):
        raise CliInputError("state: expected an object")
    kind = obj.get("kind")
    if kind not in STATE_KINDS:
        raise CliInputError(f"state.kind: expected one of {'|'.join(STATE_KINDS)}, got {kind!r}")
    try:
        if kind == "density":
            if "matrix" not in obj:
                raise CliInputError("state.matrix: missing")
            return DensityMatrix(_parse_matrix(obj["matrix"], "state.matrix"))
        if kind == "pure":
            amps = obj.get("amplitudes")
            if not isinstance(amps, list) or not amps:
                raise CliInputError("state.amplitudes: expected a non-empty list")
            vec = [_parse_scalar(a, f"state.amplitudes[{i}]") for i, a in enumerate(amps)]
            return pure_state(vec)
        r = obj.get("r")
        if not isinstance(r, list) or len(r) != 3:
            raise CliInputError("state.r: expected [rx, ry, rz]")
        comps = []
        for i, c in enumerate(r):
            if not isinstance(c, (int, float)) or isinstance(c, bool):
                raise CliInputError(f"state.r[{i}]: expected a real number")
            comps.append(float(c))
        return from_bloch(comps)
    except (LinalgError, ValueError) as exc:
        raise CliInputError(f"state: {exc}") from exc


def _parse_problem(data):
    if not isinstance(data, dict):
        raise CliInputError("input root: expected a JSON object")
    if "state" not in data:
        raise CliInputError("state: missing")
    state = _parse_state(data["state"])
    obs_raw = data.get("observables")
    if not isinstance(obs_raw, list) or len(obs_raw) < 2:
        raise CliInputError("observables: expected a list of at least two matrices")
    mats = [_parse_matrix(o, f"observables[{i}]") for i, o in enumerate(obs_raw)]
    try:
        obs = ObservableSet(mats)
    except (LinalgError, ValueError) as exc:
        raise CliInputError(f"observables: {exc}") from exc
    if obs.dim != state.dim:
        raise CliInputError(
            f"observables: dimension {obs.dim} does not match state dimension {state.dim}"
        )
    return state, obs


def _number_field(data, key, default, where):
    val = data.get(key, None)
    if val is None:
        return default
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise CliInputError(f"{where}: expected a number, got {val!r}")
    return val


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

_EVAL_CSV_COLUMNS = ["variance_sum", "skew_sum", *CATALOG, "violations", "tightest_variance", "tightest_skew"]


def _report_csv_row(report: BoundReport):
    row = [report.variance_sum, report.skew_sum]
    for name in CATALOG:
        b = report.bound(name)
        row.append(b.value if b.applicable else "")
    row.append(";".join(report.violations))
    row.append(report.tightest_variance or "")
    row.append(report.tightest_skew or "")
    return row


def cmd_evaluate(args) -> int:
    try:
        with open(args.input) as f:
            data = json.load(f)
    except OSError as exc:
        raise CliInputError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{args.input}: invalid JSON: {exc}") from exc

    state, obs = _parse_problem(data)
    budget = args.budget if args.budget is not None else int(
        _number_field(data, "budget", DEFAULT_BUDGET, "budget")
    )
    tolerance = args.tolerance if args.tolerance is not None else float(
        _number_field(data, "tolerance", DEFAULT_TOLERANCE, "tolerance")
    )
    try:
        report = evaluate_all(
            state,
            obs,
            budget=budget,
            tolerance=tolerance,
            metadata={"dim": state.dim, "n": obs.n},
        )
    except (LinalgError, ValueError) as exc:
        raise CliInputError(str(exc)) from exc

    if args.format == "csv":
        if args.output is None:
            raise CliInputError("--output is required with --format csv")
        _write_csv(args.output, _EVAL_CSV_COLUMNS, [_report_csv_row(report)])
    else:
        text = json.dumps(report.to_dict(), indent=2) + "\n"
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w") as f:
                f.write(text)
    return 2 if report.violations else 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise CliInputError(f"--theta-grid: expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise CliInputError(f"--theta-grid: {exc}") from exc
    return start, stop, step


def cmd_sweep(args) -> int:
    overrides = {}
    if args.theta_grid is not None:
        start, stop, step = _parse_grid(args.theta_grid)
        overrides.update(start=start, stop=stop, step=step)
    if args.phi is not None:
        overrides["phi"] = args.phi
    if args.budget is not None:
        overrides["budget"] = args.budget
    if args.tolerance is not None:
        overrides["tolerance"] = args.tolerance
    try:
        spec = SweepSpec.default(args.scenario, **overrides)
        columns, rows = run_sweep(spec)
    except (LinalgError, ValueError) as exc:
        raise CliInputError(str(exc)) from exc
    _write_csv(args.output, columns, rows)
    return 0


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


def _matrix_json(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _parse_int_list(text: str, flag: str):
    try:
        vals = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise CliInputError(f"{flag}: expected comma-separated integers, got {text!r}") from exc
    if not vals or any(v < 1 for v in vals):
        raise CliInputError(f"{flag}: expected positive integers, got {text!r}")
    return vals


def fuzz_instance(seed: int, dim: int, n: int, trial: int):
    """Deterministic random instance for a fuzz cell.

    Even trials draw a pure state, odd trials a full-rank mixed one; the
    observables are independent GUE-style draws. Everything derives from
    (seed, dim, n, trial) alone.
    """
    state_seed = derive_seed(seed, dim, n, trial, 0)
    if trial % 2 == 0:
        state = random_pure(dim, state_seed)
        kind = "pure"
    else:
        state = random_mixed(dim, state_seed)
        kind = "mixed"
    obs = ObservableSet(
        [random_observable(dim, derive_seed(seed, dim, n, trial, 1 + k)) for k in range(n)]
    )
    return state, obs, kind


_FUZZ_COLUMNS = ["dim", "n", "bound", "count", "min_slack", "max_slack", "violations"]


def cmd_fuzz(args) -> int:
    dims = _parse_int_list(args.dims, "--dims")
    ns = _parse_int_list(args.ns, "--ns")
    if min(ns) < 2:
        raise CliInputError("--ns: bound evaluation needs at least two observables")
    if args.trials < 0:
        raise CliInputError(f"--trials: expected a non-negative integer, got {args.trials}")

    budget = args.budget if args.budget is not None else DEFAULT_BUDGET
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE

    stats = {}
    reproducers = []
    for dim in dims:
        for n in ns:
            for trial in range(args.trials):
                state, obs, kind = fuzz_instance(args.seed, dim, n, trial)
                report = evaluate_all(state, obs, budget=budget, tolerance=tolerance)
                for b in report.bounds:
                    if not b.applicable:
                        continue
                    target = report.target_for(b)
                    slack = target - b.value
                    key = (dim, n, b.name)
                    entry = stats.setdefault(key, [0, math.inf, -math.inf, 0])
                    entry[0] += 1
                    entry[1] = min(entry[1], slack)
                    entry[2] = max(entry[2], slack)
                    if b.name in report.violations:
                        entry[3] += 1
                if report.violations:
                    reproducers.append(
                        {
                            "dim": dim,
                            "n": n,
                            "trial": trial,
                            "seed": args.seed,
                            "state_kind": kind,
                            "state_matrix": _matrix_json(state.mat),
                            "observables": [_matrix_json(a.mat) for a in obs],
                            "violations": list(report.violations),
                        }
                    )

    rows = [
        [dim, n, name, *entry]
        for (dim, n, name), entry in sorted(
            stats.items(), key=lambda kv: (kv[0][0], kv[0][1], CATALOG.index(kv[0][2]))
        )
    ]
    _write_csv(args.output, _FUZZ_COLUMNS, rows)
    if reproducers:
        with open(args.output + ".violations.json", "w") as f:
            json.dump(reproducers, f, indent=2)
            f.write("\n")
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="skewsum", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate all bounds for a problem file")
    p_eval.add_argument("--input", required=True, help="JSON problem file")
    p_eval.add_argument("--output", help="output path (default: stdout for JSON)")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--budget", type=int, help="permutation tuple budget")
    p_eval.add_argument("--tolerance", type=float, help="violation tolerance")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="sweep a built-in scenario over theta")
    p_sweep.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p_sweep.add_argument("--output", required=True, help="CSV output path")
    p_sweep.add_argument("--theta-grid", help="start:stop:step (inclusive)")
    p_sweep.add_argument("--phi", type=float, help="fixed phi where the scenario takes one")
    p_sweep.add_argument("--budget", type=int)
    p_sweep.add_argument("--tolerance", type=float)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fuzz = sub.add_parser("fuzz", help="random-instance validity fuzzing")
    p_fuzz.add_argument("--trials", type=int, default=100, help="trials per (dim, n) cell")
    p_fuzz.add_argument("--dims", default="2,3,4", help="comma-separated dimensions")
    p_fuzz.add_argument("--ns", default="2,3,4", help="comma-separated observable counts")
    p_fuzz.add_argument("--seed", type=int, default=1)
    p_fuzz.add_argument("--output", required=True, help="CSV summary path")
    p_fuzz.add_argument("--budget", type=int)
    p_fuzz.add_argument("--tolerance", type=float)
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc} (raise --budget or shrink the problem)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
