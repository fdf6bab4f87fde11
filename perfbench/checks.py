"""Output checks for benchmark ops, independent of the package's own code.

Each checker takes what a CLI op wrote and raises :class:`CheckError`
when it is wrong. The bound catalog, its applicability rules and the
reference quantities are restated here (reference values come from
``numpy.linalg.eigh``, not the package's Jacobi solver), so a bug in the
program cannot also hide itself from the check.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

# catalog order and family of every bound the CLI reports
FAMILY = {
    "theorem1": "variance",
    "song": "variance",
    "chen_variance": "variance",
    "mp_quadratic": "variance",
    "robertson": "product",
    "theorem2a": "skew",
    "theorem2b": "skew",
    "zhang": "skew",
    "chen_skew": "skew",
    "parallelogram_sum": "skew",
    "parallelogram_diff": "skew",
}
TOLERANCE = 1e-8
ORACLE_ATOL = 1e-9
REFERENCE_RTOL = 1e-9
EIG_ZERO = 1e-12
FUZZ_COLUMNS = ["dim", "n", "bound", "count", "min_slack", "max_slack", "violations"]


class CheckError(Exception):
    """An op's output is missing, malformed or numerically wrong."""


def applicable(name: str, n: int) -> bool:
    if name in ("mp_quadratic", "robertson"):
        return n == 2
    if name == "chen_skew":
        return n >= 3
    return True


def _finite(value: float, where: str) -> float:
    if not math.isfinite(value):
        raise CheckError(f"{where}: non-finite value {value!r}")
    return value


def _within_target(value: float, target: float, where: str):
    if value > target + TOLERANCE * max(1.0, target):
        raise CheckError(f"{where}: bound {value!r} exceeds its target {target!r}")


def _close(value: float, ref: float, atol: float, where: str):
    if not abs(value - ref) <= atol:
        raise CheckError(f"{where}: {value!r} differs from reference {ref!r}")


def _csv_rows(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise CheckError("empty CSV output")
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


def check_fuzz_csv(text: str, dims, ns, trials: int):
    """Summary CSV of ``skewsum fuzz``: one row per applicable (dim, n, bound),
    each over ``trials`` instances, with finite slacks and no violations."""
    header, rows = _csv_rows(text)
    if header != FUZZ_COLUMNS:
        raise CheckError(f"fuzz header {header}")
    expected = [(d, n, b) for d in dims for n in ns for b in FAMILY if applicable(b, n)]
    got = [(int(r[0]), int(r[1]), r[2]) for r in rows]
    if got != expected:
        raise CheckError(f"fuzz rows: expected {len(expected)} (dim, n, bound) keys, got {len(got)}")
    for row in rows:
        where = f"fuzz d={row[0]} n={row[1]} {row[2]}"
        if int(row[3]) != trials:
            raise CheckError(f"{where}: count {row[3]}, expected {trials}")
        _finite(float(row[4]), where + " min_slack")
        _finite(float(row[5]), where + " max_slack")
        if int(row[6]) != 0:
            raise CheckError(f"{where}: {row[6]} violations")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def example3_skew_sum(theta: float, phi: float) -> float:
    """I(L_x) + I(L_y) + I(L_z) for the spin-1 state of example3."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return 2.0 - (ct**2 - st**2 * cp**2) ** 2 - 2.0 * st**2 * sp**2 * (ct + st * cp) ** 2


def check_sweep_csv(text: str, scenario: str, phi, start: float, stop: float, points: int):
    """Sweep CSV of one built-in scenario (N = 3) over ``points`` thetas."""
    header, rows = _csv_rows(text)
    params = ["theta", "phi"] if phi is not None else ["theta"]
    bounds = [b for b in FAMILY if applicable(b, 3)]
    if header != params + ["variance_sum", "skew_sum"] + bounds:
        raise CheckError(f"sweep header {header}")
    if len(rows) != points:
        raise CheckError(f"sweep has {len(rows)} rows, expected {points}")
    last = -math.inf
    for k, row in enumerate(rows):
        where = f"{scenario} row {k}"
        if len(row) != len(header):
            raise CheckError(f"{where}: {len(row)} fields")
        vals = dict(zip(header, (_finite(float(x), where) for x in row)))
        theta = vals["theta"]
        if not (last < theta and start - 1e-12 <= theta <= stop + 1e-12):
            raise CheckError(f"{where}: theta {theta!r} out of order or range")
        last = theta
        if phi is not None:
            _close(vals["phi"], phi, 1e-15, where + " phi")
        for b in bounds:
            target = vals["variance_sum" if FAMILY[b] == "variance" else "skew_sum"]
            _within_target(vals[b], target, f"{where} {b}")
        skew = vals["skew_sum"]
        if scenario == "example1":
            ref = vals["variance_sum"]
        elif scenario == "example2":
            ref = 1.0
        else:
            ref = example3_skew_sum(theta, phi)
        _close(skew, ref, ORACLE_ATOL * max(1.0, abs(ref)), where + " skew_sum")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def reference_sums(rho: np.ndarray, observables):
    """(variance sum, skew-information sum) from ``numpy.linalg.eigh``."""
    w, u = np.linalg.eigh(rho)
    # eigenvalues at round-off level are exact zeros (pure states); their
    # square roots would otherwise add ~1e-8 noise to the skew information
    w = np.where(w < EIG_ZERO * max(w.max(), 1.0), 0.0, w)
    root = (u * np.sqrt(w)) @ u.conj().T
    var = skew = 0.0
    for a in observables:
        mean = np.trace(rho @ a).real
        var += np.trace(rho @ a @ a).real - mean * mean
        c = root @ a - a @ root
        skew += 0.5 * float(np.sum(np.abs(c) ** 2))
    return float(var), float(skew)


def reference_amplitudes(rho: np.ndarray, a: np.ndarray) -> np.ndarray:
    """|u_k - <A>| sqrt(<u_k|rho|u_k>) over ascending eigenpairs of A."""
    w, u = np.linalg.eigh(a)
    mean = np.trace(rho @ a).real
    probs = np.einsum("ik,ij,jk->k", u.conj(), rho, u).real
    return np.abs(w - mean) * np.sqrt(np.clip(probs, 0.0, None))


def theorem1_objective(avs, perms) -> float:
    """Theorem-1 objective for amplitude vectors permuted by ``perms``."""
    n = len(avs)
    vecs = [np.asarray(a)[list(p)] for a, p in zip(avs, perms)]
    squares = roots = 0.0
    for i, j in itertools.combinations(range(n), 2):
        squares += float(np.sum((vecs[i] + vecs[j]) ** 2))
        roots += math.sqrt(float(np.sum((vecs[i] - vecs[j]) ** 2)))
    return (squares + 2.0 / (n * (n - 1.0)) * roots * roots) / (2.0 * n - 2.0)


def check_evaluate_report(report: dict, rho: np.ndarray, observables, reference: tuple):
    """JSON report of ``skewsum evaluate`` against an eigh reference.

    ``reference`` is :func:`reference_sums` of the same instance.
    """
    n, d = len(observables), rho.shape[0]
    var_ref, skew_ref = reference
    variance_sum = _finite(float(report["variance_sum"]), "variance_sum")
    skew_sum = _finite(float(report["skew_sum"]), "skew_sum")
    _close(variance_sum, var_ref, REFERENCE_RTOL * abs(var_ref), "variance_sum")
    _close(skew_sum, skew_ref, REFERENCE_RTOL * abs(skew_ref), "skew_sum")
    if report["violations"]:
        raise CheckError(f"violations reported: {report['violations']}")

    bounds = {b["name"]: b for b in report["bounds"]}
    if list(bounds) != list(FAMILY):
        raise CheckError(f"bounds {list(bounds)}")
    for name, b in bounds.items():
        if bool(b["applicable"]) != applicable(name, n):
            raise CheckError(f"{name}: applicable={b['applicable']} at n={n}")
        if not b["applicable"]:
            continue
        value = _finite(float(b["value"]), name)
        family = FAMILY[name]
        if family == "variance":
            _within_target(value, variance_sum, name)
        elif family == "skew":
            _within_target(value, skew_sum, name)

    t1 = bounds["theorem1"]
    detail = t1.get("detail")
    perms = detail.get("permutations") if isinstance(detail, dict) else None
    ident = list(range(d))
    if (
        not isinstance(perms, list)
        or len(perms) != n
        or perms[0] != ident
        or any(sorted(p) != ident for p in perms)
    ):
        raise CheckError(f"theorem1: invalid permutation detail {detail!r}")
    avs = [reference_amplitudes(rho, a) for a in observables]
    attained = theorem1_objective(avs, perms)
    value = float(t1["value"])
    _close(value, attained, REFERENCE_RTOL * max(1.0, abs(attained)), "theorem1 at its permutations")
