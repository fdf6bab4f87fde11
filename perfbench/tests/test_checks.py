import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, workloads
from perfbench.checks import CheckError
from skewsum import cli

ROOT = Path(__file__).resolve().parents[2]


def read_csv(path):
    return list(csv.reader(io.StringIO(path.read_text())))


def write_csv(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "fuzz.csv"
    assert cli.main(["fuzz", "--dims", "2,3", "--ns", "2,3", "--trials", "2", "--seed", "3",
                     "--output", str(out)]) == 0
    return read_csv(out)


def check_fuzz(rows):
    checks.check_fuzz_csv(write_csv(rows), (2, 3), (2, 3), 2)


def test_fuzz_output_passes(fuzz_rows):
    check_fuzz(fuzz_rows)


def test_fuzz_rejects_nan_slack(fuzz_rows):
    rows = [list(r) for r in fuzz_rows]
    rows[3][4] = "nan"
    with pytest.raises(CheckError, match="non-finite"):
        check_fuzz(rows)


def test_fuzz_rejects_wrong_row_count(fuzz_rows):
    with pytest.raises(CheckError, match="rows"):
        check_fuzz(fuzz_rows[:-1])


def test_fuzz_rejects_violation_and_count(fuzz_rows):
    rows = [list(r) for r in fuzz_rows]
    rows[1][6] = "1"
    with pytest.raises(CheckError, match="violations"):
        check_fuzz(rows)
    rows = [list(r) for r in fuzz_rows]
    rows[1][3] = "1"
    with pytest.raises(CheckError, match="count"):
        check_fuzz(rows)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

PHI = 1.234
POINTS = 11


@pytest.fixture(scope="module", params=["example1", "example2", "example3"])
def sweep(request, tmp_path_factory):
    scenario = request.param
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    start, stop = (0.5, 0.5 + 2 * math.pi) if scenario == "example2" else (0.0, math.pi)
    argv = ["sweep", "--scenario", scenario, "--output", str(out),
            "--theta-grid", f"{start!r}:{stop!r}:{(stop - start) / (POINTS - 1)!r}"]
    phi = None if scenario == "example2" else PHI
    if phi is not None:
        argv += ["--phi", repr(phi)]
    assert cli.main(argv) == 0
    expect = {"scenario": scenario, "phi": phi, "start": start, "stop": stop, "points": POINTS}
    return read_csv(out), expect


def test_sweep_output_passes(sweep):
    rows, expect = sweep
    checks.check_sweep_csv(write_csv(rows), **expect)


def test_sweep_rejects_wrong_row_count(sweep):
    rows, expect = sweep
    with pytest.raises(CheckError, match="rows"):
        checks.check_sweep_csv(write_csv(rows[:-1]), **expect)


def test_sweep_rejects_bound_above_target(sweep):
    rows, expect = sweep
    rows = [list(r) for r in rows]
    header = rows[0]
    target = float(rows[4][header.index("variance_sum")])
    rows[4][header.index("song")] = repr(target + 1e-6 * max(1.0, target))
    with pytest.raises(CheckError, match="exceeds"):
        checks.check_sweep_csv(write_csv(rows), **expect)


def test_sweep_rejects_nan_and_oracle_mismatch(sweep):
    rows, expect = sweep
    bad = [list(r) for r in rows]
    bad[2][bad[0].index("zhang")] = "nan"
    with pytest.raises(CheckError, match="non-finite"):
        checks.check_sweep_csv(write_csv(bad), **expect)
    bad = [list(r) for r in rows]
    col = bad[0].index("skew_sum")
    bad[2][col] = repr(float(bad[2][col]) + 1e-7)
    with pytest.raises(CheckError, match="skew_sum"):
        checks.check_sweep_csv(write_csv(bad), **expect)


def test_example3_oracle_matches_package():
    from skewsum.scenarios import example3_sum_oracle

    for theta, phi in ((0.3, 1.1), (2.0, 4.0)):
        assert checks.example3_skew_sum(theta, phi) == pytest.approx(
            example3_sum_oracle(theta, phi), abs=1e-15
        )


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("evaluate")
    wl = workloads.Theorem1Wide(seed=4, tmp=str(tmp))
    op = wl.op(1)
    assert cli.main(op.argv) == 0
    rho, obs, ref = wl.reference(op.expect["problem"])
    return json.loads(Path(op.output).read_text()), rho, obs, ref


def test_evaluate_output_passes(evaluated):
    checks.check_evaluate_report(*evaluated)


def test_evaluate_rejects_wrong_sums(evaluated):
    report, rho, obs, ref = evaluated
    for key in ("variance_sum", "skew_sum"):
        bad = dict(report, **{key: report[key] * (1 + 1e-7)})
        with pytest.raises(CheckError, match=key):
            checks.check_evaluate_report(bad, rho, obs, ref)


def test_evaluate_rejects_theorem1_above_variance_sum(evaluated):
    report, rho, obs, ref = evaluated
    bad = json.loads(json.dumps(report))
    bad["bounds"][0]["value"] = report["variance_sum"] * 1.01
    with pytest.raises(CheckError, match="exceeds"):
        checks.check_evaluate_report(bad, rho, obs, ref)


def test_evaluate_rejects_bad_permutations(evaluated):
    report, rho, obs, ref = evaluated
    perms = report["bounds"][0]["detail"]["permutations"]
    swapped = [list(p) for p in perms]
    swapped[1][0], swapped[1][1] = swapped[1][1], swapped[1][0]
    for bad_perms in (perms[1:], [[1, 0, *perms[0][2:]]] + perms[1:], swapped):
        bad = json.loads(json.dumps(report))
        bad["bounds"][0]["detail"] = {"permutations": bad_perms}
        with pytest.raises(CheckError, match="theorem1"):
            checks.check_evaluate_report(bad, rho, obs, ref)


def test_reference_sums_of_a_pure_state():
    psi = np.array([0.6, 0.8j])
    rho = np.outer(psi, psi.conj())
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    var, skew = checks.reference_sums(rho, [sx, sz])
    # on a pure state skew information equals variance
    assert var == pytest.approx(1.0 + (1.0 - 0.28**2), abs=1e-14)
    assert skew == pytest.approx(var, abs=1e-14)


# ---------------------------------------------------------------------------
# workloads and the command line
# ---------------------------------------------------------------------------


def op_inputs(workload, tmp, i):
    """An op's argv with the scratch directory masked, plus its input files."""
    argv = workload.op(i).argv
    files = [Path(x).read_text() for x in argv if x.startswith(str(tmp)) and Path(x).is_file()]
    return [x.replace(str(tmp), "TMP") for x in argv], files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ops_depend_only_on_seed_and_index(name, tmp_path):
    dirs = [tmp_path / sub for sub in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, c = (workloads.WORKLOADS[name](seed, str(d)) for seed, d in zip((1, 1, 2), dirs))
    for i in range(6):
        assert op_inputs(a, dirs[0], i) == op_inputs(b, dirs[1], i)
        assert op_inputs(a, dirs[0], i) != op_inputs(c, dirs[2], i)


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
