import dataclasses
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from skewsum import bounds, cli
from skewsum.bounds import BoundReport, BoundValue, ObservableSet
from skewsum.linalg import EigenConvergenceError
from skewsum.scenarios import SweepSpec, run_sweep
from skewsum.states import pure_state

PAULI_PROBLEM = {
    "state": {"kind": "pure", "amplitudes": [1, 0]},
    "observables": [
        [[0, 1], [1, 0]],
        [[0, [0, -1]], [[0, 1], 0]],
        [[1, 0], [0, -1]],
    ],
}


# entries near 1e200 overflow the second moments of this instance
OVERFLOWING = (
    pure_state([1, 1]),
    [np.array([[1e200, 2e200], [2e200, -1e200]]), np.array([[0, -3e200j], [3e200j, 0]])],
)


def _write_problem(tmp_path, data, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestEvaluate:
    def test_reference_problem(self, tmp_path, capsys):
        path = _write_problem(tmp_path, PAULI_PROBLEM)
        rc = cli.main(["evaluate", "--input", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["variance_sum"] == pytest.approx(2.0, abs=1e-12)
        assert out["skew_sum"] == pytest.approx(2.0, abs=1e-12)
        assert out["violations"] == []
        assert len(out["bounds"]) == 11

    def test_json_output_file_round_trips(self, tmp_path):
        path = _write_problem(tmp_path, PAULI_PROBLEM)
        out_path = tmp_path / "report.json"
        rc = cli.main(["evaluate", "--input", path, "--output", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        report = BoundReport.from_dict(data)
        assert report.to_dict() == data

    def test_csv_output(self, tmp_path):
        path = _write_problem(tmp_path, PAULI_PROBLEM)
        out_path = tmp_path / "report.csv"
        rc = cli.main(["evaluate", "--input", path, "--format", "csv", "--output", str(out_path)])
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["variance_sum", "skew_sum", "theorem1", "song"]
        row = lines[1].split(",")
        assert float(row[0]) == pytest.approx(2.0)
        # robertson and mp_quadratic do not apply at N = 3: empty cells
        header = lines[0].split(",")
        assert row[header.index("mp_quadratic")] == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, fmt):
        path = _write_problem(tmp_path, PAULI_PROBLEM)
        out = tmp_path / "missing" / "report.out"
        rc = cli.main(["evaluate", "--input", path, "--format", fmt, "--output", str(out)])
        assert rc == 1
        assert f"error: cannot write {out}" in capsys.readouterr().err

    def test_density_and_bloch_state_kinds(self, tmp_path):
        for state in (
            {"kind": "density", "matrix": [[0.5, 0], [0, 0.5]]},
            {"kind": "bloch", "r": [0, 0, 0]},
        ):
            data = dict(PAULI_PROBLEM, state=state)
            rc = cli.main(["evaluate", "--input", _write_problem(tmp_path, data)])
            assert rc == 0

    def test_missing_file(self, capsys):
        assert cli.main(["evaluate", "--input", "/does/not/exist.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for content in (b"{not json", b"\xff\xfe{}"):  # the second is not UTF-8
            path.write_bytes(content)
            assert cli.main(["evaluate", "--input", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: invalid JSON: ")
            assert err.count("\n") == 1

    def test_error_messages_name_the_field(self, tmp_path, capsys):
        bad_entry = dict(PAULI_PROBLEM, observables=[[[0, 1], [1, 0]], [[0, [1, 2, 3]], [0, 0]]])
        assert cli.main(["evaluate", "--input", _write_problem(tmp_path, bad_entry)]) == 1
        assert "observables[1][0][1]" in capsys.readouterr().err

        missing_state = {"observables": PAULI_PROBLEM["observables"]}
        assert cli.main(["evaluate", "--input", _write_problem(tmp_path, missing_state)]) == 1
        assert "state" in capsys.readouterr().err

        bad_kind = dict(PAULI_PROBLEM, state={"kind": "vibes"})
        assert cli.main(["evaluate", "--input", _write_problem(tmp_path, bad_kind)]) == 1
        assert "state.kind" in capsys.readouterr().err

        # integers too large for a float used to raise OverflowError
        huge = 10**400
        for field, data in [
            ("observables[0][0][1]", dict(PAULI_PROBLEM, observables=[[[0, huge], [huge, 0]]] * 2)),
            ("state.amplitudes[1]", dict(PAULI_PROBLEM, state={"kind": "pure",
                                                               "amplitudes": [1, [0, huge]]})),
            ("state.r[2]", dict(PAULI_PROBLEM, state={"kind": "bloch", "r": [0, 0, huge]})),
        ]:
            assert cli.main(["evaluate", "--input", _write_problem(tmp_path, data)]) == 1
            assert capsys.readouterr().err == (
                f"error: {field}: expected a finite number, got an integer too large for a float\n"
            )

    def test_non_hermitian_observable(self, tmp_path, capsys):
        data = dict(PAULI_PROBLEM, observables=[[[0, 1], [0, 0]], [[1, 0], [0, 1]]])
        assert cli.main(["evaluate", "--input", _write_problem(tmp_path, data)]) == 1
        assert "observables" in capsys.readouterr().err

    def test_invalid_density_matrix(self, tmp_path, capsys):
        data = dict(PAULI_PROBLEM, state={"kind": "density", "matrix": [[0.6, 0], [0, 0.5]]})
        assert cli.main(["evaluate", "--input", _write_problem(tmp_path, data)]) == 1
        assert "state" in capsys.readouterr().err

    def test_dimension_mismatch(self, tmp_path, capsys):
        data = dict(PAULI_PROBLEM, state={"kind": "pure", "amplitudes": [1, 0, 0]})
        assert cli.main(["evaluate", "--input", _write_problem(tmp_path, data)]) == 1
        assert "dimension" in capsys.readouterr().err

    def test_too_few_observables(self, tmp_path, capsys):
        data = dict(PAULI_PROBLEM, observables=[[[0, 1], [1, 0]]])
        assert cli.main(["evaluate", "--input", _write_problem(tmp_path, data)]) == 1
        assert "observables" in capsys.readouterr().err

    def test_budget_exhaustion_is_input_error(self, tmp_path, capsys):
        dim = 4
        rng = np.random.default_rng(5)
        obs = []
        for _ in range(4):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (g + g.conj().T) / 2
            obs.append([[ [z.real, z.imag] for z in row] for row in h])
        data = {
            "state": {"kind": "pure", "amplitudes": [1, 0, 0, 0]},
            "observables": obs,
        }
        rc = cli.main(["evaluate", "--input", _write_problem(tmp_path, data), "--budget", "10"])
        assert rc == 1
        assert "budget" in capsys.readouterr().err

    def test_overflowing_observables_are_an_error(self, tmp_path, capsys):
        data = dict(
            PAULI_PROBLEM,
            state={"kind": "pure", "amplitudes": [1, 1]},
            observables=[
                [[1e200, 2e200], [2e200, -1e200]],
                [[0, [0, -3e200]], [[0, 3e200], 0]],
            ],
        )
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warnings either
            rc = cli.main(["evaluate", "--input", _write_problem(tmp_path, data),
                           "--output", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: non-finite") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "json"])
    def test_nan_tolerance_is_input_error(self, tmp_path, capsys, source):
        # a NaN tolerance used to disable the violation check and exit 0; a
        # negative one flagged every bound
        for tolerance in (math.nan, -1.0, 10**400):
            if source == "flag":
                argv = ["--input", _write_problem(tmp_path, PAULI_PROBLEM),
                        "--tolerance", str(tolerance)]
            else:
                data = dict(PAULI_PROBLEM, tolerance=tolerance)
                argv = ["--input", _write_problem(tmp_path, data)]
            assert cli.main(["evaluate", *argv]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "tolerance" in err

    @pytest.mark.parametrize("budget", ["1e400", "NaN", "-Infinity"])
    def test_non_finite_json_budget_is_input_error(self, tmp_path, capsys, budget):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(PAULI_PROBLEM)[:-1] + f', "budget": {budget}}}')
        assert cli.main(["evaluate", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: budget: expected a finite number")

    def test_fractional_json_budget_is_input_error(self, tmp_path, capsys):
        # int() used to truncate 3.9 to 3 and report "budget is 3"
        data = dict(PAULI_PROBLEM, budget=3.9)
        assert cli.main(["evaluate", "--input", _write_problem(tmp_path, data)]) == 1
        assert capsys.readouterr().err == "error: budget: expected an integer, got 3.9\n"

    @pytest.mark.parametrize("budget", [1e6, 4.0])
    def test_integral_float_json_budget_is_accepted(self, tmp_path, capsys, budget):
        # the three-Pauli problem scans exactly 4 tuples
        data = dict(PAULI_PROBLEM, budget=budget)
        assert cli.main(["evaluate", "--input", _write_problem(tmp_path, data)]) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == []

    @pytest.mark.parametrize(
        "exc",
        [
            EigenConvergenceError(1e-3, 100),
            ValueError("variance -1.0 is negative beyond round-off"),
        ],
    )
    def test_evaluation_errors_exit_1(self, tmp_path, monkeypatch, capsys, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "evaluate_all", fail)
        rc = cli.main(["evaluate", "--input", _write_problem(tmp_path, PAULI_PROBLEM)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        fake = BoundReport(
            variance_sum=1.0,
            skew_sum=1.0,
            bounds=(BoundValue("song", 99.0),),
            violations=("song",),
            tightest_variance="song",
            tightest_skew=None,
        )
        monkeypatch.setattr(cli, "evaluate_all", lambda *a, **k: fake)
        out_path = tmp_path / "r.json"
        rc = cli.main([
            "evaluate",
            "--input",
            _write_problem(tmp_path, PAULI_PROBLEM),
            "--output",
            str(out_path),
        ])
        assert rc == 2
        assert json.loads(out_path.read_text())["violations"] == ["song"]


class TestSweep:
    def test_example2_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main([
            "sweep",
            "--scenario",
            "example2",
            "--theta-grid",
            f"0:{2 * math.pi}:{math.pi / 4}",
            "--output",
            str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "theta"
        assert {"theorem2a", "theorem2b", "zhang"} <= set(header)
        assert len(lines) == 1 + 9

    def test_example1_sweep_has_phi_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main([
            "sweep",
            "--scenario",
            "example1",
            "--theta-grid",
            f"0:{math.pi}:{math.pi / 5}",
            "--phi",
            "0.5",
            "--output",
            str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["theta", "phi"]
        first = lines[1].split(",")
        assert float(first[1]) == 0.5

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "sweep.csv"
        rc = cli.main(["sweep", "--scenario", "example2", "--theta-grid", "0:1:0.5", "--output", str(out)])
        assert rc == 1
        assert f"error: cannot write {out}" in capsys.readouterr().err

    def test_phi_rejected_for_example2(self, tmp_path, capsys):
        rc = cli.main([
            "sweep",
            "--scenario",
            "example2",
            "--phi",
            "0.5",
            "--output",
            str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "phi" in capsys.readouterr().err

    def test_bad_grid(self, tmp_path, capsys):
        rc = cli.main([
            "sweep",
            "--scenario",
            "example1",
            "--theta-grid",
            "0:1",
            "--output",
            str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "theta-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:inf:1", "0:1:nan", "0:1e300:1e-300", "0:1:1e-15"])
    def test_non_finite_or_overflowing_grid(self, tmp_path, capsys, grid):
        rc = cli.main(["sweep", "--scenario", "example1", "--theta-grid", grid,
                       "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: grid ")

    @pytest.mark.parametrize(
        "flag", [["--budget", "10"], ["--tolerance", "-1"]], ids=["budget", "tolerance"]
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, flag):
        # a sweep needs at most 36 tuples, and its violation check uses the
        # library's tolerance: neither flag ever changed a correct result
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--scenario", "example2", *flag, "--output", str(out)])
        assert rc == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_violation_exit_code_keeps_the_table(self, tmp_path, monkeypatch, capsys):
        spec = SweepSpec.default("example1", step=math.pi / 4)
        argv = ["sweep", "--scenario", "example1", "--theta-grid", f"0:{math.pi}:{math.pi / 4}"]

        formula = next(b.formula for b in bounds.BOUNDS if b.name == "zhang")

        def inflated(q):
            value, detail = formula(q)
            return 2.0 * value + 1.0, detail

        table = [dataclasses.replace(b, formula=inflated) if b.name == "zhang" else b
                 for b in bounds.BOUNDS]
        monkeypatch.setattr(bounds, "BOUNDS", tuple(table))
        out = tmp_path / "sweep.csv"
        assert cli.main(argv + ["--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "violation at theta=0, phi=0.78539816339744828: zhang (5 of 5 points)\n"
        )
        # the same bytes as the table itself, written before the exit code is chosen
        columns, rows, violations = run_sweep(spec)
        assert [names for _, names in violations] == [("zhang",)] * 5
        expected = tmp_path / "expected.csv"
        cli._write_csv(str(expected), columns, rows)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "exc",
        [
            EigenConvergenceError(1e-3, 100),
            ValueError("variance -1.0 is negative beyond round-off"),
        ],
    )
    def test_evaluation_errors_exit_1(self, tmp_path, monkeypatch, capsys, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_sweep", fail)
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--scenario", "example2", "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {exc}\n"
        assert not out.exists()

    def test_unknown_scenario(self, tmp_path):
        rc = cli.main([
            "sweep",
            "--scenario",
            "example9",
            "--output",
            str(tmp_path / "x.csv"),
        ])
        assert rc == 1

    def test_deterministic_output_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--scenario", "example3", "--theta-grid", f"0:{math.pi}:0.5"]
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFuzz:
    def test_small_fuzz_clean(self, tmp_path):
        out = tmp_path / "fuzz.csv"
        rc = cli.main([
            "fuzz",
            "--trials",
            "4",
            "--dims",
            "2,3",
            "--ns",
            "2,3",
            "--seed",
            "11",
            "--output",
            str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "dim,n,bound,count,min_slack,max_slack,violations"
        assert len(lines) > 1
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[3] == "4"
            assert float(cells[4]) > -1e-8
            assert cells[6] == "0"
        assert not (tmp_path / "fuzz.csv.violations.json").exists()

    def test_clean_run_removes_a_stale_reproducer(self, tmp_path):
        out = tmp_path / "fuzz.csv"
        stale = tmp_path / "fuzz.csv.violations.json"
        stale.write_text("[]\n")
        rc = cli.main(["fuzz", "--trials", "2", "--dims", "2", "--ns", "2", "--output", str(out)])
        assert rc == 0
        assert not stale.exists()

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "fuzz.csv"
        rc = cli.main(["fuzz", "--trials", "1", "--dims", "2", "--ns", "2", "--output", str(out)])
        assert rc == 1
        assert f"error: cannot write {out}" in capsys.readouterr().err

    @pytest.fixture
    def evaluations(self, monkeypatch):
        count = [0]
        evaluate_all = cli.evaluate_all

        def counting(*args, **kwargs):
            count[0] += 1
            return evaluate_all(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_all", counting)
        return count

    def test_unwritable_output_fails_before_any_trial(self, tmp_path, capsys, evaluations):
        out = tmp_path / "missing" / "x.csv"
        rc = cli.main(["fuzz", "--trials", "30", "--output", str(out)])
        assert rc == 1
        assert f"error: cannot write {out}" in capsys.readouterr().err
        assert evaluations[0] == 0

    def test_budget_of_every_cell_checked_before_any_trial(self, tmp_path, capsys, evaluations):
        # the (6, 3) cell needs 6!^2 = 518400 tuples; (2, 2) .. (2, 3) would fit
        out = tmp_path / "f.csv"
        rc = cli.main(["fuzz", "--dims", "2,6", "--ns", "2,3", "--trials", "20",
                       "--budget", "1000", "--output", str(out)])
        assert rc == 1
        assert "needs 518400 tuples, budget is 1000" in capsys.readouterr().err
        assert evaluations[0] == 0
        assert not out.exists()

    def test_budget_too_long_to_print_is_input_error(self, tmp_path, capsys, evaluations):
        out = tmp_path / "f.csv"
        rc = cli.main(["fuzz", "--dims", "2000", "--ns", "2", "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget" in err
        assert "Traceback" not in err
        assert evaluations[0] == 0
        assert not out.exists()

    def test_zero_trials_writes_header_only(self, tmp_path):
        out = tmp_path / "fuzz.csv"
        rc = cli.main(["fuzz", "--trials", "0", "--output", str(out)])
        assert rc == 0
        assert out.read_text() == "dim,n,bound,count,min_slack,max_slack,violations\n"

    def test_deterministic_output_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["fuzz", "--trials", "3", "--dims", "2", "--ns", "2,3", "--seed", "3"]
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nan_tolerance_rejected_before_any_trial(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        for tolerance in ("nan", "-1"):
            rc = cli.main(["fuzz", "--trials", "0", "--tolerance", tolerance,
                           "--output", str(out)])
            assert rc == 1
            assert "--tolerance" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_dims(self, tmp_path, capsys):
        # a repeated value would count its cell's instances twice
        for dims in ("2,x", "2,2"):
            rc = cli.main(["fuzz", "--trials", "3", "--dims", dims,
                           "--output", str(tmp_path / "f.csv")])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error: --dims: ")

    def test_ns_below_two_rejected(self, tmp_path, capsys):
        for ns in ("1,2", "2,2"):
            rc = cli.main(["fuzz", "--trials", "3", "--ns", ns,
                           "--output", str(tmp_path / "f.csv")])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error: --ns: ")

    def test_violation_reproducer(self, tmp_path, monkeypatch):
        fake = BoundReport(
            variance_sum=1.0,
            skew_sum=1.0,
            bounds=(BoundValue("song", 99.0),),
            violations=("song",),
            tightest_variance="song",
            tightest_skew=None,
        )
        monkeypatch.setattr(cli, "evaluate_all", lambda *a, **k: fake)
        out = tmp_path / "fuzz.csv"
        rc = cli.main([
            "fuzz",
            "--trials",
            "1",
            "--dims",
            "2",
            "--ns",
            "2",
            "--seed",
            "5",
            "--output",
            str(out),
        ])
        assert rc == 2
        repro = json.loads((tmp_path / "fuzz.csv.violations.json").read_text())
        assert len(repro) == 1
        entry = repro[0]
        assert entry["violations"] == ["song"]
        assert entry["dim"] == 2 and entry["n"] == 2 and entry["trial"] == 0
        assert len(entry["state_matrix"]) == 2
        assert len(entry["observables"]) == 2
        # complex entries are stored as [re, im] pairs
        assert len(entry["state_matrix"][0][0]) == 2

    def test_evaluation_error_becomes_a_reproducer(self, tmp_path, monkeypatch):
        evaluate_all = cli.evaluate_all
        calls = [0]

        def failing_once(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 2:
                raise EigenConvergenceError(1e-3, 100)
            return evaluate_all(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_all", failing_once)
        out = tmp_path / "fuzz.csv"
        rc = cli.main(["fuzz", "--trials", "3", "--dims", "2", "--ns", "2", "--seed", "5",
                       "--output", str(out)])
        assert rc == 2
        assert calls[0] == 3
        counts = {line.split(",")[3] for line in out.read_text().splitlines()[1:]}
        assert counts == {"2"}
        repro = json.loads((tmp_path / "fuzz.csv.violations.json").read_text())
        assert len(repro) == 1
        entry = repro[0]
        assert (entry["dim"], entry["n"], entry["trial"], entry["seed"]) == (2, 2, 1, 5)
        assert entry["violations"] == []
        assert entry["error"] == str(EigenConvergenceError(1e-3, 100))
        state, obs, kind = cli.fuzz_instance(5, 2, 2, 1)
        assert entry["state_kind"] == kind
        assert entry["state_matrix"] == cli._matrix_json(state.mat)

    def test_a_failing_instance_mid_cell_is_its_own_reproducer(self, tmp_path, monkeypatch):
        # trial 1 of 3 overflows float64: its reproducer carries the error it
        # raises alone, and trials 0 and 2 are still counted
        fuzz_instance = cli.fuzz_instance
        rho, matrices = OVERFLOWING

        def overflowing_second(seed, dim, n, trial):
            if trial == 1:
                return rho, ObservableSet(matrices), "pure"
            return fuzz_instance(seed, dim, n, trial)

        monkeypatch.setattr(cli, "fuzz_instance", overflowing_second)
        out = tmp_path / "fuzz.csv"
        rc = cli.main(["fuzz", "--trials", "3", "--dims", "2", "--ns", "2", "--seed", "5",
                       "--output", str(out)])
        assert rc == 2
        counts = {line.split(",")[3] for line in out.read_text().splitlines()[1:]}
        assert counts == {"2"}
        repro = json.loads((tmp_path / "fuzz.csv.violations.json").read_text())
        assert [(e["trial"], e["violations"]) for e in repro] == [(1, [])]
        with pytest.raises(ValueError) as alone:
            bounds.evaluate_all(rho, matrices)
        assert repro[0]["error"] == str(alone.value)
        assert repro[0]["state_matrix"] == cli._matrix_json(rho.mat)

    def test_instance_construction_error_exits_1(self, tmp_path, monkeypatch, capsys):
        # an error building an instance, outside the per-instance evaluation,
        # used to end in a traceback
        exc = EigenConvergenceError(1e-3, 100)

        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "fuzz_instance", fail)
        rc = cli.main(["fuzz", "--trials", "1", "--dims", "2", "--ns", "2",
                       "--output", str(tmp_path / "f.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {exc}\n"


class TestUsage:
    def test_no_subcommand(self):
        assert cli.main([]) == 1

    def test_unknown_flag(self):
        assert cli.main(["evaluate", "--nope"]) == 1

    def test_console_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "skewsum.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "evaluate" in out.stdout and "sweep" in out.stdout and "fuzz" in out.stdout
