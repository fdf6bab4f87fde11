import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from skewsum import cli
from skewsum.bounds import BoundReport, BoundValue
from skewsum.linalg import EigenConvergenceError

PAULI_PROBLEM = {
    "state": {"kind": "pure", "amplitudes": [1, 0]},
    "observables": [
        [[0, 1], [1, 0]],
        [[0, [0, -1]], [[0, 1], 0]],
        [[1, 0], [0, -1]],
    ],
}


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
        path.write_text("{not json")
        assert cli.main(["evaluate", "--input", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

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

    def test_bad_dims(self, tmp_path, capsys):
        rc = cli.main(["fuzz", "--dims", "2,x", "--output", str(tmp_path / "f.csv")])
        assert rc == 1
        assert "--dims" in capsys.readouterr().err

    def test_ns_below_two_rejected(self, tmp_path, capsys):
        rc = cli.main(["fuzz", "--ns", "1,2", "--output", str(tmp_path / "f.csv")])
        assert rc == 1
        assert "--ns" in capsys.readouterr().err

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
