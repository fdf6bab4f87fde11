"""Golden output digests: per-seed output bytes pinned across versions.

Every other determinism test compares two runs of the same build. These
compare against sha256 digests recorded once, so a change that moves any
last bit of the output (a kernel rewrite, a numpy or BLAS dispatch change)
fails here even when it is self-consistent.
"""

import hashlib
import json

import pytest

from skewsum import cli

GOLDEN = {
    "fuzz_d234_n234_t3_s1": "4826d9bc162b056f835cb0b56993c445475757d21cddc0f59e06147ede468148",
    "sweep_example1": "860a90cd57e0d14ea8480d2c65922bbdfa04aa68aee17a495a848b3110d8ea21",
    "sweep_example2": "185fc580add5289d8f8cb96535898333e571fff788345cedde9aa468ea15036b",
    "sweep_example3": "52289bd09ba77bf118c3960900e62a6956c47d88853c31b0eab1425c92d8b122",
    "evaluate_d4_n4_s1_t1": "4e53aea73cd3d3a110d8828ee7175e195649cef067ff32a11e0a44c41b84de32",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fuzz(tmp_path):
    out = tmp_path / "fuzz.csv"
    argv = ["fuzz", "--trials", "3", "--dims", "2,3,4", "--ns", "2,3,4", "--seed", "1"]
    assert cli.main(argv + ["--output", str(out)]) == 0
    return out


def _sweep(tmp_path, scenario):
    out = tmp_path / f"{scenario}.csv"
    assert cli.main(["sweep", "--scenario", scenario, "--output", str(out)]) == 0
    return out


def _evaluate(tmp_path):
    state, obs, _kind = cli.fuzz_instance(1, 4, 4, 1)
    problem = {
        "state": {"kind": "density", "matrix": cli._matrix_json(state.mat)},
        "observables": [cli._matrix_json(a.mat) for a in obs],
    }
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))
    out = tmp_path / "report.json"
    assert cli.main(["evaluate", "--input", str(src), "--output", str(out)]) == 0
    return out


RUNS = {
    "fuzz_d234_n234_t3_s1": _fuzz,
    "sweep_example1": lambda p: _sweep(p, "example1"),
    "sweep_example2": lambda p: _sweep(p, "example2"),
    "sweep_example3": lambda p: _sweep(p, "example3"),
    "evaluate_d4_n4_s1_t1": _evaluate,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden_digest(tmp_path, name):
    assert _digest(RUNS[name](tmp_path)) == GOLDEN[name]
