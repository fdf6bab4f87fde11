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
    "fuzz_d234_n234_t3_s1": "f44dfa1f66eb0078b974c3f57f50d7a8f578e3e71cc52caeab61a799995e2a22",
    "sweep_example1": "29e56555292f35223e8a406c302596112344008e741b3d239a69f04b482bbbb2",
    "sweep_example2": "185fc580add5289d8f8cb96535898333e571fff788345cedde9aa468ea15036b",
    "sweep_example3": "c1607fa42f2d9c9cd5cced335f95b45aea95daf12a49d311264472e08bc407e5",
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
