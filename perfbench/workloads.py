"""The benchmark's workloads: seeded op generators with their output checks.

An op is one user-level call, ``skewsum.cli.main(argv)``, writing its
output to a file in the run's scratch directory. Every input the program
sees is derived from the workload seed and the op index, so one seed gives
the same ops, and therefore the same output bytes, on every run.

Why these three workloads:

* ``fuzz_grid`` is the acceptance-corpus mix. It is the only workload
  where RNG draws, state validation and ``cli.fuzz_instance`` sit on the
  path of every instance, and no observable repeats, so a per-observable
  cache can only add cost here.
* ``sweep_scenarios`` evaluates fixed observables (d = 2, 3; N = 3) at 51
  points per op. Observable eigendecompositions are redundant, RNG does no
  work and the Theorem-1 scan is trivial, so caching and shared
  per-instance data show here.
* ``theorem1_wide`` evaluates single instances whose Theorem-1
  permutation search dominates: d = 6, N = 3 (one 720 x 720 Gram block)
  and d = 4, N = 5 (six 24 x 24 blocks). Per-instance overheads barely
  register, so scan and search changes show here. ``BENCHMARK.json`` does
  not gate it: the run budget allows two workloads at the run length this
  noisy host needs, and the other two are the only ones that reach the RNG
  and fuzz draws, and the scenario sweeps. Run it directly for claims about
  the Theorem-1 search.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from . import checks


def sub_seed(seed: int, *parts) -> int:
    """A 63-bit seed derived from the workload seed and op coordinates."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class Op:
    argv: list
    output: str
    evals: int
    expect: dict


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class FuzzGrid:
    """``skewsum fuzz`` over d, N in {2, 3, 4} with 2 trials: 18 instances."""

    name = "fuzz_grid"
    cycle = 1
    trace_ops = 12
    dims = (2, 3, 4)
    ns = (2, 3, 4)
    trials = 2

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.output = os.path.join(tmp, "fuzz.csv")

    def op(self, i: int) -> Op:
        argv = [
            "fuzz",
            "--dims", ",".join(map(str, self.dims)),
            "--ns", ",".join(map(str, self.ns)),
            "--trials", str(self.trials),
            "--seed", str(sub_seed(self.seed, self.name, i)),
            "--output", self.output,
        ]
        evals = len(self.dims) * len(self.ns) * self.trials
        return Op(argv, self.output, evals, {})

    def check(self, op: Op, rc) -> bytes:
        violations = op.output + ".violations.json"
        if os.path.exists(violations):
            os.remove(violations)
            raise checks.CheckError("fuzz wrote a violations file")
        if rc != 0:
            raise checks.CheckError(f"exit code {rc!r}")
        data = _read(op.output)
        checks.check_fuzz_csv(data.decode(), self.dims, self.ns, self.trials)
        return data


class SweepScenarios:
    """``skewsum sweep`` rotating example1, example2, example3; 51 points each.

    phi (example1, example3) and the theta start (example2) are drawn from
    the seed for every op.
    """

    name = "sweep_scenarios"
    cycle = 3
    trace_ops = 6
    steps = 50

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.output = os.path.join(tmp, "sweep.csv")

    def op(self, i: int) -> Op:
        scenario = f"example{i % 3 + 1}"
        u = random.Random(sub_seed(self.seed, self.name, i)).random() * 2.0 * math.pi
        if scenario == "example2":
            phi, start, stop = None, u, u + 2.0 * math.pi
        else:
            phi, start, stop = u, 0.0, math.pi
        step = (stop - start) / self.steps
        argv = [
            "sweep",
            "--scenario", scenario,
            "--theta-grid", f"{start!r}:{stop!r}:{step!r}",
            "--output", self.output,
        ]
        if phi is not None:
            argv += ["--phi", repr(phi)]
        expect = {"scenario": scenario, "phi": phi, "start": start, "stop": stop}
        return Op(argv, self.output, self.steps + 1, expect)

    def check(self, op: Op, rc) -> bytes:
        if rc != 0:
            raise checks.CheckError(f"exit code {rc!r}")
        data = _read(op.output)
        checks.check_sweep_csv(data.decode(), points=self.steps + 1, **op.expect)
        return data


def _matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


class Theorem1Wide:
    """``skewsum evaluate`` on instances dominated by the Theorem-1 search.

    The op cycle is one d = 6, N = 3 instance then two d = 4, N = 5 ones.
    With strict alternation the per-op median would sit exactly between the
    two cost modes and jump by the full gap when the op count changes by
    one; the 1:2 mix puts the median inside the d = 4, N = 5 mode and p90
    inside the d = 6, N = 3 mode.
    """

    name = "theorem1_wide"
    cycle = 3
    trace_ops = 12
    cells = ((6, 3), (4, 5))
    pool = 6

    def __init__(self, seed: int, tmp: str):
        from skewsum.cli import fuzz_instance

        self.output = os.path.join(tmp, "report.json")
        self.problems = {}
        draw_seed = sub_seed(seed, self.name)
        for d, n in self.cells:
            for k in range(self.pool):
                state, obs, _kind = fuzz_instance(draw_seed, d, n, k)
                path = os.path.join(tmp, f"problem_d{d}n{n}_{k}.json")
                problem = {
                    "state": {"kind": "density", "matrix": _matrix_json(state.mat)},
                    "observables": [_matrix_json(a.mat) for a in obs],
                }
                with open(path, "w") as f:
                    json.dump(problem, f)
                self.problems[(d, n, k)] = path
        self._references = {}

    def op(self, i: int) -> Op:
        turn, pos = divmod(i, self.cycle)
        if pos == 0:
            (d, n), k = self.cells[0], turn % self.pool
        else:
            (d, n), k = self.cells[1], (2 * turn + pos - 1) % self.pool
        path = self.problems[(d, n, k)]
        argv = ["evaluate", "--input", path, "--output", self.output]
        return Op(argv, self.output, 1, {"problem": path})

    def reference(self, path: str):
        """Instance and eigh reference sums, read back from the problem file."""
        if path not in self._references:
            with open(path) as f:
                problem = json.load(f)
            rho = _matrix_from_json(problem["state"]["matrix"])
            obs = [_matrix_from_json(o) for o in problem["observables"]]
            self._references[path] = (rho, obs, checks.reference_sums(rho, obs))
        return self._references[path]

    def check(self, op: Op, rc) -> bytes:
        if rc != 0:
            raise checks.CheckError(f"exit code {rc!r}")
        data = _read(op.output)
        rho, obs, ref = self.reference(op.expect["problem"])
        checks.check_evaluate_report(json.loads(data), rho, obs, ref)
        return data


WORKLOADS = {w.name: w for w in (FuzzGrid, SweepScenarios, Theorem1Wide)}
