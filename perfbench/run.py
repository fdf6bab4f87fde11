#!/usr/bin/env python3
"""End-to-end benchmark of the skewsum CLI on seeded, checked workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz_grid --seed 1 --seconds 45 --trace 0

Workloads (see ``perfbench/workloads.py`` for why each was chosen):
``fuzz_grid``, ``sweep_scenarios`` and ``theorem1_wide``; the first two
are the ones ``BENCHMARK.json`` gates. Each run is a
closed loop with one client: a fresh child process on one thread (BLAS
and OpenMP pools pinned to 1) imports the package from ``src/``, makes
its inputs from ``--seed``, runs one untimed warm-up op, and then runs
ops back to back, checking each output untimed. Set-up is repeated in
further fresh processes and reported as a median.

With ``--trace 0`` it reports the end-to-end metrics ``evals_per_s``
(instances or grid points evaluated per second of op time), ``setup_s``
and ``peak_rss_mb``. It also prints the per-op wall-time percentiles
``op_ms_p50`` and ``op_ms_p90`` with their sample count, and
``failed_frac``, which the result line carries as ``failed`` of
``attempted``. With ``--trace 1`` the first ops are replayed under
per-layer tracing and the per-layer metrics are reported instead. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
percentiles, the environment, both seeds and the output digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracing import LAYER_UNITS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
# kept out of tuning; a claimed gain must also hold on this seed
HELD_OUT_SEED = 90210
# set-up is measured in this many fresh processes, the run's own included
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
E2E_UNITS = {"evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed and recorded, but not in the result line: on a 2-core shared host
# their run-to-run spread reaches the largest bound the benchmark may set
RECORDED_UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms"}
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(Exception):
    """A measured process exited abnormally or printed no result."""


def child(args, mode: str, scratch: Path) -> dict:
    """Run one fresh measured process and return its JSON result."""
    tmp = tempfile.mkdtemp(dir=scratch)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({k: "1" for k in THREAD_PINS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [
        sys.executable, "-m", "perfbench.child",
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp", tmp,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process timed out after {exc.timeout} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=45, help="op time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "skewsum").is_dir():
        print(f"error: no skewsum package under {ROOT / 'src'}", file=sys.stderr)
        return 1

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        setups = [child(args, "setup", scratch)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        run = child(args, "run", scratch)
    except (ChildFailed, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(run["setup_s"])

    attempted, failed = run["attempted"], run["failed"]
    for message in run["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": run["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        values = dict(run, setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:>16.6g} {m['unit']}")
    for name, unit in RECORDED_UNITS.items():
        print(f"{name:<34} {run[name]:>16.6g} {unit} (of {run['ops']} ops)")
    print(f"{'failed_frac':<34} {failed / attempted:>16.6g} frac ({failed} of {attempted} ops)")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": run["ops"],
        **{name: {"value": run[name], "unit": unit} for name, unit in RECORDED_UNITS.items()},
        "evals": run["evals"],
        "setup_samples_s": setups,
        "failed_frac": failed / attempted,
        "output_digest": run["digest"],
        "env": run["env"],
    }
    print(json.dumps(record))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
