"""One measured process of the benchmark: set up, then run a workload.

Run by ``perfbench/run.py`` in a fresh interpreter with a single client
on a single thread. It prints one JSON line on stdout:

* ``--mode setup``: only ``setup_s``, the time from before ``import
  skewsum`` to the end of input generation and one untimed warm-up op.
* ``--mode run``: set-up, then a closed loop of ops, each timed and then
  checked untimed, until ``--seconds`` of op time and at least
  ``MIN_OPS`` ops in whole op cycles have run. Untimed warm-up ops run
  between set-up and the timed loop. With ``--trace 1`` the first ops are
  then replayed, alternately untraced and under the per-layer tracer; the
  difference is the tracing overhead, and every replay must write the
  same bytes as the timed run.

Nothing numeric is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

# the set-up clock starts before the package (and numpy with it) is imported
T_START = time.perf_counter()

# p90 needs at least ten ops beyond it
MIN_OPS = 100
MAX_ERRORS_SHOWN = 5
# untimed ops after set-up, in seconds of op time
WARMUP_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="scratch directory for op files")
    return parser.parse_args(argv)


class Runner:
    """Runs and checks ops of one workload; keeps failures and output hashes."""

    def __init__(self, main, workload):
        self.main = main
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, i: int):
        """Run op ``i``; return (seconds, evals done, sha256 of output or None)."""
        op = self.workload.op(i)
        if os.path.exists(op.output):
            os.remove(op.output)
        gc.collect()
        t0 = time.perf_counter()
        try:
            rc = self.main(op.argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = exc
        dt = time.perf_counter() - t0
        self.attempted += 1
        try:
            digest = hashlib.sha256(self.workload.check(op, rc)).hexdigest()
        except Exception as exc:
            self.fail(i, f"{type(exc).__name__}: {exc}")
            return dt, 0, None
        return dt, op.evals, digest

    def fail(self, i: int, message: str):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(f"op {i}: {message}")


def environment() -> dict:
    import numpy
    import skewsum

    return {
        "backend": skewsum.backend(),
        "skewsum": getattr(skewsum, "__version__", None),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    from skewsum import cli

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    runner = Runner(cli.main, workload)
    warm_digests = [runner.run(0)[2]]
    setup_s = time.perf_counter() - T_START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # let allocator pools, caches and the page cache settle before timing
    warm_s = 0.0
    while warm_s < WARMUP_S or len(warm_digests) % workload.cycle:
        dt, _, digest = runner.run(len(warm_digests))
        warm_digests.append(digest)
        warm_s += dt

    op_s, digests = [], []
    evals = 0
    busy = 0.0
    while busy < args.seconds or len(op_s) < MIN_OPS or len(op_s) % workload.cycle:
        dt, done, digest = runner.run(len(op_s))
        op_s.append(dt)
        digests.append(digest)
        evals += done
        busy += dt
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i, digest in enumerate(warm_digests):
        if digest != digests[i]:
            runner.fail(i, "output differs from the warm-up run of the same op")

    result = {
        "setup_s": setup_s,
        "ops": len(op_s),
        "evals": evals,
        "evals_per_s": evals / busy,
        "op_ms_p50": 1e3 * statistics.median(op_s),
        "op_ms_p90": 1e3 * statistics.quantiles(op_s, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256(
            "".join(d or "-" for d in digests[: workload.trace_ops]).encode()
        ).hexdigest(),
        "env": environment(),
    }
    if args.trace:
        result["layers"] = traced_replay(runner, workload, digests)
    result.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors)
    print(json.dumps(result))
    return 0


def traced_replay(runner, workload, digests) -> dict:
    """Replay the first ``workload.trace_ops`` ops, each once untraced and
    once traced, and return the per-layer metrics of the traced runs."""
    from perfbench import tracing

    tracer = tracing.Tracer()
    plain_main = runner.main
    traced_main = tracer.wrap("cli.main", plain_main)
    plain_s = traced_s = 0.0
    evals = 0
    for i in range(workload.trace_ops):
        dt, _, digest = runner.run(i)
        plain_s += dt
        runner.main = traced_main
        try:
            with tracing.installed(tracer):
                dt, done, traced_digest = runner.run(i)
        finally:
            runner.main = plain_main
        traced_s += dt
        evals += done
        if not digest == traced_digest == digests[i]:
            runner.fail(i, "traced output differs from the untraced run")
    return tracing.layer_metrics(tracer, max(evals, 1), traced_s / plain_s - 1.0)


if __name__ == "__main__":
    sys.exit(main())
