#!/usr/bin/env python3
"""Benchmark the kernels.

Times the Jacobi eigensolver on batches of random Hermitian matrices and
the whole Theorem-1 permutation scan, Gram blocks included, on random
amplitude-vector stacks, then prints a table with the per-call cost of
each. Run from the repository root (``PYTHONPATH=src`` is not needed once
the package is installed):

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat 5]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from skewsum import _kernels
from skewsum.rng import SplitMix64


def random_hermitian(dim: int, gen: SplitMix64) -> np.ndarray:
    g = gen.complex_normals((dim, dim))
    return (g + g.conj().T) / 2.0


def time_call(fn, repeat: int) -> float:
    """Best-of-repeat wall time of fn() in seconds."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_jacobi(dim: int, count: int, repeat: int, gen: SplitMix64) -> float:
    mats = [random_hermitian(dim, gen) for _ in range(count)]
    tol = 1e-13 * max(float(np.linalg.norm(m)) for m in mats)

    def run():
        for m in mats:
            a = m.copy()
            v = np.eye(dim, dtype=np.complex128)
            _kernels.jacobi_sweeps(a, v, tol, 100)

    return time_call(run, repeat) / count


def bench_scan(dim: int, n: int, repeat: int, gen: SplitMix64) -> float:
    avs = np.abs(gen.normals((n, dim)))
    return time_call(lambda: _kernels.theorem1_scan(avs), repeat)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="best-of repetitions")
    args = parser.parse_args()

    gen = SplitMix64(20260814)
    print(f"{'workload':<28} {'time (us)':>12}")
    for dim in (2, 3, 4, 6, 10):
        t = bench_jacobi(dim, 200, args.repeat, gen)
        print(f"{f'jacobi d={dim} (per solve)':<28} {t * 1e6:>12.1f}")
    for dim, n in ((3, 3), (4, 3), (4, 4), (5, 3)):
        t = bench_scan(dim, n, args.repeat, gen)
        print(f"{f'scan d={dim} N={n} (per scan)':<28} {t * 1e6:>12.1f}")


if __name__ == "__main__":
    main()
