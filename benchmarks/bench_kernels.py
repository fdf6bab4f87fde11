#!/usr/bin/env python3
"""Benchmark the kernels.

Times the Jacobi eigensolver on batches of random Hermitian matrices, both
the raw kernel and ``linalg.hermitian_eig`` around it (tolerance, sort and
phase fix included), and the whole Theorem-1 permutation scan, Gram blocks
included, on random amplitude-vector stacks, then prints a table with the
per-call cost of each, the wrapper's own cost (its row minus the kernel's)
and the per-instance cost of one scan over a 51-instance batch. Run from
the repository root (``PYTHONPATH=src`` is not needed once the package is
installed):

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat 5]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from skewsum import _kernels
from skewsum.linalg import HermitianMatrix, hermitian_eig
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


def bench_jacobi(mats: list, repeat: int) -> float:
    dim = mats[0].shape[0]
    tol = 1e-13 * max(float(np.linalg.norm(m)) for m in mats)

    def run():
        for m in mats:
            a = m.copy()
            v = np.eye(dim, dtype=np.complex128)
            _kernels.jacobi_sweeps(a, v, tol, 100)

    return time_call(run, repeat) / len(mats)


def bench_hermitian_eig(mats: list, repeat: int) -> float:
    """Seconds per ``hermitian_eig`` call on an already validated matrix,
    which is how ``HermitianMatrix.eigensystem`` calls it."""
    validated = [HermitianMatrix(m) for m in mats]

    def run():
        for m in validated:
            hermitian_eig(m)

    return time_call(run, repeat) / len(mats)


def bench_scan(dim: int, n: int, batch: int, repeat: int, gen: SplitMix64) -> float:
    """Seconds per instance of one scan over a batch of instances."""
    avs = np.abs(gen.normals((batch, n, dim)))
    return time_call(lambda: _kernels.theorem1_scan(avs), repeat) / batch


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="best-of repetitions")
    args = parser.parse_args()

    gen = SplitMix64(20260814)
    print(f"{'workload':<30} {'time (us)':>12}")
    mats = {dim: [random_hermitian(dim, gen) for _ in range(200)] for dim in (2, 3, 4, 6, 10)}
    kernel = {}
    for dim, batch in mats.items():
        kernel[dim] = bench_jacobi(batch, args.repeat)
        print(f"{f'jacobi d={dim} (per solve)':<30} {kernel[dim] * 1e6:>12.1f}")
    # the same matrices through the wrapper; its own cost is the difference
    for dim in (2, 3, 4):
        t = bench_hermitian_eig(mats[dim], args.repeat)
        print(f"{f'hermitian_eig d={dim} (per solve)':<30} {t * 1e6:>12.1f}")
        print(f"{f'  wrapper own cost d={dim}':<30} {(t - kernel[dim]) * 1e6:>12.1f}")
    for dim, n in ((3, 3), (4, 3), (4, 4), (5, 3)):
        t = bench_scan(dim, n, 1, args.repeat, gen)
        print(f"{f'scan d={dim} N={n} (per scan)':<30} {t * 1e6:>12.1f}")
    # a default-length sweep: 51 points scanned in one call
    t = bench_scan(3, 3, 51, args.repeat, gen)
    print(f"{'scan d=3 N=3 x51 (per inst.)':<30} {t * 1e6:>12.1f}")


if __name__ == "__main__":
    main()
