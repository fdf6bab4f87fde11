"""Hot numerical kernels: cyclic Jacobi sweeps and the permutation scan."""

from __future__ import annotations

import itertools
import math

import numpy as np


def backend() -> str:
    """Name of the kernel backend: numpy, with no compiled extension (the
    Jacobi rotations run on Python floats)."""
    return "numpy"


# ---------------------------------------------------------------------------
# Cyclic Jacobi sweeps for complex Hermitian matrices.
#
# One rotation zeroes a[p, q] by a complex Givens rotation built from
#   phase = a[p, q] / |a[p, q]|,  tau = (a[q, q] - a[p, p]) / (2 |a[p, q]|),
#   t = sign(tau) / (|tau| + sqrt(1 + tau^2)),  c = 1 / sqrt(1 + t^2),  s = t c.
# Returns (sweeps_done, offdiag_frobenius); the caller decides convergence
# from the residual.
#
# The rotations run on Python floats: the real and imaginary parts of a and
# v are copied to nested lists on entry and written back on exit. At the
# small d this package solves, a numpy call on a length-d slice costs far
# more than its arithmetic, and one rotation took about 50 of them.
#
# The eigensystems' last bits, and with them the per-seed output bytes,
# are a reproducibility contract, so the arithmetic is fixed:
# - the complex products are spelled out over real and imaginary parts in
#   a fixed order; a complex multiply may contract to fused multiply-adds,
#   and a complex-by-real divide rounds differently;
# - each Python float operation is one IEEE operation rounded once, with no
#   contraction or reassociation, so these bits equal those of the
#   element-wise numpy form this kernel replaced (kept in the tests as the
#   oracle). Squares are x * x, and |a[p, q]| is abs(complex(re, im)),
#   which is libm hypot like numpy's complex abs; math.hypot is not;
# - the residual sums the squares strictly left to right in row-major
#   order, never with sum(), which may round differently.
# ---------------------------------------------------------------------------


def _off_norm(ar, ai) -> float:
    total = 0.0
    for p, (row_r, row_i) in enumerate(zip(ar, ai)):
        for q, (x, y) in enumerate(zip(row_r, row_i)):
            if q != p:
                total += x * x + y * y
    return math.sqrt(total)


def _rotate_columns(mr, mi, p, q, cpr, cpi, spr, spi, c, s):
    """Columns p, q of m <- (cp x - s y, sp x + c y) with x, y the old ones."""
    for row_r, row_i in zip(mr, mi):
        xr, xi, yr, yi = row_r[p], row_i[p], row_r[q], row_i[q]
        row_r[p] = (cpr * xr - cpi * xi) - s * yr
        row_i[p] = (cpr * xi + cpi * xr) - s * yi
        row_r[q] = (spr * xr - spi * xi) + c * yr
        row_i[q] = (spr * xi + spi * xr) + c * yi


def jacobi_sweeps(a, v, tol, max_sweeps):
    d = a.shape[0]
    ar, ai = a.real.tolist(), a.imag.tolist()
    vr, vi = v.real.tolist(), v.imag.tolist()
    off = _off_norm(ar, ai)
    sweeps = 0
    while off > tol and sweeps < max_sweeps:
        # rotations below this size cannot move the residual past tol
        skip = tol / d
        for p in range(d - 1):
            arp, aip = ar[p], ai[p]
            for q in range(p + 1, d):
                arq, aiq = ar[q], ai[q]
                apr, api = arp[q], aip[q]
                r = abs(complex(apr, api))
                if r <= skip:
                    continue
                phr = apr / r
                phi = api / r
                tau = (arq[q] - arp[p]) / (2.0 * r)
                t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
                if tau < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cpr = c * phr
                cpi = c * phi
                spr = s * phr
                spi = s * phi
                _rotate_columns(ar, ai, p, q, cpr, cpi, spr, spi, c, s)
                # rows pick up conj(cp) and conj(sp)
                for k in range(d):
                    xr, xi, yr, yi = arp[k], aip[k], arq[k], aiq[k]
                    arp[k] = (cpr * xr + cpi * xi) - s * yr
                    aip[k] = (cpr * xi - cpi * xr) - s * yi
                    arq[k] = (spr * xr + spi * xi) + c * yr
                    aiq[k] = (spr * xi - spi * xr) + c * yi
                arp[q] = aip[q] = arq[p] = aiq[p] = 0.0
                aip[p] = aiq[q] = 0.0
                _rotate_columns(vr, vi, p, q, cpr, cpi, spr, spi, c, s)
        sweeps += 1
        off = _off_norm(ar, ai)
    a.real[...] = ar
    a.imag[...] = ai
    v.real[...] = vr
    v.imag[...] = vi
    return sweeps, off


# ---------------------------------------------------------------------------
# Theorem-1 permutation scan.
#
# avs is a (B, N, d) batch: one stack of N amplitude vectors per instance.
# Each instance's tuple grid has one axis per observable: length 1 for the
# first, whose permutation is pinned to the identity, and d! for each other
# one, the orderings in ``itertools.permutations`` order. Pair (i, j), in
# ``itertools.combinations`` order, contributes
#   base = var_i + var_j,  g = (a_i perm t_i) . (a_j perm t_j),
# g shaped to broadcast over the grid: its full length on axes i and j, 1
# elsewhere. The objective for a tuple is c1 * (sum ss + c2 * (sum dd)^2)
# with ss = base + 2 g, dd = sqrt(max(base - 2 g, 0)), c1 = 1 / (2N - 2) and
# c2 = 2 / (N (N - 1)); both sums start from 0.
#
# Returns (best_values, permutations): per instance, the maximum and the
# maximizing tuple, one ordering per observable, ties within TIE_TOL
# resolved to the first in C order of that instance's grid, which is
# lexicographic.
#
# The batch is a leading axis on every array, so each instance's numbers
# go through the same operations, in the same order, as they would alone:
# the element-wise steps act on each element by itself, and each Gram
# block is its own product over the batch axis. The Gram blocks keep the
# strided layout of avs[:, :, perms]: numpy multiplies those with its own
# loop, contiguous ones through BLAS, and the two round differently, which
# would change the output bytes. The strided layout holds for any batch
# size, since the fancy index puts the batch and observable axes innermost
# in memory. Instances are scanned in chunks whose grids hold at most
# _SCAN_CHUNK_ELEMENTS values (always at least one instance), which bounds
# the scan's memory; chunking cannot change any bits.
# ---------------------------------------------------------------------------

TIE_TOL = 1e-12
_SCAN_CHUNK_ELEMENTS = 2**16


def _scan_chunk(avs, perms, grid):
    """The objective over the (b,) + grid tuple grid of each instance."""
    b, n, _d = avs.shape
    variances = np.einsum("bij,bij->bi", avs, avs)
    # variances[:, i] shaped to broadcast over the batch's grids
    var_grid = variances.T.reshape((n, b) + (1,) * n)
    every = avs[:, :, perms]
    permuted = [avs[:, :1], *(every[:, k] for k in range(1, n))]
    ss_tot = np.zeros((b,) + grid)
    dd_tot = np.zeros((b,) + grid)
    for i, j in itertools.combinations(range(n), 2):
        shape = [b] + [1] * n
        shape[1 + i] = grid[i]
        shape[1 + j] = grid[j]
        g = (permuted[i] @ permuted[j].transpose(0, 2, 1)).reshape(shape)
        base = var_grid[i] + var_grid[j]
        np.add(ss_tot, base + 2.0 * g, out=ss_tot)
        np.add(dd_tot, np.sqrt(np.clip(base - 2.0 * g, 0.0, None)), out=dd_tot)
    c1 = 1.0 / (2.0 * n - 2.0)
    c2 = 2.0 / (n * (n - 1.0))
    return (c1 * (ss_tot + c2 * dd_tot * dd_tot)).reshape(b, -1)


def theorem1_scan(avs):
    b, n, d = avs.shape
    orderings = list(itertools.permutations(range(d)))
    perms = np.array(orderings, dtype=np.int64)
    grid = (1,) + (len(orderings),) * (n - 1)
    chunk = max(1, _SCAN_CHUNK_ELEMENTS // math.prod(grid))
    best = np.empty(b)
    choices = []
    for start in range(0, b, chunk):
        flat_vals = _scan_chunk(avs[start : start + chunk], perms, grid)
        top = flat_vals.max(axis=1)
        best[start : start + chunk] = top
        for sel in np.argmax(flat_vals >= (top - TIE_TOL)[:, None], axis=1).tolist():
            digits = []
            for size in reversed(grid):
                sel, t = divmod(sel, size)
                digits.append(orderings[t])
            choices.append(tuple(reversed(digits)))
    return best, choices
