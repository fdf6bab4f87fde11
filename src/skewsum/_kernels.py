"""Hot numerical kernels: cyclic Jacobi sweeps and the permutation scan."""

from __future__ import annotations

import math

import numpy as np


def backend() -> str:
    """Name of the kernel backend; the kernels are plain numpy."""
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
# The complex arithmetic is spelled out over real and imaginary parts in a
# fixed order. numpy's vectorized complex multiply may contract to fused
# multiply-adds and its complex-by-real divide rounds differently, so
# leaning on either would move the eigensystems' last bits and with them
# the per-seed output bytes, which are a reproducibility contract.
# ---------------------------------------------------------------------------


def _off_norm(a: np.ndarray) -> float:
    sq = a.real**2 + a.imag**2
    np.fill_diagonal(sq, 0.0)
    if sq.size == 0:
        return 0.0
    # cumsum accumulates strictly left to right; sum() would reassociate
    # pairwise, round differently, and could stop the sweeps elsewhere
    return math.sqrt(float(np.cumsum(sq.reshape(-1))[-1]))


def jacobi_sweeps(a, v, tol, max_sweeps):
    d = a.shape[0]
    ar, ai = a.real, a.imag
    vr, vi = v.real, v.imag
    off = _off_norm(a)
    sweeps = 0
    while off > tol and sweeps < max_sweeps:
        # rotations below this size cannot move the residual past tol
        skip = tol / d
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                phr = apq.real / r
                phi = apq.imag / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
                if tau < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cpr = c * phr
                cpi = c * phi
                spr = s * phr
                spi = s * phi
                xr, xi = ar[:, p].copy(), ai[:, p].copy()
                yr, yi = ar[:, q].copy(), ai[:, q].copy()
                ar[:, p] = (cpr * xr - cpi * xi) - s * yr
                ai[:, p] = (cpr * xi + cpi * xr) - s * yi
                ar[:, q] = (spr * xr - spi * xi) + c * yr
                ai[:, q] = (spr * xi + spi * xr) + c * yi
                # rows pick up conj(cp) and conj(sp)
                xr, xi = ar[p, :].copy(), ai[p, :].copy()
                yr, yi = ar[q, :].copy(), ai[q, :].copy()
                ar[p, :] = (cpr * xr + cpi * xi) - s * yr
                ai[p, :] = (cpr * xi - cpi * xr) - s * yi
                ar[q, :] = (spr * xr + spi * xi) + c * yr
                ai[q, :] = (spr * xi - spi * xr) + c * yi
                a[p, q] = 0.0
                a[q, p] = 0.0
                ai[p, p] = 0.0
                ai[q, q] = 0.0
                xr, xi = vr[:, p].copy(), vi[:, p].copy()
                yr, yi = vr[:, q].copy(), vi[:, q].copy()
                vr[:, p] = (cpr * xr - cpi * xi) - s * yr
                vi[:, p] = (cpr * xi + cpi * xr) - s * yi
                vr[:, q] = (spr * xr - spi * xi) + c * yr
                vi[:, q] = (spr * xi + spi * xr) + c * yi
        sweeps += 1
        off = _off_norm(a)
    return sweeps, off


# ---------------------------------------------------------------------------
# Theorem-1 permutation scan.
#
# The tuple grid has one axis per observable: length 1 for the first,
# whose permutation is pinned to the identity, and d! for each other one.
# Pair m = (i, j), in ``itertools.combinations`` order, contributes
#   bases[m]  = var_i + var_j
#   grams[m]  = (a_i perm t_i) . (a_j perm t_j), shaped to broadcast over
#               the grid: its full length on axes i and j, 1 elsewhere.
# The objective for a tuple is c1 * (sum ss + c2 * (sum dd)^2) with
# ss = bases + 2 g and dd = sqrt(max(bases - 2 g, 0)).
# Returns (best_value, flat_index) where flat_index indexes the grid in C
# order and ties within tie_tol resolve to the smallest index.
# ---------------------------------------------------------------------------


def theorem1_scan(bases, grams, c1, c2, tie_tol):
    shape = np.broadcast_shapes(*(g.shape for g in grams))
    ss_tot = np.zeros(shape)
    dd_tot = np.zeros(shape)
    for base, g in zip(bases, grams):
        np.add(ss_tot, base + 2.0 * g, out=ss_tot)
        np.add(dd_tot, np.sqrt(np.clip(base - 2.0 * g, 0.0, None)), out=dd_tot)
    flat_vals = (c1 * (ss_tot + c2 * dd_tot * dd_tot)).reshape(-1)
    best = float(flat_vals.max())
    sel = int(np.argmax(flat_vals >= best - tie_tol))
    return best, sel
