"""Optimal displacement radius and phase-shift saturation.

For the simplified protocol the squared HS distance, in the limit of many
phase shifts, has a single interior minimum in the displacement radius.
Its stationarity condition (derivative of the p -> infinity distance set
to zero) reads

    r I_0(2r^2) - r I_1(2r^2) - (e^(r^2) / (b e^(b^2))) I_1(2rb) = 0,

positive near r = 0 and negative at r = b.  Regula falsi in the Illinois form
(Dowell & Jarratt, BIT 11, 1971) finds the root of dD^2/dr, -4 e^(-2r^2) times
it, for a whole grid of radii in the same array calls.  At finite p there is no
such closed condition: the saturation sweep minimizes the distance itself,
hs2_simplified's table D^2[p, r] over an r-grid, then refines each p's minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .distances import B_SIMPLIFIED_MIN, ConsistencyError, hs2_simplified
from .specialfns import TRAPEZOID_NODES, TRAPEZOID_NODES_MAX, bessel_i, trapezoid_mean

# r_min / b lies in [0.644, 0.848] over the window: [0.6b, 0.9b] brackets every root.
BRACKET = np.array([0.01, 0.6, 0.9, 1.0])
# Cap on Illinois steps; a steep root at 0.3b with b = 5 takes 121.
MAX_STEPS = 200
# Radii per root search: its first call's (radii, 4, 81-node) Bessel terms take 10.6 MB.
RADII_PER_SEARCH = 4096
GRID_POINTS = 2000


@dataclass(frozen=True)
class RminResult:
    """Optimal displacement radius for one b.  ``residual`` is d2_derivative at
    r_min: the raw stationarity expression grows like e^(2r^2) and would make
    an absolute residual bound meaningless at large b."""

    b: float
    r_min: float
    residual: float
    method: ClassVar[str] = "root_find"  # the rmin output column


@dataclass(frozen=True)
class SaturationResult:
    """Per-p minimized distances and the saturation point."""

    b: float
    p_sat: int
    curve: list  # (p, r_at_min, d2_min) triples


def stationarity(b, r):
    """Stationarity expression whose interior root is r_min, with b broadcast
    against r (scalars give a float).

    Zero at r = 0 as well (both I_1 factors vanish against r -> 0 and
    I_1(0) = 0); the deliverable is the interior sign change, not that
    boundary zero.
    """
    b, r = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(r, dtype=float))
    outside = ~((0 < r) & (r <= b))
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise ValueError(f"r must be in (0, b], got r={r.flat[i]}, b={b.flat[i]}")
    x = 2.0 * r * r
    drive = bessel_i(1, 2.0 * r * b) * np.exp(r * r - b * b) / b  # 2rb >= x: checks the window
    i0, i1 = trapezoid_mean(x, TRAPEZOID_NODES)  # e^(-x) I_0(x) and e^(-x) I_1(x)
    value = r * np.exp(x) * (i0 - i1) - drive
    return value if value.ndim else float(value)


def d2_derivative(b, r):
    """dD^2/dr of the p -> infinity distance, -4 e^(-2r^2) times the stationarity
    expression; ConsistencyError names the first radius where it is not finite."""
    d = -4.0 * np.exp(-2.0 * np.square(r)) * stationarity(b, r)
    if (bad := np.flatnonzero(~np.isfinite(d))).size:
        b, r, i = *np.broadcast_arrays(b, r), bad[0]
        raise ConsistencyError(f"dD^2/dr is {d.flat[i]} at r={r.flat[i]}, b={b.flat[i]}")
    return d


def find_rmin(b):
    """Root of the stationarity expression for a radius b, or a list of roots
    for an array of radii: the first sign change among r = BRACKET * b, then
    one Illinois step per array call down to a bracket width of 1e-12.  A
    converged bracket is frozen, so every radius gets the root it gets alone.
    ConsistencyError: no sign change, a value not finite, or no convergence.
    """
    bs = np.asarray(b, dtype=float)
    flat = bs.reshape(-1)
    outside = ~((B_SIMPLIFIED_MIN <= flat) & (flat <= 7))
    if outside.any():
        raise ValueError(f"b must be in [{B_SIMPLIFIED_MIN}, 7], got {flat[outside][0]}")
    blocks = (flat[k : k + RADII_PER_SEARCH] for k in range(0, flat.size, RADII_PER_SEARCH))
    results = [res for block in blocks for res in _search(block)]
    return results if bs.ndim else results[0]


def _search(b: np.ndarray) -> list[RminResult]:
    """find_rmin for a 1-D array of radii in the window."""
    rs = np.multiply.outer(b, BRACKET)
    g = d2_derivative(b[:, None], rs)  # every radius's 4 points in one array call
    changes = g[:, :-1] * g[:, 1:] <= 0.0
    if (missing := np.flatnonzero(~changes.any(axis=1))).size:
        i = missing[0]
        raise ConsistencyError(f"stationarity has no sign change in r in [{rs[i, 0]}, {b[i]}]")
    i, rows = np.argmax(changes, axis=1), np.arange(len(b))  # each row's first change
    # (p, gp) the end kept from before the last step, (q, gq) the last point
    p, q, gp, gq = rs[rows, i], rs[rows, i + 1], g[rows, i], g[rows, i + 1]
    for _ in range(MAX_STEPS):
        if not (open_ := np.flatnonzero(np.abs(q - p) > 1e-12)).size:
            break
        po, qo, gpo, gqo = p[open_], q[open_], gp[open_], gq[open_]
        # the secant's zero, 4e-13 inside the bracket: rounding onto an end would stall
        lo, hi = np.minimum(po, qo) + 4e-13, np.maximum(po, qo) - 4e-13
        x = np.clip((po * gqo - qo * gpo) / (gqo - gpo), lo, hi)
        gx = d2_derivative(b[open_], x)
        # Illinois: the kept end's value is halved when the bracket keeps it again
        flip = np.sign(gx) != np.sign(gqo)
        p[open_], gp[open_] = np.where(flip, qo, po), np.where(flip, gqo, 0.5 * gpo)
        q[open_], gq[open_] = x, gx
    if (bad := np.flatnonzero((np.abs(q - p) > 1e-12) | (gp * gq > 0.0))).size:
        i = bad[0]  # still open after MAX_STEPS, or its ends do not differ in sign
        raise ConsistencyError(f"root search at b={b[i]} ended on [{p[i]}, {q[i]}]")
    r_min = 0.5 * (p + q)
    residual = d2_derivative(b, r_min)
    return [RminResult(*row) for row in zip(b.tolist(), r_min.tolist(), residual.tolist())]


def saturation_sweep(b: float, p_max: int, saturation_tol: float = 1e-4) -> SaturationResult:
    """Minimize the simplified distance over r for each p = 1..p_max: the
    argmin over GRID_POINTS radii in (0, b], then a 3-point parabola step;
    every D^2 is read from hs2_simplified's (p, r) table.

    p_sat is the smallest p whose minimum is within ``saturation_tol``
    (absolute, in D^2) of the p_max minimum.
    """
    if not 2 <= p_max <= TRAPEZOID_NODES_MAX:
        # rows past p = dim - 1 repeat the last; the cap only bounds the output
        raise ValueError(f"p_max must be in [2, {TRAPEZOID_NODES_MAX}], got {p_max}")
    if not 0 < saturation_tol < math.inf:
        raise ValueError(f"saturation_tol must be positive and finite, got {saturation_tol}")
    # the last point is b itself: b * GRID_POINTS / GRID_POINTS can round above b
    grid = np.append(b * np.arange(1, GRID_POINTS) / GRID_POINTS, b)
    ps = np.arange(1, p_max + 1)
    d2 = hs2_simplified(b, ps, grid)  # row p - 1 holds D^2(p, grid)
    rows, i = ps - 1, np.argmin(d2, axis=1)
    # parabola through the three samples around each interior minimum
    j = np.clip(i, 1, GRID_POINTS - 2)
    lo, mid, hi = d2[rows, j - 1], d2[rows, j], d2[rows, j + 1]
    fit = (i == j) & (lo - 2.0 * mid + hi > 0)
    shift = np.divide(lo - hi, lo - 2.0 * mid + hi, out=np.zeros(p_max), where=fit)
    r_ref = grid[j] + 0.5 * (grid[1] - grid[0]) * shift
    v_ref = np.diagonal(hs2_simplified(b, ps, r_ref))  # D^2(p, r_ref[p - 1])
    take = fit & (v_ref < d2[rows, i])
    r_best, v_best = np.where(take, r_ref, grid[i]), np.where(take, v_ref, d2[rows, i])
    curve = list(zip(ps.tolist(), r_best.tolist(), v_best.tolist()))
    p_sat = next(p for p, _, d2_min in curve if d2_min - curve[-1][2] < saturation_tol)
    return SaturationResult(b=b, p_sat=p_sat, curve=curve)
