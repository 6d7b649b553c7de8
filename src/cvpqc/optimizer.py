"""Optimal displacement radius and phase-shift saturation.

For the simplified protocol the squared HS distance, in the limit of many
phase shifts, has a single interior minimum in the displacement radius.
Its stationarity condition (derivative of the p -> infinity distance set
to zero) reads

    r I_0(2r^2) - r I_1(2r^2) - (e^(r^2) / (b e^(b^2))) I_1(2rb) = 0,

positive near r = 0 and negative at r = b, so a bracketing scan plus
repeated splits of the bracket find the root.  At finite p there is no
such closed condition: the saturation sweep minimizes the distance itself
over an r-grid, each p's row a sum over one p-independent stripe table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .distances import B_SIMPLIFIED_MIN, ConsistencyError, _stripe_table
from .specialfns import TRAPEZOID_NODES_MAX, bessel_i

SCAN_POINTS = 200
# Each refinement splits the root's bracket into this many parts in one array call.
SPLIT_PARTS = 16
GRID_POINTS = 2000


@dataclass(frozen=True)
class RminResult:
    """Optimal displacement radius for one b.

    ``residual`` is the derivative dD^2/dr at r_min (the stationarity
    expression times -4 e^(-2 r^2); the raw expression grows like
    e^(2r^2) and would make an absolute residual bound meaningless at
    large b).
    """

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


def stationarity(b: float, r):
    """Stationarity expression whose interior root is r_min, for an array
    r (a scalar r gives a float).

    Zero at r = 0 as well (both I_1 factors vanish against r -> 0 and
    I_1(0) = 0); the deliverable is the interior sign change, not that
    boundary zero.
    """
    if not (0 < np.min(r) and np.max(r) <= b):
        raise ValueError(f"r must be in (0, b], got r={r}, b={b}")
    x = 2.0 * r * r
    drive = bessel_i(1, 2.0 * r * b) * np.exp(r * r - b * b) / b
    return r * bessel_i(0, x) - r * bessel_i(1, x) - drive


def d2_derivative(b: float, r: float) -> float:
    """dD^2/dr of the p -> infinity simplified distance:
    -4 e^(-2r^2) times the stationarity expression."""
    return -4.0 * math.exp(-2.0 * r * r) * stationarity(b, r)


def find_rmin(b: float) -> RminResult:
    """Root of the stationarity expression: a bracketing scan, then
    SPLIT_PARTS-part splits of the bracket down to a width of 1e-12.

    Raises ConsistencyError if the scan finds no sign change.
    """
    if not B_SIMPLIFIED_MIN <= b <= 7:
        raise ValueError(f"b must be in [{B_SIMPLIFIED_MIN}, 7], got {b}")
    lo = 0.01 * b
    step = (b - lo) / SCAN_POINTS
    rs = np.minimum(lo + np.arange(SCAN_POINTS + 1) * step, b)
    f = stationarity(b, rs)  # the whole scan in one array call
    changes = np.flatnonzero(f[:-1] * f[1:] <= 0.0)
    if not changes.size:
        raise ConsistencyError(f"stationarity has no sign change in r in [{lo}, {b}]")
    i = int(changes[0])
    a, c, fa = float(rs[i]), float(rs[i + 1]), float(f[i])
    while c - a > 1e-12:
        ms = a + (c - a) * np.arange(1, SPLIT_PARTS) / SPLIT_PARTS
        fm = stationarity(b, ms)
        past = np.flatnonzero(fa * fm <= 0.0)  # points on c's side of the root
        k = int(past[0]) if past.size else len(ms)
        if k < len(ms):
            c = float(ms[k])
        if k > 0:
            a, fa = float(ms[k - 1]), float(fm[k - 1])
    r_min = 0.5 * (a + c)
    return RminResult(b=b, r_min=r_min, residual=d2_derivative(b, r_min))


def saturation_sweep(b: float, p_max: int, saturation_tol: float = 1e-4) -> SaturationResult:
    """Minimize the simplified distance over r for each p = 1..p_max: the
    argmin over GRID_POINTS radii in (0, b], then a 3-point parabola step,
    each one stripe table for every p.

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
    diag, table = _stripe_table(b, grid)
    ps, k = np.arange(1, p_max + 1), np.arange(table.shape[1])
    stripes = np.where((k > 0) & (k % ps[:, None] == 0), 2.0, 0.0)  # p_max x dim
    d2 = diag + stripes @ table.T  # row p - 1 holds D^2(p, grid)
    rows, i = ps - 1, np.argmin(d2, axis=1)
    # parabola through the three samples around each interior minimum
    j = np.clip(i, 1, GRID_POINTS - 2)
    lo, mid, hi = d2[rows, j - 1], d2[rows, j], d2[rows, j + 1]
    fit = (i == j) & (lo - 2.0 * mid + hi > 0)
    shift = np.divide(lo - hi, lo - 2.0 * mid + hi, out=np.zeros(p_max), where=fit)
    r_ref = grid[j] + 0.5 * (grid[1] - grid[0]) * shift
    diag_ref, table_ref = _stripe_table(b, r_ref)
    v_ref = diag_ref + np.sum(stripes * table_ref, axis=1)
    take = fit & (v_ref < d2[rows, i])
    r_best, v_best = np.where(take, r_ref, grid[i]), np.where(take, v_ref, d2[rows, i])
    curve = list(zip(ps.tolist(), r_best.tolist(), v_best.tolist()))
    p_sat = next(p for p, _, d2_min in curve if d2_min - curve[-1][2] < saturation_tol)
    return SaturationResult(b=b, p_sat=p_sat, curve=curve)
