"""Optimal displacement radius and phase-shift saturation.

For the simplified protocol the squared HS distance, in the limit of many
phase shifts, has a single interior minimum in the displacement radius.
Its stationarity condition (derivative of the p -> infinity distance set
to zero) reads

    r I_0(2r^2) - r I_1(2r^2) - (e^(r^2) / (b e^(b^2))) I_1(2rb) = 0,

positive near r = 0 and negative at r = b, so a bracketing scan plus
repeated splits of the bracket find the root, for a whole grid of radii
in the same array calls.  At finite p there is no
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
# Radii per root search: its scan's (radii, SCAN_POINTS + 1, 81-node) Bessel terms
# stay near 17 MB, however long the grid.
RADII_PER_SEARCH = 128
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
    drive = bessel_i(1, 2.0 * r * b) * np.exp(r * r - b * b) / b
    value = r * bessel_i(0, x) - r * bessel_i(1, x) - drive
    return value if value.ndim else float(value)


def d2_derivative(b, r):
    """dD^2/dr of the p -> infinity simplified distance:
    -4 e^(-2r^2) times the stationarity expression."""
    return -4.0 * np.exp(-2.0 * np.square(r)) * stationarity(b, r)


def find_rmin(b):
    """Root of the stationarity expression for a radius b, or a list of roots
    for an array of radii: a bracketing scan, then SPLIT_PARTS-part splits of
    the bracket down to a width of 1e-12.  All radii share each array call;
    a bracket that has converged is frozen, so every radius gets the root it
    gets alone.

    Raises ConsistencyError if the scan finds no sign change.
    """
    bs = np.asarray(b, dtype=float)
    flat = bs.reshape(-1)
    outside = ~((B_SIMPLIFIED_MIN <= flat) & (flat <= 7))
    if outside.any():
        raise ValueError(f"b must be in [{B_SIMPLIFIED_MIN}, 7], got {flat[outside][0]}")
    results = [
        res
        for start in range(0, flat.size, RADII_PER_SEARCH)
        for res in _search(flat[start : start + RADII_PER_SEARCH])
    ]
    return results if bs.ndim else results[0]


def _search(b: np.ndarray) -> list[RminResult]:
    """find_rmin for a 1-D array of radii in the window."""
    lo = 0.01 * b
    step = (b - lo) / SCAN_POINTS
    rs = np.minimum(lo[:, None] + np.arange(SCAN_POINTS + 1) * step[:, None], b[:, None])
    f = stationarity(b[:, None], rs)  # the whole scan in one array call
    changes = f[:, :-1] * f[:, 1:] <= 0.0
    missing = np.flatnonzero(~changes.any(axis=1))
    if missing.size:
        i = missing[0]
        raise ConsistencyError(f"stationarity has no sign change in r in [{lo[i]}, {b[i]}]")
    i, rows = np.argmax(changes, axis=1), np.arange(len(b))  # each row's first change
    a, c, fa = rs[rows, i], rs[rows, i + 1], f[rows, i]
    while (open_ := np.flatnonzero(c - a > 1e-12)).size:
        ao, co, fo = a[open_], c[open_], fa[open_]
        # a, the SPLIT_PARTS - 1 split points, c
        ms = np.column_stack(
            [ao, ao[:, None] + (co - ao)[:, None] * np.arange(1, SPLIT_PARTS) / SPLIT_PARTS, co]
        )
        fm = stationarity(b[open_, None], ms[:, 1:-1])
        past = fo[:, None] * fm <= 0.0  # split points on c's side of the root
        k = np.where(past.any(axis=1), np.argmax(past, axis=1), SPLIT_PARTS - 1)
        at = np.arange(len(open_))
        a[open_], c[open_], fa[open_] = ms[at, k], ms[at, k + 1], np.column_stack([fo, fm])[at, k]
    r_min = 0.5 * (a + c)
    residual = d2_derivative(b, r_min)
    return [RminResult(*row) for row in zip(b.tolist(), r_min.tolist(), residual.tolist())]


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
