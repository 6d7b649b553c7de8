"""Optimal displacement radius and phase-shift saturation.

With X ~ Poisson(b^2), Y ~ Poisson(r^2) and s_j = sin^2(pi j/p), the simplified
distance is C_p(b) + 2 P(X <= Y) / b^2 + (1/p) sum_{j=1}^{p-1} exp(-4r^2 s_j), where
C_p does not depend on r.  So dD^2/dr is -4r times the stationarity expression

    (2/p) sum_j s_j exp(-4r^2 s_j) - P(X = Y + 1) / b^2,
    P(X = Y + 1) / b^2 = e^(-b^2 - r^2) I_1(2rb) / (rb),

a difference of two terms in [0, 1].  The TRAPEZOID_NODES-point rule stands for
p -> infinity, where the expression is e^(-2r^2)/r times the paper's
r I_0(2r^2) - r I_1(2r^2) - (e^(r^2) / (b e^(b^2))) I_1(2rb), whose root is r_min.
At finite p the root is that p's minimizer; D^2(1, r) increases in r and has none.
One search finds them all: the first sign change among r = BRACKET * b, checked by
stationarity, then regula falsi in the Illinois form (Dowell & Jarratt, BIT 11, 1971)
on the unchecked _kernel, with every (b, p) row in the same array calls.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .distances import B_SIMPLIFIED_MIN, ConsistencyError, check_circle, check_disk, hs2_simplified
from .fockspace import disk_cutoff
from .specialfns import SUPPORTED_X_MAX, TRAPEZOID_NODES, TRAPEZOID_NODES_MAX, trapezoid_mean
from .specialfns import ArgumentRangeError

# r_min / b lies in [0.644, 0.890] over the window: [0.6b, 0.9b] brackets every root.
# A finite p's root can lie lower (0.35b at b = 10, p = 2); b / 2000 is the lower end.
# 0.25b splits [b/2000, 0.6b], where at b = 10 the slope falls like e^(-4r^2) and a
# secant from the far end crawls: saturation_sweep(10, 501) takes 41 calls, not 65.
BRACKET = np.array([1 / 2000, 0.25, 0.6, 0.9, 1.0])
# Cap on Illinois steps: saturation_sweep(10, 501) takes 40, a steep root at 0.3b
# with b = 5 takes 30.
MAX_STEPS = 200
# Radii per root search: its first call's (radii, 5, 80-node) exponentials take 13.1 MB.
RADII_PER_SEARCH = 4096


@lru_cache(maxsize=None)
def _circle_rules() -> np.ndarray:
    """[s, weights], row p - 1, p = 1..TRAPEZOID_NODES: s_j = sin^2(pi j / p), j =
    1..TRAPEZOID_NODES // 2, and the weights 2 s_j / p, doubled where node j also stands
    for node p - j (2j < p) and zero past j = p / 2.  Built on first use, read-only."""
    p = np.arange(1, TRAPEZOID_NODES + 1)[:, None]
    j = np.arange(1, TRAPEZOID_NODES // 2 + 1)
    s = np.sin(np.pi * j / p) ** 2
    rules = np.array([s, np.select([2 * j < p, 2 * j == p], [4.0, 2.0]) * s / p])
    rules.setflags(write=False)
    return rules


def _rule_rows(p):
    """[s, weights] for p (which may pass int64); every p >= TRAPEZOID_NODES reads the last."""
    return _circle_rules()[:, np.where(p < TRAPEZOID_NODES, p, TRAPEZOID_NODES).astype(int) - 1]


def _kernel(b, r, s, weight):
    """stationarity on rule rows s, weight, unchecked: r in (0, b], 2rb <= SUPPORTED_X_MAX."""
    x = 2.0 * r * b  # the drive first: its table is freed before the circle table is built
    drive = np.exp(x) * trapezoid_mean(x, TRAPEZOID_NODES)[1] * np.exp(-b * b - r * r) / (r * b)
    terms = (-4.0 * r * r)[..., None] * s
    np.exp(terms, out=terms)  # in place: no second array
    return np.einsum("...j,...j->...", terms, weight) - drive


def stationarity(b, r, p=TRAPEZOID_NODES):
    """-(1/4r) dD^2/dr at p phase shifts, b, r and p (integral, >= 1) broadcast;
    scalars give a float.  Every p >= TRAPEZOID_NODES takes that rule, its aliasing
    below eps: it stands for p -> infinity.  Checks 2rb <= 200 too, then runs _kernel."""
    b, r = check_circle(b, r, p)
    if not (2.0 * r * b <= SUPPORTED_X_MAX).all():
        raise ArgumentRangeError(f"need 2rb <= {SUPPORTED_X_MAX}, got {np.max(2.0 * r * b)}")
    value = _kernel(b, r, *_rule_rows(np.asarray(p)))
    return value if value.ndim else float(value)


def d2_derivative(b, r, p=TRAPEZOID_NODES):
    """dD^2/dr, -4r times the checked stationarity expression; ConsistencyError
    names the first radius where it is not finite, for the search's steps too."""
    d = -4.0 * np.asarray(r) * stationarity(b, r, p)
    if (bad := np.flatnonzero(~np.isfinite(d))).size:
        b, r, _, i = *np.broadcast_arrays(b, r, p), bad[0]
        raise ConsistencyError(f"dD^2/dr is {d.flat[i]} at r={r.flat[i]}, b={b.flat[i]}")
    return d


def find_rmin(b):
    """(r_min, residual): the root of the p -> infinity stationarity expression
    by _search, and d2_derivative there, the slope of the p -> infinity
    distance.  Floats for a radius b, arrays shaped like b for an array; every
    radius must lie in saturation_sweep's window (check_disk).
    ConsistencyError: no sign change, a value not finite, or no convergence."""
    check_disk(b, B_SIMPLIFIED_MIN)
    bs = np.asarray(b, dtype=float)
    flat, r_min, residual = bs.reshape(-1), np.empty(bs.size), np.empty(bs.size)
    for k in range(0, flat.size, RADII_PER_SEARCH):
        block = slice(k, k + RADII_PER_SEARCH)
        r_min[block] = _search(flat[block], TRAPEZOID_NODES)
        residual[block] = d2_derivative(flat[block], r_min[block])
    out = r_min.reshape(bs.shape), residual.reshape(bs.shape)
    return out if bs.ndim else (float(out[0]), float(out[1]))


def _search(b: np.ndarray, p) -> np.ndarray:
    """Root of dD^2/dr per row of the 1-D radii b and phase counts p (one p,
    or one per row): the first sign change among r = BRACKET * b, then one
    Illinois step per array call down to a bracket width of 1e-12.  A
    converged bracket is frozen, so every row gets the root it gets alone."""
    p, rule = np.asarray(p), _rule_rows(p)  # the bracket call checks every r, p a step reaches
    rs = np.multiply.outer(b, BRACKET)
    g = d2_derivative(b[:, None], rs, p[..., None])  # every row's 5 points in one array call
    changes = g[:, :-1] * g[:, 1:] <= 0.0
    if (missing := np.flatnonzero(~changes.any(axis=1))).size:
        i = missing[0]
        raise ConsistencyError(f"stationarity has no sign change in r in [{rs[i, 0]}, {b[i]}]")
    i, rows = np.argmax(changes, axis=1), np.arange(len(b))  # each row's first change
    # (r0, g0) the end kept from before the last step, (r1, g1) the last point
    r0, r1, g0, g1 = rs[rows, i], rs[rows, i + 1], g[rows, i], g[rows, i + 1]
    for _ in range(MAX_STEPS):
        if not (open_ := np.flatnonzero(np.abs(r1 - r0) > 1e-12)).size:
            break
        r0o, r1o, g0o, g1o = r0[open_], r1[open_], g0[open_], g1[open_]
        # the secant's zero, 4e-13 inside the bracket: rounding onto an end would stall
        lo, hi = np.minimum(r0o, r1o) + 4e-13, np.maximum(r0o, r1o) - 4e-13
        x = np.clip((r0o * g1o - r1o * g0o) / (g1o - g0o), lo, hi)
        gx = -4.0 * x * _kernel(b[open_], x, *(rule[:, open_] if p.ndim else rule))
        if not np.isfinite(gx).all():  # the checked call raises, naming the first radius
            d2_derivative(b[open_], x, p[open_] if p.ndim else p)
        # Illinois: the kept end's value is halved when the bracket keeps it again
        flip = np.sign(gx) != np.sign(g1o)
        r0[open_], g0[open_] = np.where(flip, r1o, r0o), np.where(flip, g1o, 0.5 * g0o)
        r1[open_], g1[open_] = x, gx
    if (bad := np.flatnonzero((np.abs(r1 - r0) > 1e-12) | (g0 * g1 > 0.0))).size:
        i = bad[0]  # still open after MAX_STEPS, or its ends do not differ in sign
        raise ConsistencyError(f"root search at b={b[i]} ended on [{r0[i]}, {r1[i]}]")
    return 0.5 * (r0 + r1)


def saturation_sweep(b: float, p_max: int, saturation_tol: float = 1e-4):
    """(p_sat, r_at_min, d2_min): the simplified distance minimized over r in
    [BRACKET[0] * b, b] for each p = 1..p_max, arrays indexed by p - 1.  Each
    radius is the root of its slope by _search, one row per distinct rule, and
    D^2 there comes from one hs2_simplified call.  Every p >= min(dim,
    TRAPEZOID_NODES) shares the p -> infinity row: hs2_simplified gives p >= dim
    no stripe, and past TRAPEZOID_NODES nodes the rule no longer changes.  p = 1
    takes the lower end; a p >= 2 without a sign change is a ConsistencyError.

    p_sat is the smallest p whose minimum is within ``saturation_tol``
    (absolute, in D^2) of the p_max minimum.
    """
    if not 2 <= p_max <= TRAPEZOID_NODES_MAX:
        # rows past p = dim - 1 repeat the last; the cap only bounds the output
        raise ValueError(f"p_max must be in [2, {TRAPEZOID_NODES_MAX}], got {p_max}")
    if not 0 < saturation_tol < math.inf:
        raise ValueError(f"saturation_tol must be positive and finite, got {saturation_tol}")
    check_disk(b, B_SIMPLIFIED_MIN)  # before b scales the bracket
    cap = min(disk_cutoff(b).dim, TRAPEZOID_NODES)
    rows = np.arange(1, min(p_max, cap) + 1)  # row cap is p -> infinity
    rules = np.where(rows < cap, rows, TRAPEZOID_NODES)[1:]
    # D^2(1, r) increases in r: p = 1 takes the lower end, every other row its root
    r_row = np.append(BRACKET[0] * b, _search(np.full(len(rules), float(b)), rules))
    of = np.minimum(np.arange(p_max), cap - 1)
    r_at_min, d2_min = r_row[of], hs2_simplified(b, rows, r_row)[of]
    return 1 + int(np.argmax(d2_min - d2_min[-1] < saturation_tol)), r_at_min, d2_min
