"""Analytic Hilbert-Schmidt distances and the key-length estimate.

The squared distance between the disk-mixed state and the encryption
mixture decomposes into three traces,

    D^2 = Tr(unit^2) - 2 Tr(unit * Phi_N) + Tr(Phi_N^2),

each of which reduces to modified Bessel series.  The cross trace's
k-sum sum_k (b/r)^k I_k(2rb) is evaluated through the regrouping
sum_s (r^(2s)/s!) sum_{m>s} b^(2m)/m! -- the same term set, but free of
the (b/r)^k overflow that the literal form hits for r << b.  The purity
of one circle of p phase-shifted states is the finite mean of their
coherent overlaps, so the simplified distance is array-valued in r.

Tr(rho_p1 rho_p2) stripes sit at multiples of lcm(p1, p2): the entries of
the two circle mixtures overlap exactly where both stripe conditions
hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specialfns import DEFAULT_TOL, SeriesTolerance, bessel_i, bessel_sum
from .specialfns import SUPPORTED_ORDER_MAX

# k-sums get a floor of this many terms before the relative cutoff may
# fire; guards against premature exit near zero partial sums.
KSUM_FLOOR = 30


class ConsistencyError(RuntimeError):
    """Assembled quantity violates an exact property (series too loose)."""


@dataclass(frozen=True)
class DistanceReport:
    """Exact and approximate squared HS distances, with the three traces."""

    b: float
    n_circles: int
    d2_exact: float
    d2_guess: float
    tr_unit2: float = 0.0
    tr_cross: float = 0.0
    tr_phi2: float = 0.0


def cross_bessel_sum(b: float, r, tol: SeriesTolerance = DEFAULT_TOL):
    """sum_{k>=1} (b/r)^k I_k(2rb), via the stable regrouping.

    Expanding each Bessel series and collecting powers of r gives
    sum_s (r^(2s)/s!) * sum_{m>s} b^(2m)/m!; the inner sum is tracked by
    decrementing the full exponential series term by term.  An array r
    runs until every element meets the cutoff; a scalar r gives a float.
    """
    r = np.asarray(r, dtype=float)
    if not (b > 0 and np.all(r > 0)):
        raise ValueError("b and r must be positive")
    lam = b * b
    # g_s = sum_{m>s} b^(2m)/m!, walked down from e^(b^2) - 1
    pmf = math.exp(lam)  # will hold b^(2s)/s! (unnormalized)
    g = pmf - 1.0
    pmf = 1.0
    total = np.zeros_like(r)
    term_r = np.ones_like(r)  # r^(2s)/s!
    r2 = r * r
    s = 0
    while s < tol.max_terms:
        total += term_r * g
        s += 1
        pmf *= lam / s
        g -= pmf
        if g <= 0.0:
            break
        term_r *= r2 / s
        if s >= KSUM_FLOOR and np.all(term_r * g < tol.eps_abs * total):
            break
    return total if total.ndim else float(total)


@lru_cache(maxsize=None)
def trace_unit_sq(b: float, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Purity of the disk-mixed state:
    (e^(2b^2) - I_0(2b^2) - I_1(2b^2)) / (b^2 e^(2b^2))."""
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    x = 2.0 * b * b
    return (1.0 - math.exp(-x) * (bessel_i(0, x, tol) + bessel_i(1, x, tol))) / (b * b)


def trace_cross(b: float, n_circles: int, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Cross trace of the disk-mixed state against the N-circle mixture."""
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    if n_circles < 1:
        raise ValueError(f"N must be >= 1, got {n_circles}")
    p = np.arange(1, n_circles + 1)
    r_p = p * b / n_circles
    acc = float(np.sum(p * np.exp(-r_p * r_p) * cross_bessel_sum(b, r_p, tol)))
    norm = 2.0 / (n_circles * (n_circles + 1))
    return norm * acc / (b * b * math.exp(b * b))


def trace_phi_sq(b: float, n_circles: int, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Purity of the N-circle mixture.

    Pairs of circles overlap on stripes at multiples of lcm(p1, p2) with
    Bessel argument 2 r_p1 r_p2; the summand is symmetric, so p2 >= p1.
    """
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    if n_circles < 1:
        raise ValueError(f"N must be >= 1, got {n_circles}")
    scale = b / n_circles
    acc = 0.0
    for p1 in range(1, n_circles + 1):
        r1 = p1 * scale
        for p2 in range(p1, n_circles + 1):
            r2 = p2 * scale
            x = 2.0 * r1 * r2
            step = math.lcm(p1, p2)
            stripe = bessel_i(0, x, tol) + 2.0 * bessel_sum(step, x, tol)
            weight = p1 * p2 if p1 == p2 else 2 * p1 * p2
            acc += weight * math.exp(-(r1 * r1 + r2 * r2)) * stripe
    norm = 2.0 / (n_circles * (n_circles + 1))
    return norm * norm * acc


def hs2_guess(n_circles: int) -> float:
    """Rough estimate 1/(N+1)^2 of the squared distance, independent of b.

    The true leading term is C(b)/N^2 with
    C(b) = e^(-2b^2) [I_0(2b^2) - I_1(2b^2) / b^2] <= 0.1182, the squared
    distance between the continuous circle average at radius b and the
    disk-mixed state; the estimate overstates D^2 by a factor 1/C(b).
    """
    if n_circles < 1:
        raise ValueError(f"N must be >= 1, got {n_circles}")
    return 1.0 / (n_circles + 1) ** 2


def _clamp_d2(d2):  # elementwise; a scalar d2 returns a float
    if np.min(d2) < -1e-12:
        raise ConsistencyError(
            f"squared distance {np.min(d2)} negative beyond roundoff; "
            "series truncation too loose"
        )
    d2 = np.maximum(d2, 0.0)
    return d2 if d2.ndim else float(d2)


def hs2_exact(
    b: float, n_circles: int, tol: SeriesTolerance = DEFAULT_TOL
) -> DistanceReport:
    """Exact squared HS distance between the disk-mixed state and the
    N-circle encryption mixture, assembled from the three traces."""
    tu = trace_unit_sq(b, tol)
    tc = trace_cross(b, n_circles, tol)
    tp = trace_phi_sq(b, n_circles, tol)
    return DistanceReport(
        b=b,
        n_circles=n_circles,
        d2_exact=_clamp_d2(tu - 2.0 * tc + tp),
        d2_guess=hs2_guess(n_circles),
        tr_unit2=tu,
        tr_cross=tc,
        tr_phi2=tp,
    )


def _circle_purity(p: int, r: np.ndarray) -> np.ndarray:
    """Mean overlap (1/p) sum_q exp(-4 r^2 sin^2(pi q/p)) of p phase-shifted
    states; past SUPPORTED_ORDER_MAX + 1 angles the change is below 1e-270."""
    angles = min(p, SUPPORTED_ORDER_MAX + 1)
    chord2 = 4.0 * r * r  # |alpha_q - alpha_0|^2 = chord2 sin^2(pi q/p)
    total = np.zeros_like(r)
    for q in range(angles):
        total += np.exp(-chord2 * math.sin(math.pi * q / angles) ** 2)
    return total / angles


def hs2_simplified(b: float, p: int, r, tol: SeriesTolerance = DEFAULT_TOL):
    """Squared HS distance for the simplified protocol: one circle of p
    phase-shifted states at radius r (an array, or a scalar for a float)
    against the disk-mixed state."""
    rs = np.asarray(r, dtype=float)
    if not np.all((0 < rs) & (rs <= b)):
        raise ValueError(f"r must be in (0, b], got r={r}, b={b}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    tu = trace_unit_sq(b, tol)
    cross = 2.0 * np.exp(-rs * rs) * cross_bessel_sum(b, rs, tol) / (b * b * math.exp(b * b))
    return _clamp_d2(tu - cross + _circle_purity(p, rs))


def key_bits(d_hs: float) -> float:
    """Key length estimate -1 - 2 log2(D_HS) for a target distance."""
    if not 0 < d_hs < 1:
        raise ValueError(f"estimate requires 0 < d_hs < 1, got {d_hs}")
    return -1.0 - 2.0 * math.log2(d_hs)


def exact_key_bits(n_circles: int) -> float:
    """Exact key length log2 M for the N-circle protocol."""
    if n_circles < 1:
        raise ValueError(f"N must be >= 1, got {n_circles}")
    return math.log2(n_circles * (n_circles + 1) / 2)
