"""Analytic Hilbert-Schmidt distances and the key-length estimate.

The N-circle distance comes from the Fock-space stripes of Phi_N: circle
p at radius r_p = p b / N adds p c_m(r_p) c_n(r_p) / M wherever p divides
m - n, with c_n(r) = e^(-r^2/2) r^n / sqrt(n!) taken from its logarithm.
Only circles with p < dim reach an off-diagonal entry.  The disk-mixed
state is the diagonal u_n = P(X > n) / b^2, X ~ Poisson(b^2), so
D^2 = sum_n (Phi_nn - u_n)^2 + sum_{m != n} Phi_mn^2 is a sum of
non-negative terms; it never forms the cancelling difference
Tr(unit^2) - 2 Tr(unit Phi_N) + Tr(Phi_N^2).

The simplified protocol's cross term needs sum_k (b/r)^k I_k(2rb), taken
through the regrouping sum_s (r^(2s)/s!) sum_{m>s} b^(2m)/m! -- the same
terms, free of the (b/r)^k overflow of the literal form for r << b.  The
purity of p phase-shifted states on one circle is the finite mean of
their coherent overlaps, so the simplified distance is array-valued in r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ensembles import B_MIN, disk_state_weights
from .fockspace import CutoffPolicy
from .specialfns import (
    SUPPORTED_X_MAX,
    TRAPEZOID_NODES,
    TRAPEZOID_NODES_MAX,
    ArgumentRangeError,
    trapezoid_mean,
    trapezoid_rule,
)

# The cross series stops once a term falls below SERIES_EPS relative, after
# at least KSUM_FLOOR terms (no exit near a zero partial sum) and within
# SERIES_MAX_TERMS terms.
SERIES_EPS = 1e-15
SERIES_MAX_TERMS = 10_000
KSUM_FLOOR = 30

# Poisson mass of the disk state beyond the stripe kernel's Fock cutoff.
STRIPE_TAIL_BUDGET = 1e-12

# Largest supported circle count: the N x dim amplitude array stays below
# about 150 MB at b = 10, and the eps*N relative error of D^2 below 1e-10.
N_MAX = 100_000


class ConsistencyError(RuntimeError):
    """A series ran out of terms, or an assembled quantity violates an
    exact property (series too loose)."""


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


def cross_bessel_sum(b: float, r):
    """sum_{k>=1} (b/r)^k I_k(2rb), via the stable regrouping.

    Expanding each Bessel series and collecting powers of r gives
    sum_s (r^(2s)/s!) * sum_{m>s} b^(2m)/m!; the inner sum is tracked by
    decrementing the full exponential series term by term.  An array r
    runs until every element meets the cutoff; a scalar r gives a float.
    Running out of SERIES_MAX_TERMS first raises ConsistencyError.
    """
    r = np.asarray(r, dtype=float)
    if not (b > 0 and np.all(r > 0)):
        raise ValueError("b and r must be positive")
    lam = b * b
    # g_s = sum_{m>s} b^(2m)/m!, walked down from e^(b^2) - 1
    g = math.expm1(lam)
    pmf = 1.0  # b^(2s)/s!
    total = np.zeros_like(r)
    term_r = np.ones_like(r)  # r^(2s)/s!
    r2 = r * r
    s = 0
    while s < SERIES_MAX_TERMS:
        total += term_r * g
        s += 1
        pmf *= lam / s
        g -= pmf
        if g <= 0.0:
            break
        term_r *= r2 / s
        if s >= KSUM_FLOOR and np.all(term_r * g < SERIES_EPS * total):
            break
    else:
        raise ConsistencyError(f"cross series not converged in {SERIES_MAX_TERMS} terms")
    return total if total.ndim else float(total)


@lru_cache(maxsize=None)
def trace_unit_sq(b: float) -> float:
    """Purity (1 - e^(-x) [I_0(x) + I_1(x)]) / b^2, x = 2b^2, of the disk-mixed
    state for B_MIN <= b <= 10: the trapezoid mean of the non-negative terms
    (1 + cos theta_j)(1 - exp(-2x sin^2(theta_j/2))), 1 + cos = 2 - 2 sin^2."""
    if not b >= B_MIN:
        raise ValueError(f"b must be positive and at least {B_MIN}, got {b}")
    x = 2.0 * b * b
    if x > SUPPORTED_X_MAX:
        raise ArgumentRangeError(f"b={b} outside the window 2b^2 <= {SUPPORTED_X_MAX}")
    half2 = trapezoid_rule(0, TRAPEZOID_NODES)[0]
    return float(np.mean(2.0 * (1.0 - half2) * -np.expm1(-2.0 * x * half2))) / (b * b)


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


def hs2_exact(b: float, n_circles: int) -> DistanceReport:
    """Exact squared HS distance between the disk-mixed state and the
    N-circle encryption mixture, from the Fock stripes of Phi_N.

    Costs O(N dim + dim^3) at the disk state's Fock cutoff dim (tail
    budget STRIPE_TAIL_BUDGET); N must lie in [1, N_MAX].
    """
    if not 1 <= n_circles <= N_MAX:
        raise ValueError(f"N must be in [1, {N_MAX}], got {n_circles}")
    tu = trace_unit_sq(b)  # validates b
    dim = CutoffPolicy(b, tail_budget=STRIPE_TAIL_BUDGET).dim
    unit = disk_state_weights(b, dim)
    n = np.arange(dim)
    p = np.arange(1, n_circles + 1)
    r = p * (b / n_circles)
    # c_n(r_p) from its logarithm, in place: this N x dim array dominates memory
    amp = np.outer(np.log(r), n)
    amp -= (0.5 * r * r)[:, None]
    amp -= 0.5 * np.array([math.lgamma(m + 1.0) for m in range(dim)])
    np.exp(amp, out=amp)
    norm = 2.0 / (n_circles * (n_circles + 1))  # 1/M
    # entries above the diagonal, k = column - row > 0: circle q needs q | k
    k = n[None, :] - n[:, None]
    upper = np.zeros((dim, dim))
    for q in range(1, min(n_circles, dim - 1) + 1):
        on_stripe = (k > 0) & (k % q == 0)
        upper += np.where(on_stripe, q * np.outer(amp[q - 1], amp[q - 1]), 0.0)
    off2 = 2.0 * float(np.sum(np.square(norm * upper)))  # sum_{m != n} Phi_mn^2
    diag = norm * (p @ np.square(amp, out=amp))
    return DistanceReport(
        b=b,
        n_circles=n_circles,
        d2_exact=float(np.sum(np.square(diag - unit))) + off2,
        d2_guess=hs2_guess(n_circles),
        tr_unit2=tu,
        tr_cross=float(unit @ diag),
        tr_phi2=float(diag @ diag) + off2,
    )


def trace_cross(b: float, n_circles: int) -> float:
    """Cross trace Tr(unit Phi_N) = sum_n u_n Phi_nn, read from hs2_exact."""
    return hs2_exact(b, n_circles).tr_cross


def trace_phi_sq(b: float, n_circles: int) -> float:
    """Purity Tr(Phi_N^2) = sum_mn Phi_mn^2 of Phi_N, read from hs2_exact."""
    return hs2_exact(b, n_circles).tr_phi2


def _circle_purity(p: int, r: np.ndarray) -> np.ndarray:
    """Mean overlap (1/p) sum_q exp(-4 r^2 sin^2(pi q/p)) of p phase-shifted
    states: the p-node trapezoid mean at x = 2r^2, capped at
    TRAPEZOID_NODES_MAX nodes."""
    return trapezoid_mean(2.0 * r * r, 0, min(p, TRAPEZOID_NODES_MAX))


def hs2_simplified(b: float, p: int, r):
    """Squared HS distance for the simplified protocol: one circle of p
    phase-shifted states at radius r (an array, or a scalar for a float)
    against the disk-mixed state."""
    rs = np.asarray(r, dtype=float)
    if not np.all((0 < rs) & (rs <= b)):
        raise ValueError(f"r must be in (0, b], got r={r}, b={b}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    tu = trace_unit_sq(b)
    cross = 2.0 * np.exp(-rs * rs) * cross_bessel_sum(b, rs) / (b * b * math.exp(b * b))
    d2 = tu - cross + _circle_purity(p, rs)
    if np.min(d2) < -1e-12:  # the cross series truncated too early
        raise ConsistencyError(f"squared distance {np.min(d2)} negative beyond roundoff")
    d2 = np.maximum(d2, 0.0)
    return d2 if d2.ndim else float(d2)


def key_bits(d_hs: float) -> float:
    """Key length estimate -1 - 2 log2(D_HS) for a target distance."""
    if not 0 < d_hs < 1:
        raise ValueError(f"estimate requires 0 < d_hs < 1, got {d_hs}")
    return -1.0 - 2.0 * math.log2(d_hs)


def exact_key_bits(n_circles: int) -> float:
    """Exact key length log2 M for the N-circle protocol."""
    if n_circles < 1:
        raise ValueError(f"N must be >= 1, got {n_circles}")
    return math.log2(n_circles) + math.log2(n_circles + 1) - 1.0
