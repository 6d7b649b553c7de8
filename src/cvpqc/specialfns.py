"""Modified Bessel functions by the periodic trapezoid rule, and upper
Poisson tails.

e^(-x) I_n(x) is the mean of exp(-2x sin^2(theta/2)) cos(n theta) over the
circle.  The integrand is periodic and entire, so the K-point trapezoid
rule at theta_j = 2 pi j / K errs only by the aliasing terms
e^(-x) I_(jK +- n)(x), j >= 1 (Trefethen & Weideman, SIAM Review 56, 2014),
below 7e-27 relative at the fixed K = 160 for n <= 1 and x <= 200: no
series is left to truncate.  sin^2(theta/2) keeps the digits that
cos(theta) - 1 loses near theta = 0.  Nodes j and K - j carry the same
sin^2 and cosine, so the rule is summed over the distinct nodes
j = 0..K//2 only.  The Poisson tail starts from the term at m = n, taken
from its logarithm, and recurs outward.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Validated window of the K-point rule, and its node count.
SUPPORTED_X_MAX = 200.0
TRAPEZOID_NODES = 160
# Largest useful node count: past it the aliasing terms fall below 5e-212.
TRAPEZOID_NODES_MAX = 501

_LOG_2PI = math.log(2.0 * math.pi)


class ArgumentRangeError(ValueError):
    """Argument outside the supported (x, order) window."""


@lru_cache(maxsize=None)
def trapezoid_rule(order: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """sin^2(theta_j / 2) and the weights cos(order theta_j) / nodes at the
    distinct nodes theta_j = 2 pi j / nodes, j = 0..nodes//2; a weight counts
    twice where node j also stands for node nodes - j (0 < j < nodes/2).
    Built on first use, read-only."""
    j = np.arange(nodes // 2 + 1)
    theta = 2.0 * math.pi * j / nodes
    folds = np.where((j > 0) & (2 * j < nodes), 2.0, 1.0)
    rule = np.sin(0.5 * theta) ** 2, folds * np.cos(order * theta) / nodes
    for array in rule:
        array.setflags(write=False)
    return rule


def trapezoid_mean(x, order: int, nodes: int):
    """(1/nodes) sum_j exp(-2x sin^2(theta_j/2)) cos(order theta_j) for
    array x: e^(-x) I_order(x) plus the aliasing terms.  For order >= 1
    the cosines sum to zero, so expm1 may stand in for exp; it keeps the
    relative accuracy as x -> 0."""
    half2, weight = trapezoid_rule(order, nodes)
    terms = np.multiply.outer(-2.0 * np.asarray(x, dtype=float), half2)
    (np.exp if order == 0 else np.expm1)(terms, out=terms)  # in place: no second array
    return terms @ weight


def bessel_i(order: int, x):
    """Modified Bessel function I_order(x) for order 0 or 1 and array x,
    e^x times the TRAPEZOID_NODES-point rule; a scalar x gives a float."""
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValueError(f"x must be non-negative, got {np.min(x)}")
    if order not in (0, 1) or not (x <= SUPPORTED_X_MAX).all():
        raise ArgumentRangeError(
            f"need order 0 or 1 and x <= {SUPPORTED_X_MAX}, got order {order}, x={np.max(x)}"
        )
    value = np.exp(x) * trapezoid_mean(x, order, TRAPEZOID_NODES)
    return value if value.ndim else float(value)


def bessel_sum(order_step: int, x):
    """Stripe sum sum_{k>=1} I_(order_step k)(x) in closed form: e^x times
    the order_step-node mean is I_0(x) + 2 sum_k I_(order_step k)(x).
    Nothing in the package calls it; perfbench/child.py traces it."""
    if order_step < 1:
        raise ValueError(f"order_step must be >= 1, got {order_step}")
    mean = trapezoid_mean(x, 0, min(order_step, TRAPEZOID_NODES_MAX))
    return 0.5 * (np.exp(x) * mean - bessel_i(0, x))  # bessel_i checks the window


def _poisson_log_pmf(n: int, lam: float) -> float:
    """log(lam^n e^(-lam) / n!), n >= 1, as n log(lam/n) + (n - lam) minus
    Stirling's remainder and log sqrt(2 pi n); the literal form cancels
    terms near 5000 at lam ~ 740.  log1p((lam - n)/n) keeps the digits of
    log(lam/n) near the mode, but loses those of lam when lam < n/2."""
    if n > 15:
        k = 1.0 / (n * n)
        stirling = (1 / 12 - k * (1 / 360 - k * (1 / 1260 - k / 1680))) / n
    else:
        stirling = math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - 0.5 * _LOG_2PI
    log_ratio = math.log1p((lam - n) / n) if 2.0 * lam >= n else math.log(lam / n)
    return n * log_ratio + (n - lam) - stirling - 0.5 * (_LOG_2PI + math.log(n))


def poisson_tail(n: int, lam: float) -> float:
    """Upper Poisson tail P(X > n) = sum_{m>n} lam^m e^(-lam) / m!.

    P(X > 0) is -expm1(-lam).  Otherwise the term at m = n comes from its
    logarithm, so no start value underflows (e^(-lam) does for lam > 745),
    and the series recurs outward: for n < lam the tail is one minus the
    fsum of the terms m <= n, walked down from n; for n >= lam the terms
    m > n are summed directly, so neither flank cancels.  Each stops once
    its terms fall below 1e-18 relative.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    if n == 0:
        return -math.expm1(-lam)
    if lam == 0.0:
        return 0.0
    term = math.exp(_poisson_log_pmf(n, lam))
    if n < lam:  # terms fall as m walks down from n, below the mode
        terms = [term]
        m = n
        while m > 0 and term > 1e-18 * terms[0]:
            term *= m / lam
            m -= 1
            terms.append(term)
        return max(1.0 - math.fsum(terms), 0.0)
    # n >= lam: the ratio lam / m < 1 falls, so the terms beyond n die out
    total, m = 0.0, n
    while True:
        m += 1
        term *= lam / m
        total += term
        if term <= 1e-18 * total:
            return total
