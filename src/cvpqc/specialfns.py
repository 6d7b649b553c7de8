"""Series evaluation of modified Bessel functions and Poisson tail sums.

The distance traces, the optimizer and the disk state reduce to three
scalar series: I_n(x), stripe sums of I_nk(x), and upper Poisson tails.
All series run in plain double precision with relative truncation;
factorials never appear explicitly, only term ratios.  The Bessel series
(and the cross series in `distances`) stop once a term drops below the
fixed SERIES_EPS times the running sum, within SERIES_MAX_TERMS terms.
"""

from __future__ import annotations

import math

# Documented support window; series terms stay inside double range here.
SUPPORTED_X_MAX = 200.0
SUPPORTED_ORDER_MAX = 500

SERIES_EPS = 1e-15
SERIES_MAX_TERMS = 10_000

_LOG_2PI = math.log(2.0 * math.pi)


class ArgumentRangeError(ValueError):
    """Argument outside the supported (x, order) window."""


def _check_range(order: int, x: float):
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    if x > SUPPORTED_X_MAX or order > SUPPORTED_ORDER_MAX:
        raise ArgumentRangeError(
            f"argument out of supported range: order={order} (max "
            f"{SUPPORTED_ORDER_MAX}), x={x} (max {SUPPORTED_X_MAX})"
        )


def bessel_i(order: int, x: float) -> float:
    """Modified Bessel function of the first kind, I_order(x).

    Evaluated as sum_s (x/2)^(order+2s) / ((order+s)! s!) with the leading
    term built by incremental ratios (no factorial table) and the tail cut
    by the relative rule.
    """
    _check_range(order, x)
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    h = 0.5 * x
    term = 1.0
    for k in range(1, order + 1):
        term *= h / k
    if term == 0.0:
        # leading term underflows; every later term is smaller still
        return 0.0
    total = term
    h2 = h * h
    for s in range(1, SERIES_MAX_TERMS):
        term *= h2 / ((order + s) * s)
        total += term
        if term < SERIES_EPS * total:
            break
    return total


def bessel_sum(order_step: int, x: float) -> float:
    """Stripe sum sum_{k>=1} I_{order_step*k}(x).

    Terms decay super-exponentially once order_step*k exceeds x, so the
    sum is cut when a term falls below SERIES_EPS*(running sum + 1).
    """
    if order_step < 1:
        raise ValueError(f"order_step must be >= 1, got {order_step}")
    _check_range(0, x)
    if x == 0.0:
        return 0.0
    total = 0.0
    for k in range(1, SERIES_MAX_TERMS):
        order = order_step * k
        if order > SUPPORTED_ORDER_MAX:
            break  # term already below any representable contribution
        term = bessel_i(order, x)
        total += term
        if term < SERIES_EPS * (total + 1.0):
            break
    return total


def _poisson_log_pmf(n: int, lam: float) -> float:
    """log(lam^n e^(-lam) / n!) as n log1p((lam - n)/n) + (n - lam) minus
    Stirling's remainder and log sqrt(2 pi n).  The literal form
    n log(lam) - lgamma(n + 1) - lam cancels terms near 5000 at lam ~ 740."""
    if n == 0:
        return -lam
    if n > 15:
        k = 1.0 / (n * n)
        stirling = (1 / 12 - k * (1 / 360 - k * (1 / 1260 - k / 1680))) / n
    else:
        stirling = math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - 0.5 * _LOG_2PI
    return n * math.log1p((lam - n) / n) + (n - lam) - stirling - 0.5 * (_LOG_2PI + math.log(n))


def poisson_tail(n: int, lam: float) -> float:
    """Upper Poisson tail P(X > n) = sum_{m>n} lam^m e^(-lam) / m!.

    The term at m = n comes from its logarithm, so no start value
    underflows (e^(-lam) does for lam > 745); the series then recurs
    outward.  For n < lam the tail is one minus the (fsum compensated)
    terms m <= n, walked down from n; for n >= lam the terms m > n are
    summed directly.  Both flanks avoid the cancellation the other one
    would suffer, and each stops once its terms fall below 1e-18 relative.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
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
    # n >= lam: terms beyond n are decreasing
    total = 0.0
    for m in range(n + 1, n + 10_001):
        term *= lam / m
        total += term
        if term <= 1e-18 * total:
            break
    return total
