"""Modified Bessel functions by the periodic trapezoid rule, coherent-state
amplitudes, and upper Poisson tails.

e^(-x) I_0(x) is the mean of exp(-2x sin^2(theta/2)) over the circle, and
integration by parts gives e^(-x) I_1(x) as x times the mean of
sin^2(theta) exp(-2x sin^2(theta/2)), whose terms are all non-negative.
Both integrands are periodic and entire, so the K-point trapezoid rule at
theta_j = 2 pi j / K errs only by aliasing terms from the Fourier orders
K - 2 and up (Trefethen & Weideman, SIAM Review 56, 2014), far below eps
at the fixed K = 160 for x <= 200: no series is left to truncate.
sin^2(theta/2) keeps the digits that cos(theta) - 1 loses near theta = 0.
Nodes j and K - j carry the same sin^2, so the rule sums over the distinct
nodes j = 0..K//2 only, and both orders read one table of exponentials.

The Poisson terms P(X = m) are the squared coherent amplitudes, and every
upper tail is one reverse cumulative sum of them, so no term cancels.  The
sum stops at the Chernoff cut, the first m past which the bound
e^(-lam) (e lam / m)^m on the tail is below e^(-745), under the smallest
double: m = 20 at lam = 1e-16, 692 at lam = 100.  The window
lam <= POISSON_LAM_MAX keeps the first amplitude e^(-lam/2) a normal double.
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

# Largest Poisson mean: e^(-lam/2) stays a normal double.
POISSON_LAM_MAX = 1400.0
# -ln of the Poisson mass past the cut: e^(-745) is below the smallest double.
POISSON_LOG_CUT = 745.0
CUT_NEWTON_STEPS = 10  # on the cut; 5 suffice for every lam in (0, POISSON_LAM_MAX]


class ArgumentRangeError(ValueError):
    """Argument outside the supported (x, order) window."""


@lru_cache(maxsize=None)
def trapezoid_rule(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin^2(theta_j / 2) and the weights 1 / nodes and sin^2(theta_j) / nodes
    of orders 0 and 1 at the distinct nodes theta_j = 2 pi j / nodes,
    j = 0..nodes//2; a weight counts twice where node j also stands for
    node nodes - j (0 < j < nodes/2).  Built on first use, read-only."""
    j = np.arange(nodes // 2 + 1)
    half2 = np.sin(math.pi * j / nodes) ** 2
    folds = np.where((j > 0) & (2 * j < nodes), 2.0, 1.0)
    rule = half2, folds / nodes, folds * (4.0 * half2 * (1.0 - half2)) / nodes  # sin^2 = 4h(1 - h)
    for array in rule:
        array.setflags(write=False)
    return rule


def trapezoid_mean(x, nodes: int):
    """(x^order / nodes) sum_j sin^(2 order)(theta_j) exp(-2x sin^2(theta_j/2))
    for array x, orders 0 and 1 from one table of exponentials: e^(-x) I_0(x)
    and e^(-x) I_1(x) plus the aliasing terms, from non-negative terms only."""
    x = np.asarray(x, dtype=float)
    half2, weight0, weight1 = trapezoid_rule(nodes)
    terms = np.multiply.outer(-2.0 * x, half2)
    np.exp(terms, out=terms)  # in place: no second array
    return terms @ weight0, x * (terms @ weight1)


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
    value = np.exp(x) * trapezoid_mean(x, TRAPEZOID_NODES)[order]
    return value if value.ndim else float(value)


def bessel_sum(order_step: int, x):
    """Stripe sum sum_{k>=1} I_(order_step k)(x) in closed form: e^x times
    the order_step-node mean is I_0(x) + 2 sum_k I_(order_step k)(x).
    Nothing in the package calls it; perfbench/child.py traces it."""
    if order_step < 1:
        raise ValueError(f"order_step must be >= 1, got {order_step}")
    mean = trapezoid_mean(x, min(order_step, TRAPEZOID_NODES_MAX))[0]
    return 0.5 * (np.exp(x) * mean - bessel_i(0, x))  # bessel_i checks the window


def coherent_amplitudes(r, dim: int) -> np.ndarray:
    """Fock amplitudes e^(-r^2/2) r^n / sqrt(n!) of the coherent state at
    real radius r, n < dim, by recurrence; one row per radius of an array r.
    Filled in place, so the output is the only array of its size."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError(f"radius must be non-negative, got {r}")
    c = np.empty(r.shape + (dim,))
    c[..., 0] = np.exp(-0.5 * r**2)
    np.divide(r[..., None], np.sqrt(np.arange(1, dim)), out=c[..., 1:])  # c_n = c_(n-1) r / sqrt(n)
    return np.cumprod(c, axis=-1, out=c)


def poisson_cut(lam: float) -> int:
    """Smallest m > lam with lam - m + m ln(m / lam) >= L, L = 745, and 0 at
    lam = 0: by the Chernoff bound P(X >= m) <= e^(-lam) (e lam / m)^m,
    P(X > cut) < e^(-L), below the smallest double, for X ~ Poisson(lam).
    The exponent is convex and increasing in m > lam, so Newton's method
    from the looser cut lam + sqrt(2 lam L) + 2L never passes below its root."""
    if lam == 0.0:
        return 0
    log_lam = math.log(lam)
    m = lam + math.sqrt(2.0 * POISSON_LOG_CUT * lam) + 2.0 * POISSON_LOG_CUT
    for _ in range(CUT_NEWTON_STEPS):
        slope = math.log(m) - log_lam
        step = (lam - m + m * slope - POISSON_LOG_CUT) / slope
        m -= step
        if step < 1e-6:
            break
    return math.ceil(m)


def poisson_tail(n, lam: float):
    """Upper Poisson tail P(X > n) = sum_{m>n} lam^m e^(-lam) / m! for an
    int or an array of n, 0 <= lam <= POISSON_LAM_MAX: the terms
    m <= poisson_cut(lam), the first m whose Chernoff bound is below e^(-745),
    summed from the top down, at most 1.0; 0.0 past the cut."""
    n = np.asarray(n)
    if (n < 0).any():
        raise ValueError(f"n must be non-negative, got {np.min(n)}")
    if not 0.0 <= lam <= POISSON_LAM_MAX:
        raise ValueError(f"lambda must be in [0, {POISSON_LAM_MAX}], got {lam}")
    cut = poisson_cut(lam)
    terms = np.square(coherent_amplitudes(math.sqrt(lam), cut + 1))
    tails = np.append(np.cumsum(terms[:0:-1])[::-1], 0.0)  # tails[k] = P(X > k), k <= cut
    value = np.minimum(tails[np.minimum(n, cut)], 1.0)  # rounding in the amplitudes can pass 1
    return value if value.ndim else float(value)
