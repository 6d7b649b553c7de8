"""Analytic Hilbert-Schmidt distances and the key-length estimate.

Both distances sum non-negative Fock-stripe terms of the amplitudes
c_n(r) = e^(-r^2/2) r^n / sqrt(n!) against the disk-mixed state, the
diagonal u_n = P(X > n) / b^2, X ~ Poisson(b^2), which disk_state_weights caches
per radius for both and the dense oracle; neither forms the cancelling
difference Tr(unit^2) - 2 Tr(unit rho) + Tr(rho^2).  In the
N-circle mixture, circle p at radius p b / N adds p c_m c_n / M wherever
p divides m - n.  One circle of p states at radius r has entries c_m c_n
there, so D^2 = sum_n (c_n^2 - u_n)^2 + 2 sum_(j>=1) S_jp with the stripe
sums S_k = sum_n c_n^2 c_(n+k)^2, which do not depend on p.  hs2_exact
returns D^2 with the traces Tr(unit Phi_N) and Tr(Phi_N^2), which share its
sums; trace_unit_sq, the purity of the disk state, stands alone.  The cross
sum sum_k (b/r)^k I_k(2rb) is a finite sum of the same Poisson terms; it
shares no code with bessel_i's trapezoid rule, so `verify identities`
checks one against the other.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import B_MIN, disk_state_weights
from .fockspace import CutoffPolicy, coherent_amplitudes, disk_cutoff
from .specialfns import SUPPORTED_X_MAX, TRAPEZOID_NODES, ArgumentRangeError, trapezoid_rule

# Smallest disk radius of the simplified protocol: d_0 = e^(-r^2) - u_0 cancels
# near r = b/sqrt(2), and the stripe D^2 errs by up to 8.5e-8 relative at b = 1e-2
# (1.5e-3 at b = 1e-3) against an 80-digit mpmath sum.
B_SIMPLIFIED_MIN = 1e-2

# Largest supported circle count.  Phi_nn cancels against u_n, so the relative error
# of D^2 grows as b shrinks: at N_MAX, against an extended-precision sum, it is
# 1.8e-8 at b = 0.05, 1.6e-10 at b = 0.5, 7.0e-11 at b = 2 and 9.2e-12 at b = 10.
N_MAX = 100_000
# Circles per block of hs2_exact's diagonal: blocks of 4096 x dim amplitudes (5.9 MB at
# b = 10) bound memory, and a sum of block sums rounds less than one N-term product.
HS2_BLOCK = 4096
# Largest disk radius: 2b^2 <= SUPPORTED_X_MAX, compared on b, which cannot overflow.
B_MAX = math.sqrt(0.5 * SUPPORTED_X_MAX)


class ConsistencyError(RuntimeError):
    """The r_min search found no sign change, a value not finite, or no root."""


def cross_bessel_sum(b: float, r):
    """sum_{k>=1} (b/r)^k I_k(2rb) = e^(b^2 + r^2) P(X > Y), X ~ Poisson(b^2)
    and Y ~ Poisson(r^2) independent (Skellam), as the finite Fock sum
    e^(b^2 + r^2) sum_n c_n(r)^2 b^2 u_n of non-negative terms, cut where
    the larger radius leaves a Poisson tail below 1e-16.  An array r gives
    an array; a scalar r gives a float.
    """
    r = np.asarray(r, dtype=float)
    if not (b > 0 and np.all(r > 0)):
        raise ValueError("b and r must be positive")
    dim = CutoffPolicy(float(np.max(r, initial=b)), 1e-16).dim
    weights = np.square(coherent_amplitudes(r, dim)) @ disk_state_weights(b, dim)
    total = np.exp(b * b + r * r) * (b * b) * weights
    return total if total.ndim else float(total)


def check_disk(b, b_min: float):
    """The disk-radius window b_min <= b, 2b^2 <= SUPPORTED_X_MAX, that is
    b <= 10, for a radius or an array of radii; names the first outside it."""
    bs = np.asarray(b, dtype=float).reshape(-1)
    if (bad := np.flatnonzero(~((b_min <= bs) & (bs <= B_MAX)))).size:
        b = float(bs[bad[0]])
        if not b >= b_min:
            raise ValueError(f"b must be positive and at least {b_min}, got {b}")
        raise ArgumentRangeError(f"b={b} outside the window 2b^2 <= {SUPPORTED_X_MAX}")


def check_circle(b, r, p):
    """b and r broadcast as float arrays, once 0 < r <= b and p is integral and
    >= 1 everywhere; the message names the first radius outside (0, b]."""
    b, r = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(r, dtype=float))
    if (outside := np.flatnonzero(~((0 < r) & (r <= b)))).size:
        i = outside[0]
        raise ValueError(f"r must be in (0, b], got r={r.flat[i]}, b={b.flat[i]}")
    p = np.asarray(p)
    if not np.all((p >= 1) & (p % 1 == 0)):
        raise ValueError(f"p must be an integer >= 1, got {p}")
    return b, r


def trace_unit_sq(b: float) -> float:
    """Purity (1 - e^(-x) [I_0(x) + I_1(x)]) / b^2, x = 2b^2, of the disk-mixed
    state for B_MIN <= b <= 10: the trapezoid mean of the non-negative terms
    (1 + cos theta_j)(1 - exp(-2x sin^2(theta_j/2))), 1 + cos = 2 - 2 sin^2."""
    check_disk(b, B_MIN)
    x = 2.0 * b * b
    half2, weight, _ = trapezoid_rule(TRAPEZOID_NODES)
    return float((2.0 * (1.0 - half2) * -np.expm1(-2.0 * x * half2)) @ weight) / (b * b)


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


def hs2_exact(b: float, n_circles: int) -> tuple[float, float, float]:
    """(D^2, Tr(unit Phi_N), Tr(Phi_N^2)): the exact squared HS distance between
    the disk-mixed state and the N-circle encryption mixture, and the two
    traces that hold Phi_N, all from the Fock stripes of Phi_N.

    Stripe k > 0 above the diagonal holds sum_(q | k) q c_n(r_q) c_(n+k)(r_q),
    gathered over the divisor pairs (q, k) of the Fock block and summed in
    one bincount, q ascending.  Costs O(N dim + dim^2 log dim) at the disk
    state's Fock cutoff dim (see fockspace.disk_cutoff), whose u_n a repeated
    radius reads from the disk_state_weights cache; N must lie in [1, N_MAX].
    """
    if not 1 <= n_circles <= N_MAX:
        raise ValueError(f"N must be in [1, {N_MAX}], got {n_circles}")
    check_disk(b, B_MIN)
    unit = disk_state_weights(b, disk_cutoff(b).dim)
    dim = len(unit)
    n = np.arange(dim)
    p = np.arange(1, n_circles + 1)
    r = p * (b / n_circles)
    norm = 2.0 / (n_circles * (n_circles + 1))  # 1/M
    qs, ks = np.arange(1, min(n_circles, dim - 1) + 1), n[1:]
    amp = coherent_amplitudes(r[: len(qs)], dim)  # the circles q < dim reach a stripe
    iq, ik = np.nonzero(ks % qs[:, None] == 0)  # circle qs[iq] reaches stripe ks[ik]
    pair, row = np.nonzero(n + ks[ik, None] < dim)
    q, col = qs[iq[pair]], row + ks[ik[pair]]
    terms = q * (amp[q - 1, row] * amp[q - 1, col])
    upper = np.bincount(row * dim + col, terms, minlength=dim * dim)
    off2 = 2.0 * float(np.sum(np.square(norm * upper)))  # sum_{m != n} Phi_mn^2
    blocks = [slice(lo, lo + HS2_BLOCK) for lo in range(0, n_circles, HS2_BLOCK)]
    diag = norm * sum(p[s] @ np.square(coherent_amplitudes(r[s], dim)) for s in blocks)
    return (float(np.sum(np.square(diag - unit))) + off2, float(unit @ diag),
            float(diag @ diag) + off2)


def trace_cross(b: float, n_circles: int) -> float:
    """Cross trace Tr(unit Phi_N) = sum_n u_n Phi_nn, read from hs2_exact."""
    return hs2_exact(b, n_circles)[1]


def trace_phi_sq(b: float, n_circles: int) -> float:
    """Purity Tr(Phi_N^2) = sum_mn Phi_mn^2 of Phi_N, read from hs2_exact."""
    return hs2_exact(b, n_circles)[2]


def hs2_simplified(b: float, p, r):
    """Squared HS distance for the simplified protocol, one circle of p
    phase-shifted states at radius r against the disk-mixed state:
    sum_n (c_n^2 - u_n)^2 + 2 sum_j S_jp.  p (integral, >= 1) and r (in (0, b])
    broadcast, as in optimizer.stationarity; two scalars give a float."""
    check_disk(b, B_SIMPLIFIED_MIN)
    ps, rs = np.broadcast_arrays(np.asarray(p), check_circle(b, r, p)[1])
    unit = disk_state_weights(b, disk_cutoff(b).dim)
    dim = len(unit)
    w = coherent_amplitudes(rs.reshape(-1), dim)
    np.square(w, out=w)
    diag = np.sum(np.square(w - unit), axis=1)
    # S[k - 1] = S_k(r), k = 1..dim-1 (dim >= 7 in the window); p reaches k = p, 2p, ...
    stripes = np.array([np.einsum("ij,ij->i", w[:, : dim - k], w[:, k:]) for k in range(1, dim)])
    step = np.where(ps < dim, ps, dim).astype(int).reshape(-1, 1)  # p >= dim: no stripe
    d2 = diag + 2.0 * np.einsum("ik,ki->i", np.arange(1, dim) % step == 0, stripes)
    d2 = d2.reshape(rs.shape)
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
