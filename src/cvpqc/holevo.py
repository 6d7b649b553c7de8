"""Holevo bound of the encrypted channel.

The total state leaving the sender (inputs and encryption displacements
both uniform on the disk of radius b) is diagonal in the Fock basis.  Its
weight lambda_n is the Poisson(n; s^2) diagonal of a coherent projector
at combined radius s = |alpha + beta|, averaged over the density of s:

    lambda_n = int_0^(2b) 2 pi s A(s) / (pi b^2)^2  e^(-s^2) s^(2n) / n!  ds,
    A(s) = 2 b^2 arccos(s / 2b) - (s / 2) sqrt(4 b^2 - s^2),

A(s) being the area where the two disks of radius b overlap.  The Holevo
quantity chi(b) is the entropy gap S(lambda) - S(disk-mixed state), both
states being diagonal; lambda_spectrum(b) returns it with the spectrum.

The substitution s = 2b cos(t) gives A = b^2 (2t - sin 2t) and a smooth
integrand on t in [0, pi/2], integrated by Gauss-Legendre at GL_ORDER
nodes; a second pass at twice the order supplies the error estimate.  Both
orders are even: Newton's method on the three-term recurrence of P_n finds
the positive nodes from Tricomi's guesses in O(n^2), and mirrors them.
Neither rule depends on b, so each (nodes and density weight) is built
once per process, on first use: the first radius pays for both, later
radii reuse them.  Every lambda_n comes from the same nodes, its Poisson
factor the squared coherent amplitude c_n(s)^2 = e^(-s^2) s^(2n) / n!.  A
spectrum whose passes disagree, or whose mass beyond the Fock cutoff
exceeds the same threshold, raises instead of returning.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .ensembles import B_MIN, disk_state_weights
from .fockspace import CutoffPolicy, coherent_amplitudes

TWO_PI = 2.0 * math.pi

GL_ORDER = 200
REFINE_THRESHOLD = 1e-6
NEWTON_MAX_STEPS = 10  # on the Gauss-Legendre nodes (3 suffice) before the rule raises
# Supported disk radii: e^(-s^2) at s = 2b, the start of each Poisson row,
# stays a normal double (4 b^2 <= 676 < 708).  Beyond that the rows lose
# mass (quad_error 8.8e-3 at b = 15) and chi(15) falls below chi(13).
HOLEVO_B_MAX = 13.0

# Fock block of the off-diagonal Monte Carlo, samples per draw of the random
# stream, and samples per array pass: a pass's buffers (gamma^d, its real and
# imaginary rows, w u^n) hold 1.6 MB, which stays in cache.
OFF_DIAGONAL_DIM = 20
OFF_DIAGONAL_BATCH = 20_000
OFF_DIAGONAL_BLOCK = 2_000


class QuadratureConvergenceError(RuntimeError):
    """Refinement levels disagree, or mass is lost beyond the Fock cutoff,
    beyond the acceptance threshold; or the quadrature nodes do not converge."""


@dataclass(frozen=True)
class LambdaSpectrum:
    """Normalized diagonal weights of the total channel state, and chi(b)."""

    b: float
    weights: np.ndarray = field(repr=False)
    quad_error: float
    chi_bits: float

    @property
    def dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class OffDiagonalEstimate:
    """Monte Carlo bound on the largest off-diagonal magnitude."""

    b: float
    max_abs: float
    stderr: float
    samples: int
    dim: int


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule, n even."""
    i = np.arange(n // 2, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (i - 0.25) / (n + 0.5))
    for _ in range(NEWTON_MAX_STEPS):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            xp = x * p
            p_prev, p = p, xp + (k - 1) / k * (xp - p_prev)
        q = (1.0 - x) * (1.0 + x)
        dp = n * (p_prev - x * p) / q  # P_n'
        step = p / dp
        x = x - step
        if np.abs(step).max() < 1e-15:
            w = 2.0 / ((q - 2.0 * x * step) * dp * dp)  # 2 / ((1 - x^2) P_n'^2), moved by the step
            return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    raise QuadratureConvergenceError(f"Gauss-Legendre nodes unconverged at order {n}")


@functools.lru_cache(maxsize=None)
def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """cos t and the b-free weight of the order-point Gauss-Legendre rule
    on t in [0, pi/2]; built on first use, read-only."""
    t, w = _gauss_legendre(order)
    t = 0.25 * math.pi * (t + 1.0)  # [-1, 1] -> [0, pi/2], dt = (pi/4) dx
    # density(s) ds = (4/pi) sin(2t) (2t - sin 2t) dt, free of b
    weight = w * np.sin(2.0 * t) * (2.0 * t - np.sin(2.0 * t))
    cos_t = np.cos(t)
    cos_t.setflags(write=False)
    weight.setflags(write=False)
    return cos_t, weight


def _raw_weights(b: float, order: int, dim: int) -> np.ndarray:
    """lambda_n for n < dim by order-point Gauss-Legendre in t; the full
    sum over n is 1, so the deficit is the mass beyond the cutoff."""
    cos_t, weight = _rule(order)
    return weight @ np.square(coherent_amplitudes(2.0 * b * cos_t, dim))


def lambda_spectrum(b: float) -> LambdaSpectrum:
    """Diagonal spectrum of the total channel state, radius-2b support, and
    chi(b) = S(total state) - S(disk-mixed state) in bits, clamped at 0; a
    chi below -1e-6 raises QuadratureConvergenceError, as a bad quadrature does."""
    if not b >= B_MIN:
        raise ValueError(f"b must be positive and at least {B_MIN}, got {b}")
    if b > HOLEVO_B_MAX:
        raise ValueError(f"b must be <= {HOLEVO_B_MAX} (supported window), got {b}")
    dim = CutoffPolicy(max_radius=2.0 * b).dim
    coarse = _raw_weights(b, GL_ORDER, dim)
    fine = _raw_weights(b, 2 * GL_ORDER, dim)
    total = fine.sum()
    norm = fine / total
    refine_diff = float(np.abs(coarse / coarse.sum() - norm).max())
    if refine_diff > REFINE_THRESHOLD:
        raise QuadratureConvergenceError(
            f"refinement disagreement {refine_diff:.3e} at b={b} (order={GL_ORDER})"
        )
    deficit = abs(1.0 - total)
    if deficit > REFINE_THRESHOLD:
        raise QuadratureConvergenceError(
            f"mass deficit {deficit:.3e} beyond the Fock cutoff at b={b} (dim={dim})"
        )
    chi = entropy_bits(norm) - entropy_bits(disk_state_weights(b, dim))
    if chi < -1e-6:
        raise QuadratureConvergenceError(f"chi={chi} negative beyond tolerance at b={b}")
    return LambdaSpectrum(b, norm, max(refine_diff, deficit), max(chi, 0.0))


def entropy_bits(weights: np.ndarray) -> float:
    """Diagonal entropy -sum w log2 w in bits (0 log 0 = 0)."""
    w = np.asarray(weights, dtype=float)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def off_diagonal_check(b: float, samples: int, seed: int = 0) -> OffDiagonalEstimate:
    """Monte Carlo estimate of the largest off-diagonal entry of the
    unreordered double disk mixture of coherent projectors.

    Samples alpha and beta uniformly on the disk of radius b, averages
    the projector of gamma = alpha + beta entrywise, and reports the largest
    off-diagonal magnitude together with its standard error (it should
    vanish within sampling noise: the state is diagonal).  Each batch of
    OFF_DIAGONAL_BATCH samples draws r1, r2, t1, t2 in that order, fixing
    the samples a seed gives.

    With u = |gamma|^2 and w = e^(-u), an entry m = n + d of the projector
    is c_m conj(c_n) = w u^n gamma^d / sqrt(m! n!), and its squared
    magnitude w^2 u^(m+n) / (m! n!) depends on m + n alone.  So the sums
    over samples are one real product, the rows Re gamma^d and Im gamma^d
    times the rows w u^n, and 2 OFF_DIAGONAL_DIM - 1 sums of w^2 u^j; the
    factorials are applied once, to the totals.  0 < b <= HOLEVO_B_MAX
    keeps w, at u <= 4 b^2, a normal double.
    """
    if not 0 < b <= HOLEVO_B_MAX:
        raise ValueError(f"b must be in (0, {HOLEVO_B_MAX}], got {b}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    dim = OFF_DIAGONAL_DIM
    rng = np.random.default_rng(seed)
    gamma_pow = np.empty((dim, OFF_DIAGONAL_BLOCK), dtype=complex)
    parts = np.empty((2 * dim, OFF_DIAGONAL_BLOCK))  # Re gamma^d; Im gamma^d
    u_pow = np.empty((dim, OFF_DIAGONAL_BLOCK))  # w u^n
    cross = np.zeros((2 * dim, dim))  # sum of w u^n Re, Im gamma^d at [d, n], [dim + d, n]
    hankel = np.zeros(2 * dim - 1)  # sum of w^2 u^j
    done = 0
    while done < samples:
        k = min(OFF_DIAGONAL_BATCH, samples - done)
        r1 = b * np.sqrt(rng.random(k))
        r2 = b * np.sqrt(rng.random(k))
        t1 = TWO_PI * rng.random(k)
        t2 = TWO_PI * rng.random(k)
        gamma = np.empty(k, dtype=complex)
        gamma.real = r1 * np.cos(t1) + r2 * np.cos(t2)
        gamma.imag = r1 * np.sin(t1) + r2 * np.sin(t2)
        u = gamma.real**2 + gamma.imag**2
        w = np.exp(-u)
        for lo in range(0, k, OFF_DIAGONAL_BLOCK):
            hi = min(lo + OFF_DIAGONAL_BLOCK, k)
            g, p = gamma_pow[:, : hi - lo], u_pow[:, : hi - lo]
            g[0] = 1.0
            p[0] = w[lo:hi]
            for n in range(1, dim):
                np.multiply(g[n - 1], gamma[lo:hi], out=g[n])
                np.multiply(p[n - 1], u[lo:hi], out=p[n])
            parts[:dim, : hi - lo] = g.real
            parts[dim:, : hi - lo] = g.imag
            cross += parts[:, : hi - lo] @ p.T
            hankel[:dim] += p @ w[lo:hi]  # j = n
            hankel[dim:] += p[1:] @ p[-1]  # j = n + dim - 1
        done += k
    m, n = np.tril_indices(dim, -1)  # every off-diagonal pair once: m = n + d, d > 0
    fact = np.cumprod(np.maximum(np.arange(dim), 1.0))  # n!
    norm = fact[m] * fact[n]
    mags = np.hypot(cross[m - n, n], cross[dim + m - n, n]) / (np.sqrt(norm) * samples)
    var = np.maximum(hankel[m + n] / (norm * samples) - mags**2, 0.0)
    i = int(np.argmax(mags))
    return OffDiagonalEstimate(
        b=b,
        max_abs=float(mags[i]),
        stderr=float(np.sqrt(var[i] / samples)),
        samples=samples,
        dim=dim,
    )
