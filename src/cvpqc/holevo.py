"""Holevo bound of the encrypted channel.

The total state leaving the sender (inputs and encryption displacements
both uniform on the disk of radius b) is diagonal in the Fock basis.  Its
weight lambda_n is the Poisson(n; s^2) diagonal of a coherent projector
at combined radius s = |alpha + beta|, averaged over the density of s:

    lambda_n = int_0^(2b) 2 pi s A(s) / (pi b^2)^2  e^(-s^2) s^(2n) / n!  ds,
    A(s) = 2 b^2 arccos(s / 2b) - (s / 2) sqrt(4 b^2 - s^2),

A(s) being the area where the two disks of radius b overlap.  The Holevo
quantity chi(b) is the entropy gap S(lambda) - S(disk-mixed state), both
states being diagonal; lambda_spectrum(b) returns chi, the quadrature error
and the spectrum lambda, in that order.

The substitution s = 2b cos(t) gives A = b^2 (2t - sin 2t) and a smooth
integrand on t in [0, pi/2], integrated by a nested Clenshaw-Curtis rule:
of its 2 CC_ORDER + 1 nodes, every other one carries the (CC_ORDER + 1)-node
rule, whose sum gives the error estimate from the same amplitudes.  The
rule does not depend on b, so it is built once per process, on first use,
from one table of n cosines per n-node level (see _clenshaw_curtis).
Every lambda_n comes from the same nodes, its Poisson factor the squared
coherent amplitude c_n(s)^2 = e^(-s^2) s^(2n) / n!.  A spectrum whose
levels disagree, or whose mass beyond the Fock cutoff exceeds the same
threshold, raises instead of returning.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ensembles import B_MIN, disk_state_weights
from .fockspace import CutoffPolicy, coherent_amplitudes

CC_ORDER = 200
REFINE_THRESHOLD = 1e-6
# Supported disk radii: e^(-s^2) at s = 2b, the start of each Poisson row,
# stays a normal double (4 b^2 <= 676 < 708).  Beyond that the rows lose
# mass (quad_error 8.8e-3 at b = 15) and chi(15) falls below chi(13).
HOLEVO_B_MAX = 13.0

# Fock block of the off-diagonal Monte Carlo, samples per draw of the random
# stream, and samples per array pass: a pass's buffers (gamma^d for d >= 1, its
# real and imaginary rows split at d = dim/2, w u^n) hold 1.5 MB, which stays
# in cache.
OFF_DIAGONAL_DIM = 20
OFF_DIAGONAL_BATCH = 20_000
OFF_DIAGONAL_BLOCK = 2_000


class QuadratureConvergenceError(RuntimeError):
    """The two levels of the nested rule disagree, or mass is lost beyond
    the Fock cutoff, beyond the acceptance threshold."""


def _clenshaw_curtis(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights on [-1, 1] at the n + 1 nodes cos(k pi / n), n even.

    w_k = (2/n) (1 - sum_j beta_j cos(2 pi j k / n)), halved at k = 0 and n.  The
    cosine depends on j k mod n only, so one table of the n values cos(2 pi m / n),
    indexed by j k mod n in int32 (j k <= n^2 / 4 fits for n <= 92680), gives
    every entry.  Only the rows k <= n/2 are built; w_(n-k) = w_k mirrors the rest.
    """
    j = np.arange(1, n // 2 + 1, dtype=np.int32)
    beta = 2.0 / (4.0 * j * j - 1.0)
    beta[-1] *= 0.5
    k = np.arange(n // 2 + 1, dtype=np.int32)
    half = 1.0 - np.cos(np.arange(n) * (2.0 * math.pi / n))[np.multiply.outer(k, j) % n] @ beta
    w = (2.0 / n) * np.concatenate((half, half[-2::-1]))
    w[[0, -1]] *= 0.5
    return w


@functools.lru_cache(maxsize=None)
def _rule(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos t at the nodes t_k = (pi/4)(cos(k pi / (2 order)) + 1), k = 0..2 order,
    and the b-free weights of the Clenshaw-Curtis rules on all of them and on
    every other one; built on first use, read-only."""
    t = 0.25 * math.pi * (np.cos(np.arange(2 * order + 1) * (math.pi / (2 * order))) + 1.0)
    # density(s) ds = (4/pi) sin(2t) (2t - sin 2t) dt, free of b, and dt = (pi/4) dx
    density = np.sin(2.0 * t) * (2.0 * t - np.sin(2.0 * t))
    arrays = (np.cos(t), _clenshaw_curtis(2 * order) * density,
              _clenshaw_curtis(order) * density[::2])
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def lambda_spectrum(b: float) -> tuple[float, float, np.ndarray]:
    """(chi_bits, quad_error, weights): chi(b) = S(total state) - S(disk-mixed
    state) in bits, clamped at 0; the larger of the refinement gap and the mass
    deficit; and the normalized diagonal spectrum of the total channel state,
    radius-2b support, one weight per Fock level.  A chi below -1e-6 raises
    QuadratureConvergenceError, as a bad quadrature does."""
    if not b >= B_MIN:
        raise ValueError(f"b must be positive and at least {B_MIN}, got {b}")
    if b > HOLEVO_B_MAX:
        raise ValueError(f"b must be <= {HOLEVO_B_MAX} (supported window), got {b}")
    dim = CutoffPolicy(max_radius=2.0 * b).dim
    cos_t, w_fine, w_coarse = _rule(CC_ORDER)
    sq = np.square(coherent_amplitudes(2.0 * b * cos_t, dim))
    fine = w_fine @ sq
    coarse = w_coarse @ sq[::2]
    total = fine.sum()
    norm = fine / total
    refine_diff = float(np.abs(coarse / coarse.sum() - norm).max())
    if refine_diff > REFINE_THRESHOLD:
        raise QuadratureConvergenceError(
            f"refinement disagreement {refine_diff:.3e} at b={b} (order={CC_ORDER})"
        )
    deficit = abs(1.0 - total)
    if deficit > REFINE_THRESHOLD:
        raise QuadratureConvergenceError(
            f"mass deficit {deficit:.3e} beyond the Fock cutoff at b={b} (dim={dim})"
        )
    chi = entropy_bits(norm) - entropy_bits(disk_state_weights(b, dim))
    if chi < -1e-6:
        raise QuadratureConvergenceError(f"chi={chi} negative beyond tolerance at b={b}")
    return max(chi, 0.0), max(refine_diff, deficit), norm


def entropy_bits(weights: np.ndarray) -> float:
    """Diagonal entropy -sum w log2 w in bits (0 log 0 = 0)."""
    w = np.asarray(weights, dtype=float)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def _unit_circle(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos t, sin t) at t = 2 pi u from one tangent: z = tan(pi u) is exactly
    tan(t/2), doubling being exact, and cos t = (1 - z^2) / (1 + z^2),
    sin t = 2z / (1 + z^2).  z stays finite at u = 1/2, where z^2 ~ 2.7e32."""
    z = np.tan(math.pi * u)
    z2 = z * z
    q = 1.0 / (1.0 + z2)
    return (1.0 - z2) * q, (z + z) * q


def _off_diagonal_pairs(b: float, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(mags, stderrs): the Monte Carlo magnitude of every off-diagonal entry
    m > n of the OFF_DIAGONAL_DIM lowest Fock levels, in np.tril_indices
    order, and its standard error; see off_diagonal_check."""
    dim, half = OFF_DIAGONAL_DIM, OFF_DIAGONAL_DIM // 2
    rng = np.random.default_rng(seed)
    gamma_pow = np.empty((dim - 1, OFF_DIAGONAL_BLOCK), dtype=complex)  # gamma^d, d >= 1
    # Re gamma^d then Im gamma^d, for the rows d < half and d >= half
    low = np.empty((2 * (half - 1), OFF_DIAGONAL_BLOCK))
    high = np.empty((2 * (dim - half), OFF_DIAGONAL_BLOCK))
    u_pow = np.empty((dim, OFF_DIAGONAL_BLOCK))  # w u^n
    # sums of w u^n Re, Im gamma^d over the pairs m = n + d < dim of each block
    cross_low = np.zeros((2 * (half - 1), dim - 1))
    cross_high = np.zeros((2 * (dim - half), dim - half))
    hankel = np.zeros(2 * dim - 1)  # sum of w^2 u^j
    done = 0
    while done < samples:
        k = min(OFF_DIAGONAL_BATCH, samples - done)
        r1 = b * np.sqrt(rng.random(k))
        r2 = b * np.sqrt(rng.random(k))
        cos1, sin1 = _unit_circle(rng.random(k))
        cos2, sin2 = _unit_circle(rng.random(k))
        gamma = np.empty(k, dtype=complex)
        gamma.real = r1 * cos1 + r2 * cos2
        gamma.imag = r1 * sin1 + r2 * sin2
        u = gamma.real**2 + gamma.imag**2
        w = np.exp(-u)
        for lo in range(0, k, OFF_DIAGONAL_BLOCK):
            hi = min(lo + OFF_DIAGONAL_BLOCK, k)
            g, p = gamma_pow[:, : hi - lo], u_pow[:, : hi - lo]
            g[0] = gamma[lo:hi]
            p[0] = w[lo:hi]
            for n in range(1, dim - 1):
                np.multiply(g[n - 1], gamma[lo:hi], out=g[n])
            for n in range(1, dim):
                np.multiply(p[n - 1], u[lo:hi], out=p[n])
            a, c = low[:, : hi - lo], high[:, : hi - lo]
            a[: half - 1], a[half - 1 :] = g[: half - 1].real, g[: half - 1].imag
            c[: dim - half], c[dim - half :] = g[half - 1 :].real, g[half - 1 :].imag
            cross_low += a @ p[: dim - 1].T
            cross_high += c @ p[: dim - half].T
            hankel[:dim] += p @ w[lo:hi]  # j = n
            hankel[dim:] += p[1:] @ p[-1]  # j = n + dim - 1
        done += k
    cross = np.zeros((2, dim, dim))  # Re, Im sums at [d, n]
    cross[:, 1:half, : dim - 1] = cross_low.reshape(2, half - 1, dim - 1)
    cross[:, half:, : dim - half] = cross_high.reshape(2, dim - half, dim - half)
    m, n = np.tril_indices(dim, -1)  # every off-diagonal pair once: m = n + d, d > 0
    fact = np.cumprod(np.maximum(np.arange(dim), 1.0))  # n!
    norm = fact[m] * fact[n]
    mags = np.hypot(*cross[:, m - n, n]) / (np.sqrt(norm) * samples)
    var = np.maximum(hankel[m + n] / (norm * samples) - mags**2, 0.0)
    return mags, np.sqrt(var / samples)


def off_diagonal_check(b: float, samples: int, seed: int = 0) -> tuple[float, float]:
    """(max_abs, stderr): Monte Carlo estimate of the largest off-diagonal
    magnitude of the unreordered double disk mixture of coherent projectors,
    over the OFF_DIAGONAL_DIM lowest Fock levels, and its standard error.

    Samples alpha and beta uniformly on the disk of radius b and averages
    the projector of gamma = alpha + beta entrywise; the largest entry should
    vanish within sampling noise, the state being diagonal.  Each batch of
    OFF_DIAGONAL_BATCH samples draws r1, r2, t1, t2 in that order, fixing
    the samples a seed gives; each angle's cosine and sine come from one
    tangent (_unit_circle).

    With u = |gamma|^2 and w = e^(-u), an entry m = n + d of the projector
    is c_m conj(c_n) = w u^n gamma^d / sqrt(m! n!), and its squared
    magnitude w^2 u^(m+n) / (m! n!) depends on m + n alone.  So the sums
    over samples are real products, the rows Re gamma^d and Im gamma^d
    times the rows w u^n, and 2 OFF_DIAGONAL_DIM - 1 sums of w^2 u^j; the
    factorials are applied once, to the totals.  Since n <= dim - 1 - d,
    the rows d < dim/2 meet n <= dim - 2 and the rows d >= dim/2 meet
    n < dim/2: two products of 542 entries per sample, not one of 800 at
    dim = 20.  0 < b <= HOLEVO_B_MAX keeps w, at u <= 4 b^2, a normal double.
    """
    if not 0 < b <= HOLEVO_B_MAX:
        raise ValueError(f"b must be in (0, {HOLEVO_B_MAX}], got {b}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    mags, stderrs = _off_diagonal_pairs(b, samples, seed)
    i = int(np.argmax(mags))
    return float(mags[i]), float(stderrs[i])
