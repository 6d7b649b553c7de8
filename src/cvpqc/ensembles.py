"""Density matrices of the encryption protocol, as real float64 arrays.

Builds the disk-mixed state (uniform mixture of coherent projectors over
the phase-space disk of radius b), the mixture of p coherent states on
one circle, which is also the phase-shift ensemble of the simplified
protocol, and the N-circle encryption mixture Phi_N.

Circle mixtures are built analytically: a circle's stripe matrix (nonzero
only where the index difference is a multiple of p) is the Gram matrix of
its residue rows, and Phi_N sums those of all its circles in one product
per block.  The projector average is a test oracle only.  Canonical angles
2*pi*q/p make every stripe entry exactly e^(-r^2) r^(m+n) / sqrt(m! n!),
positive.  A mixture at any other common phase offset is unitarily
equivalent to it through a number-diagonal rotation, which leaves every
distance to the (diagonal) disk-mixed state unchanged.
"""

from __future__ import annotations

import numpy as np

from .fockspace import CutoffPolicy, coherent_amplitudes
from .specialfns import poisson_tail

# Smallest supported disk radius: b^2, the disk state's Poisson mean, stays a normal double.
B_MIN = 1e-150
GRAM_BLOCK_BYTES = 4 << 20  # bytes of residue rows per V^T V product of _stripe_gram


def disk_state_weights(b: float, dim: int) -> np.ndarray:
    """Diagonal P(X > n) / b^2, n < dim, X ~ Poisson(b^2), of the disk-mixed
    state: every tail from the one reverse cumulative sum of poisson_tail,
    so nothing cancels.  b below B_MIN, or not a number, raises: b^2 would underflow."""
    if not b >= B_MIN:
        raise ValueError(f"b must be positive and at least {B_MIN}, got {b}")
    return poisson_tail(np.arange(dim), b * b) / (b * b)


def maximally_mixed(b: float, cutoff: CutoffPolicy) -> np.ndarray:
    """Uniform mixture of coherent projectors over the disk of radius b,
    diagonal in the Fock basis."""
    cutoff.require(b)
    return np.diag(disk_state_weights(b, cutoff.dim))


def _stripe_gram(circles: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Sum over circles q <= dim of c c^T on the stripes q | m - n, c the circle's
    row of amp, as V^T V: residue row a < q of circle q holds c on the levels
    n = a mod q and 0 elsewhere.  V is built in blocks of about GRAM_BLOCK_BYTES."""
    dim = amp.shape[1]
    ends, block = np.cumsum(circles), GRAM_BLOCK_BYTES // (8 * dim)
    row = (ends - circles)[:, None] + np.arange(dim) % circles[:, None]  # of each level
    starts = [*np.flatnonzero(np.diff(row[:, 0] // block, prepend=-1)), len(circles)]
    gram, buf = np.zeros((dim, dim)), np.empty(min(block + dim, circles.sum()) * dim)
    for lo, hi in zip(starts, starts[1:]):  # the circles whose first row is in one window
        v = buf[: (ends[hi - 1] - row[lo, 0]) * dim].reshape(-1, dim)
        v.fill(0.0)
        v[row[lo:hi] - row[lo, 0], np.arange(dim)] = amp[lo:hi]
        gram += v.T @ v
    return gram


def circle_mixture(p: int, radius: float, cutoff: CutoffPolicy) -> np.ndarray:
    """Uniform mixture of p coherent states on one circle (canonical form).

    Entries e^(-r^2) r^(m+n) / sqrt(m! n!) on the stripes |m-n| = 0 mod p,
    exact zeros elsewhere.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    cutoff.require(radius)
    dim = cutoff.dim  # a circle p >= dim has no stripe but the diagonal, as p = dim
    return _stripe_gram(np.array([min(p, dim)]), coherent_amplitudes([radius], dim))


def phi_n(b: float, n_circles: int, cutoff: CutoffPolicy) -> np.ndarray:
    """Encryption mixture (1/M) sum_p p * rho_p of the disk of radius b: circle p of
    N holds p states at radius p*b/N, and M = N(N+1)/2 keys index the displacements.
    The circles p < dim are one stripe Gram sum of sqrt(p) c(r_p); a circle p >= dim
    meets the block on its diagonal alone, so those circles add as one term."""
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    if n_circles < 1:
        raise ValueError(f"N must be >= 1, got {n_circles}")
    cutoff.require(b)
    dim = cutoff.dim
    p = np.arange(1, n_circles + 1)
    amp = coherent_amplitudes(p * b / n_circles, dim)
    acc = _stripe_gram(p[: dim - 1], np.sqrt(p[: dim - 1, None]) * amp[: dim - 1])
    acc[np.diag_indices(dim)] += p[dim - 1 :] @ np.square(amp[dim - 1 :], out=amp[dim - 1 :])
    return acc / (n_circles * (n_circles + 1) // 2)
