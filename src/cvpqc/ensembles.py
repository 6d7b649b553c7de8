"""Density matrices of the encryption protocol, as real float64 arrays.

Builds the disk-mixed state (uniform mixture of coherent projectors over
the phase-space disk of radius b), the mixture of p coherent states on
one circle, which is also the phase-shift ensemble of the simplified
protocol, and the N-circle encryption mixture Phi_N.

Circle mixtures are constructed analytically from their stripe entries
(nonzero only where the index difference is a multiple of p); the
projector-average route exists only as a test oracle.  Canonical circle
angles are 2*pi*q/p, which makes every stripe entry exactly
e^(-r^2) r^(m+n) / sqrt(m! n!) with a positive sign.  A mixture at any
other common phase offset is unitarily equivalent to it through a
number-diagonal rotation, which leaves every distance to the (diagonal)
disk-mixed state unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fockspace import CutoffPolicy, coherent_amplitudes
from .specialfns import poisson_tail

# Smallest supported disk radius: b^2, the disk state's Poisson mean, stays a normal double.
B_MIN = 1e-150


@dataclass(frozen=True)
class ChannelSpec:
    """Full-protocol parameters: disk radius b and circle count N.

    Circle p holds p states at radius p*b/N; the key indexes the
    M = N(N+1)/2 displacement operators.
    """

    b: float
    n_circles: int

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.n_circles < 1:
            raise ValueError(f"N must be >= 1, got {self.n_circles}")

    @property
    def operations(self) -> int:
        return self.n_circles * (self.n_circles + 1) // 2

    def radius(self, p: int) -> float:
        return p * self.b / self.n_circles


def disk_state_weights(b: float, dim: int) -> np.ndarray:
    """Diagonal P(X > n) / b^2, n < dim, X ~ Poisson(b^2), of the disk-mixed
    state: the one tail P(X > dim - 1) plus the Poisson terms c_m(b)^2,
    n < m < dim, summed downward from the smallest, so nothing cancels."""
    terms = np.append(np.square(coherent_amplitudes(b, dim))[1:], poisson_tail(dim - 1, b * b))
    return np.cumsum(terms[::-1])[::-1] / (b * b)


def maximally_mixed(b: float, cutoff: CutoffPolicy) -> np.ndarray:
    """Uniform mixture of coherent projectors over the disk of radius b,
    diagonal in the Fock basis."""
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    cutoff.require(b)
    return np.diag(disk_state_weights(b, cutoff.dim))


def circle_mixture(p: int, radius: float, cutoff: CutoffPolicy) -> np.ndarray:
    """Uniform mixture of p coherent states on one circle (canonical form).

    Entries e^(-r^2) r^(m+n) / sqrt(m! n!) on the stripes |m-n| = 0 mod p,
    exact zeros elsewhere.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    cutoff.require(radius)
    dim = cutoff.dim
    c = coherent_amplitudes(radius, dim)
    idx = np.arange(dim)
    stripe = (idx[:, None] - idx[None, :]) % p == 0
    return np.where(stripe, np.outer(c, c), 0.0)


def phi_n(spec: ChannelSpec, cutoff: CutoffPolicy) -> np.ndarray:
    """Encryption mixture (1/M) sum_p p * rho_p at radii p*b/N; a circle p >= dim
    meets the block on its diagonal alone, so those circles add as one term."""
    cutoff.require(spec.b)
    dim, n = cutoff.dim, spec.n_circles
    acc = np.zeros((dim, dim))
    for p in range(1, min(n, dim - 1) + 1):
        acc += p * circle_mixture(p, spec.radius(p), cutoff)
    far = np.arange(dim, n + 1)
    acc[np.diag_indices(dim)] += far @ np.square(coherent_amplitudes(far * spec.b / n, dim))
    return acc / spec.operations
