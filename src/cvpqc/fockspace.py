"""Truncated Fock space: the cutoff rule and the Hilbert-Schmidt distance
of the dense matrix oracle.  The coherent-state amplitudes live in
specialfns, beside the Poisson tails they feed, and are bound here too.

Every production Fock matrix is a real float64 array: the disk-mixed
state is diagonal, and circle mixtures at the canonical angles 2*pi*q/p
have real, positive stripe entries.  So amplitudes are taken at a real
radius only.  Every analytic formula in the package is validated against
this dense route.

Truncation is governed by a CutoffPolicy: coherent-state photon
populations are Poisson, so the mass beyond the cutoff is exactly an
upper Poisson tail and the dimension can be chosen against a tail budget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .specialfns import coherent_amplitudes  # noqa: F401  (callers import it from here)
from .specialfns import poisson_cut, poisson_tail


class CutoffError(ValueError):
    """State support exceeds what the cutoff policy admits."""


@dataclass(frozen=True)
class CutoffPolicy:
    """Truncation rule: dimension large enough that the Poisson tail of
    the farthest state in play stays below ``tail_budget``."""

    max_radius: float
    tail_budget: float = 1e-10

    def __post_init__(self):
        if not 0 <= self.max_radius < np.inf:
            raise ValueError(f"max_radius must be non-negative and finite, got {self.max_radius}")
        if not 0 < self.tail_budget < 1:
            raise ValueError(f"tail_budget must be in (0, 1), got {self.tail_budget}")

    def require(self, radius: float):
        if radius > self.max_radius + 1e-12:
            raise CutoffError(
                f"radius {radius} exceeds cutoff max_radius {self.max_radius}"
            )

    @property
    def dim(self) -> int:
        """Smallest dimension with discarded Poisson mass below budget (cached in _cutoff_dim)."""
        return _cutoff_dim(self.max_radius, self.tail_budget)


@functools.lru_cache(maxsize=64)  # bounded: a radius grid can be any length
def _cutoff_dim(max_radius: float, tail_budget: float) -> int:
    """CutoffPolicy.dim, from one tail array over n = 0 .. poisson_cut(lam),
    the first n whose tail is below every double."""
    lam = max_radius**2
    n = np.arange(poisson_cut(lam) + 1)
    return int(np.argmax(poisson_tail(n, lam) < tail_budget)) + 1


def disk_cutoff(b: float) -> CutoffPolicy:
    """Cutoff for a distance to the disk state of radius b, in the stripe
    kernel and the dense oracle alike: tail budget 1e-12 at b >= 1, shrinking
    like b^8 below, so the stripes it drops stay far below D^2; it stops at
    the smallest normal double, reached near b = 2e-37."""
    return CutoffPolicy(b, max(1e-12 * min(1.0, b**8), np.finfo(float).tiny))


def hs_distance_numeric(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt distance sqrt(Tr((a-b)^2)) = Frobenius norm of a-b."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
