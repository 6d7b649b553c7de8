"""Truncated Fock space: the cutoff rule, coherent-state amplitudes and
the Hilbert-Schmidt distance of the dense matrix oracle.

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

from dataclasses import dataclass

import numpy as np

from .specialfns import poisson_tail


class CutoffError(ValueError):
    """State support exceeds what the cutoff policy admits."""


@dataclass(frozen=True)
class CutoffPolicy:
    """Truncation rule: dimension large enough that the Poisson tail of
    the farthest state in play stays below ``tail_budget``."""

    max_radius: float
    tail_budget: float = 1e-10

    def __post_init__(self):
        if self.max_radius < 0:
            raise ValueError(f"max_radius must be non-negative, got {self.max_radius}")
        if not 0 < self.tail_budget < 1:
            raise ValueError(f"tail_budget must be in (0, 1), got {self.tail_budget}")

    def require(self, radius: float):
        if radius > self.max_radius + 1e-12:
            raise CutoffError(
                f"radius {radius} exceeds cutoff max_radius {self.max_radius}"
            )

    @property
    def dim(self) -> int:
        """Smallest dimension with discarded Poisson mass below budget; cached."""
        if "_dim" not in self.__dict__:
            lam = self.max_radius**2
            d = max(1, int(lam))
            while poisson_tail(d - 1, lam) >= self.tail_budget:
                d += 1
            object.__setattr__(self, "_dim", d)
        return self._dim


def disk_cutoff(b: float) -> CutoffPolicy:
    """Cutoff for a distance to the disk state of radius b, in the stripe
    kernel and the dense oracle alike: tail budget 1e-12 at b >= 1, shrinking
    like b^8 below, so the stripes it drops stay far below D^2; it stops at
    the smallest normal double, reached near b = 2e-37."""
    return CutoffPolicy(b, max(1e-12 * min(1.0, b**8), np.finfo(float).tiny))


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


def hs_distance_numeric(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt distance sqrt(Tr((a-b)^2)) = Frobenius norm of a-b."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
