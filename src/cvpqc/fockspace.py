"""Dense operators on a truncated Fock space.

This is the brute-force numeric layer: coherent projectors, truncated
displacement unitaries, the Hilbert-Schmidt distance and the von Neumann
entropy.  Every analytic formula in the package is validated against it.

Truncation is governed by a CutoffPolicy: coherent-state photon
populations are Poisson, so the mass beyond the cutoff is exactly an
upper Poisson tail and the dimension can be chosen against a tail budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specialfns import poisson_tail

TWO_PI = 2.0 * math.pi


class CutoffError(ValueError):
    """State support exceeds what the cutoff policy admits."""


class NotAStateError(ValueError):
    """Operator fails the density-operator invariants."""


@dataclass(frozen=True)
class CoherentLabel:
    """Phase-space label (r, theta) of a coherent state."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"radius must be non-negative, got {self.r}")
        object.__setattr__(self, "theta", self.theta % TWO_PI)

    @property
    def amplitude(self) -> complex:
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))


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

    def admits(self, radius: float) -> bool:
        return radius <= self.max_radius + 1e-12

    def require(self, radius: float):
        if not self.admits(radius):
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


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on the truncated Fock space (immutable by convention)."""

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def diagnostics(self) -> dict:
        return {"dim": self.dim, "trace_deficit": 1.0 - self.trace}

    def to_debug_json(self) -> dict:
        """Debug dump {dim, re[][], im[][]} for test fixtures."""
        return {
            "dim": self.dim,
            "re": self.mat.real.tolist(),
            "im": self.mat.imag.tolist(),
        }

    @classmethod
    def from_debug_json(cls, obj: dict) -> "FockOperator":
        m = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        if m.shape != (obj["dim"], obj["dim"]):
            raise ValueError("debug dump shape does not match dim")
        return cls(m)


def coherent_amplitudes(label: CoherentLabel, dim: int) -> np.ndarray:
    """Fock amplitudes e^(-r^2/2) alpha^n / sqrt(n!) via recurrence."""
    a = label.amplitude
    c = np.zeros(dim, dtype=complex)
    c[0] = math.exp(-0.5 * label.r**2)
    for n in range(1, dim):
        c[n] = c[n - 1] * a / math.sqrt(n)
    return c


def coherent_projector(label: CoherentLabel, cutoff: CutoffPolicy) -> FockOperator:
    """Rank-1 projector |alpha><alpha| truncated to the cutoff dimension."""
    cutoff.require(label.r)
    c = coherent_amplitudes(label, cutoff.dim)
    return FockOperator(np.outer(c, c.conj()))


def displacement_matrix(label: CoherentLabel, dim: int) -> np.ndarray:
    """Truncated D(beta) = exp(beta a^dag - beta* a).

    The generator is anti-Hermitian, so the exponential is taken through
    the eigendecomposition of its Hermitian partner.  The top rows of the
    result are inaccurate; the cutoff margin absorbs that.
    """
    b = label.amplitude
    n = np.sqrt(np.arange(1, dim))
    k = np.zeros((dim, dim), dtype=complex)
    k += np.diag(b * n, -1)  # beta * a^dagger
    k -= np.diag(b.conjugate() * n, 1)  # beta* * a
    w, v = np.linalg.eigh(-1j * k)
    return (v * np.exp(1j * w)) @ v.conj().T


def displacement_conjugate(rho: FockOperator, label: CoherentLabel) -> FockOperator:
    """D(beta) rho D^dag(beta) on the truncated space."""
    if label.r == 0.0:
        return rho
    d = displacement_matrix(label, rho.dim)
    return FockOperator(d @ rho.mat @ d.conj().T)


def hs_distance_numeric(a: FockOperator, b: FockOperator) -> float:
    """Hilbert-Schmidt distance sqrt(Tr((a-b)^2)) = Frobenius norm of a-b."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.linalg.norm(a.mat - b.mat))


def von_neumann_entropy(rho: FockOperator, eig_floor: float = -1e-10) -> float:
    """Entropy -sum lambda log2 lambda in bits, 0 log 0 = 0.

    Eigenvalues in [eig_floor, 0) are truncation noise and are clamped;
    anything more negative means the operator is not a state.
    """
    w = np.linalg.eigvalsh(rho.mat)
    if w.min() < eig_floor:
        raise NotAStateError(f"eigenvalue {w.min()} below floor {eig_floor}")
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))
