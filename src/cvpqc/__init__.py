"""Numerics for private quantum channels over continuous variables.

Disk-mixed states, circle-mixture encryption ensembles, analytic and
numeric Hilbert-Schmidt distances, optimal displacement radii, and the
Holevo bound on an eavesdropper's information.
"""

__version__ = "0.1.0"

from .distances import (
    ConsistencyError,
    exact_key_bits,
    hs2_exact,
    hs2_guess,
    hs2_simplified,
    key_bits,
    trace_cross,
    trace_phi_sq,
    trace_unit_sq,
)
from .ensembles import circle_mixture, maximally_mixed, phi_n
from .fockspace import CutoffError, CutoffPolicy, hs_distance_numeric
from .holevo import (
    QuadratureConvergenceError,
    lambda_spectrum,
    off_diagonal_check,
)
from .optimizer import find_rmin, saturation_sweep, stationarity
from .specialfns import ArgumentRangeError, bessel_i, poisson_tail
