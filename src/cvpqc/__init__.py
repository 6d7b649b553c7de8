"""Numerics for private quantum channels over continuous variables.

Disk-mixed states, circle-mixture encryption ensembles, analytic and
numeric Hilbert-Schmidt distances, optimal displacement radii, and the
Holevo bound on an eavesdropper's information.
"""

__version__ = "0.1.0"

from .distances import (
    ConsistencyError,
    DistanceReport,
    exact_key_bits,
    hs2_exact,
    hs2_guess,
    hs2_simplified,
    key_bits,
    trace_cross,
    trace_phi_sq,
    trace_unit_sq,
)
from .ensembles import (
    ChannelSpec,
    PhaseShiftEnsemble,
    SimplifiedSpec,
    canonical_angles,
    circle_mixture,
    encrypt,
    maximally_mixed,
    phase_shift_ensemble,
    phi_n,
)
from .fockspace import (
    CoherentLabel,
    CutoffError,
    CutoffPolicy,
    FockOperator,
    NotAStateError,
    coherent_projector,
    displacement_conjugate,
    hs_distance_numeric,
    von_neumann_entropy,
)
from .holevo import (
    HolevoCurve,
    LambdaSpectrum,
    OffDiagonalEstimate,
    QuadratureConvergenceError,
    holevo_bound,
    holevo_curve,
    lambda_spectrum,
    off_diagonal_check,
)
from .optimizer import (
    RminResult,
    SaturationResult,
    find_rmin,
    saturation_sweep,
    stationarity,
)
from .specialfns import (
    ArgumentRangeError,
    SeriesTolerance,
    bessel_i,
    bessel_sum,
    poisson_tail,
)
