"""Golden outputs: each command of `golden/regen.py` still prints its file.

Integers and strings, the input columns among them, must match exactly.
Each float column a computation prints has an (absolute, relative) bound
below, with its reason, and d2_exact a term in its square root.  No row may be left out to meet a bound: a column
that moves past its bound fails here until the file is regenerated, and
regenerating is a check change (see `golden/regen.py`).
"""

import math

import pytest

from golden.regen import CASES, HERE, columns, render

BOUNDS = {
    # the root search stops at a bracket width of 1e-12
    "r_min": (1e-12, 0.0),
    "r_at_min": (1e-12, 0.0),
    # the slope at r_min: |d^2 D^2 / dr^2| <= 2.06 over the rmin grid, times the
    # bracket width, with room for rounding
    "residual": (5e-12, 0.0),
    # D^2 at a minimum is flat in r, so only rounding moves it; at b = 0.01 the
    # minima are 2.6e-19 while d_0 = e^(-r^2) - u_0 cancels to -b^4/24
    "d2_min": (0.0, 1e-10),
    # one stripe sum, no search: a new summation order moves it by a few ulp
    "d2_simplified": (0.0, 1e-14),
    # the dense oracle's matrix products may sum in another order elsewhere
    "d2_numeric": (0.0, 1e-12),
    # chi is the gap of two entropies of order 1 bit, each a sum over the Fock
    # levels of one fixed quadrature rule: rounding moves it by a few ulp
    "chi_bits": (0.0, 1e-14),
    # the larger of the refinement gap and the mass deficit, 2.2e-16 .. 2.1e-13 on
    # the golden grid: differences of sums of order 1, so rounding moves them
    # by a few ulp of 1, absolutely
    "quad_error": (1e-15, 0.0),
    # bounded in SQRT_BOUNDS
    "d2_exact": (0.0, 0.0),
    # the closed form 1 / (N + 1)^2, one or two roundings
    "d2_guess": (0.0, 1e-15),
    # sums of positive terms; another block size moves the last two by at most
    # 6.3e-15 relative
    "tr_unit2": (0.0, 1e-14),
    "tr_cross": (0.0, 1e-14),
    "tr_phi2": (0.0, 1e-14),
    # closed forms in log2: -1 - 2 log2 d and log2 N + log2(N + 1) - 1
    "approx_bits": (0.0, 1e-15),
    "exact_bits": (0.0, 1e-15),
}

# A third term, times sqrt|value|.  d2_exact = |diag - u|^2 + off-diagonal, where the
# diagonal weights diag and u are of order 1 and diag - u cancels: a rounding delta of
# the weights moves it by 2 <diag - u, delta> <= 2 sqrt(d2_exact) |delta|, so the
# distance sqrt(d2_exact) moves by |delta|, absolutely, on every row.  Measured on the
# golden rows: u moved by up to 2 ulp moves sqrt(d2_exact) by at most 3.7e-16, circle
# blocks of 512 to 1e5 in place of 4096 by at most 9.5e-16.  5e-15 sqrt(d2_exact) is
# 8e-15 relative at N = 1 and 3.6e-9 at N = 1e5, where D^2 is 1.9e-12.
SQRT_BOUNDS = {"d2_exact": 5e-15}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name):
    want = columns((HERE / name).read_text())
    got = columns(render(CASES[name]))
    assert list(got) == list(want)
    for col, cells in want.items():
        assert len(got[col]) == len(cells), col
        atol, rtol = BOUNDS.get(col, (None, None))
        for row, (new, old) in enumerate(zip(got[col], cells), start=1):
            if atol is None or not old:  # integers, strings, input columns, empty cells
                assert new == old, (col, row)
            else:
                size = abs(float(old))
                bound = atol + rtol * size + SQRT_BOUNDS.get(col, 0.0) * math.sqrt(size)
                assert math.fabs(float(new) - float(old)) <= bound, (col, row, new, old)
