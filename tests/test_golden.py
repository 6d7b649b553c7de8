"""Golden outputs: each command of `golden/regen.py` still prints its file.

Integers and strings, the input columns among them, must match exactly.
Each float column a computation prints has an (absolute, relative) bound
below, with its reason.  No row may be left out to meet a bound: a column
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
}


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
                bound = atol + rtol * abs(float(old))
                assert math.fabs(float(new) - float(old)) <= bound, (col, row, new, old)
