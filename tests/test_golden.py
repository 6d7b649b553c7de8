"""Golden outputs: each command of `golden/regen.py` still prints its file.

Integers and strings, the input columns among them, must match exactly.
Each float column a computation prints has an (absolute, relative) bound,
with its reason, in `golden/regen.py` `BOUNDS`, and d2_exact a term in its
square root, in `SQRT_BOUNDS`; the script holds its files to the same
bounds.  No row may be left out to meet a bound: a column that moves past
its bound fails here until the file is regenerated, and regenerating is a
check change (see `golden/regen.py`).
"""

import pytest

from golden.regen import CASES, HERE, columns, render, within_bound


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name):
    want = columns((HERE / name).read_text())
    got = columns(render(CASES[name]))
    assert list(got) == list(want)
    for col, cells in want.items():
        assert len(got[col]) == len(cells), col
        for row, (new, old) in enumerate(zip(got[col], cells), start=1):
            assert within_bound(col, new, old), (col, row, new, old)
