"""Golden CSV outputs of the CLI commands.

Each file in this directory is the stdout of one CLI run, named in CASES.
`tests/test_golden.py` reruns every case through `cli.main` and compares
the output cell by cell, each float column within its bound in BOUNDS.
This script reruns every case from the working tree, writes the files that
are missing or fail their bounds, and prints, for each file it rewrites and
each column that moved, the largest move:

    PYTHONPATH=src python tests/golden/regen.py

Regenerating a golden file changes what the check accepts: record the
printed moves with the change that needs them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
from pathlib import Path

from cvpqc import cli

HERE = Path(__file__).resolve().parent

# file name -> CLI arguments
CASES = {
    "rmin.csv": ["rmin", "--b", "0.01:10:0.01"],
    "saturation_b0.01.csv": ["saturation", "--b", "0.01", "--p-max", "501"],
    "saturation_b1.csv": ["saturation", "--b", "1", "--p-max", "501"],
    "saturation_b2.csv": ["saturation", "--b", "2", "--p-max", "501"],
    "saturation_b10.csv": ["saturation", "--b", "10", "--p-max", "501"],
    "fig1a.csv": ["figures", "fig1a"],
    "fig1b.csv": ["figures", "fig1b"],
    "simplified_b2_p4_r1.csv": ["simplified", "--b", "2", "--p", "4", "--r", "1",
                                "--with-oracle"],
    "simplified_b10_p7_r3.3.csv": ["simplified", "--b", "10", "--p", "7", "--r", "3.3"],
    "simplified_b0.05_p3_r0.02.csv": ["simplified", "--b", "0.05", "--p", "3", "--r", "0.02"],
    "holevo.csv": ["holevo", "--b-grid", "0.5:13:0.5"],
    "fig2.csv": ["figures", "fig2"],
    # N = 4096 and 4097 lie on either side of the edge of hs2_exact's circle blocks
    "distance.csv": ["distance", "--b", "0.5,10", "--N", "1,10,4096,4097,100000"],
    # the dense oracle's d2_numeric, and the lower edge of the b window
    "distance_oracle.csv": ["distance", "--b", "1e-150,0.5,10", "--N", "1,3,40",
                            "--with-oracle"],
    "keybits_d0.01_N40.csv": ["keybits", "--d-hs", "0.01", "--N", "40"],
    "keybits_d0.5_N400digits.csv": ["keybits", "--d-hs", "0.5", "--N", "9" * 400],
}


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
    # the larger of the refinement gap and the mass deficit, 2.0e-15 .. 2.1e-10 on
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


def within_bound(col: str, new: str, old: str) -> bool:
    """Whether cell new of column col holds against old: equal text for integers,
    strings, input columns and empty cells, else |new - old| within col's bound."""
    atol, rtol = BOUNDS.get(col, (None, None))
    if atol is None or not old:
        return new == old
    size = abs(float(old))
    bound = atol + rtol * size + SQRT_BOUNDS.get(col, 0.0) * math.sqrt(size)
    try:
        return math.fabs(float(new) - float(old)) <= bound
    except ValueError:  # a number became text
        return False


def render(argv) -> str:
    """The stdout of one CLI run; a nonzero exit raises RuntimeError."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"{argv} exited {code}")
    return out.getvalue()


def columns(text: str) -> dict[str, list[str]]:
    """The cells of a CSV text, by column."""
    header, *rows = csv.reader(io.StringIO(text))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def largest_move(old: list[str], new: list[str]) -> tuple[float, float] | None:
    """The largest |new - old| and |new - old| / |old| over a column's cells;
    None if the row count changed or a cell that is not a number did."""
    if len(old) != len(new):
        return None
    moves = [(0.0, 0.0)]
    for a, b in zip(old, new):
        if a != b:
            try:
                move = abs(float(b) - float(a))
            except ValueError:
                return None
            moves.append((move, move / abs(float(a)) if float(a) else float("inf")))
    return max(m[0] for m in moves), max(m[1] for m in moves)


def holds(old: dict[str, list[str]], new: dict[str, list[str]]) -> bool:
    """Whether new has old's columns and rows, every cell within its bound."""
    return list(new) == list(old) and all(
        len(new[col]) == len(cells)
        and all(within_bound(col, n, o) for n, o in zip(new[col], cells))
        for col, cells in old.items()
    )


def main() -> int:
    for name, argv in CASES.items():
        path = HERE / name
        text = render(argv)
        if path.exists():
            old, new = columns(path.read_text()), columns(text)
            if holds(old, new):
                continue
            if list(old) != list(new):
                print(f"{name}: header {list(old)} -> {list(new)}")
            for col in (c for c in new if c in old):
                move = largest_move(old[col], new[col])
                if move is None:
                    print(f"{name}: {col}: cells changed that are not numbers")
                elif move[0]:
                    print(f"{name}: {col}: largest move {move[0]:.3e}, relative {move[1]:.3e}")
        path.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
