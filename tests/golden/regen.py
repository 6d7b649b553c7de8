"""Golden CSV outputs of the simplified-protocol commands.

Each file in this directory is the stdout of one CLI run, named in CASES.
`tests/test_golden.py` reruns every case through `cli.main` and compares
the output column by column.  This script rewrites the files from the
working tree and prints, for each file and column that moved, the
largest move:

    PYTHONPATH=src python tests/golden/regen.py

Regenerating a golden file changes what the check accepts: record the
printed moves with the change that needs them.
"""

from __future__ import annotations

import contextlib
import csv
import io
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
}


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


def main() -> int:
    for name, argv in CASES.items():
        path = HERE / name
        text = render(argv)
        if path.exists():
            old, new = columns(path.read_text()), columns(text)
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
