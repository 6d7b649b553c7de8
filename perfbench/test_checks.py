"""Tests of the benchmark's output checkers and workload inputs.

Unaltered `cvpqc` output passes the checkers (apart from the known
`quad_error` cell of the Holevo table); each mutation of it is rejected.

    python3 -m pytest perfbench
"""

import contextlib
import io
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import check_op  # noqa: E402
from cvpqc.cli import main  # noqa: E402

CALLS = {
    "distance": ["distance", "--b", "1.5,2.5", "--N", "10,40,160", "--with-oracle"],
    "saturation": ["saturation", "--b", "1.7", "--p-max", "20"],
    "fig1a": ["figures", "fig1a", "--b", "2.3", "--p-max", "12"],
    "fig1b": ["figures", "fig1b"],
    "rmin": ["rmin", "--b", "0.5:7:0.5"],
    "holevo": ["holevo", "--b-grid", "0.5,1.5"],
    "verify": ["verify", "all", "--quick", "--seed", "3"],
}


@pytest.fixture(scope="module")
def outputs():
    result = {}
    for name, argv in CALLS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        result[name] = (argv, code, out.getvalue())
    return result


def mutate(text, col, fn, row=None):
    """Apply fn to the cells of column col (one row, or every row)."""
    lines = text.strip().splitlines()
    j = lines[0].split(",").index(col)
    rows = [line.split(",") for line in lines[1:]]
    for cells in rows if row is None else [rows[row]]:
        cells[j] = fn(cells[j])
    return "\n".join([lines[0]] + [",".join(cells) for cells in rows]) + "\n"


def shifted(delta):
    return lambda cell: repr(float(cell) + delta)


@pytest.mark.parametrize("name", [n for n in CALLS if n != "holevo"])
def test_unaltered_output_passes(outputs, name):
    verdict = check_op(*outputs[name])
    assert verdict.faults == [] and verdict.errors == []


def test_holevo_fails_only_on_quad_error_cells(outputs):
    verdict = check_op(*outputs["holevo"])
    assert verdict.errors == []
    assert all("quad_error" in fault for fault in verdict.faults)


@pytest.mark.parametrize(
    "name, col, fn, row",
    [
        ("holevo", "chi_bits", shifted(1e-6), 1),
        ("distance", "d2_exact", lambda c: repr(2 * float(c)), -1),
        ("distance", "d2_exact", lambda c: repr(2 * float(c)), 0),
        ("distance", "tr_phi2", shifted(1e-8), 2),
        ("saturation", "p_sat", shifted(1), None),
        ("saturation", "p_sat", shifted(-1), None),
        ("fig1a", "d2_min", shifted(1e-8), 5),
        ("rmin", "r_min", shifted(1e-4), 4),
        ("rmin", "r_min", shifted(-1e-4), 13),
        ("fig1b", "r_min", shifted(1e-4), 0),
    ],
)
def test_mutated_value_is_wrong(outputs, name, col, fn, row):
    argv, code, text = outputs[name]
    verdict = check_op(argv, code, mutate(text, col, fn, row))
    assert verdict.errors


@pytest.mark.parametrize("name, col", [("distance", "d2_exact"), ("rmin", "residual")])
def test_numpy_repr_cell_is_a_fault(outputs, name, col):
    argv, code, text = outputs[name]
    bad = mutate(text, col, lambda c: f"np.float64({c})", row=0)
    assert check_op(argv, code, bad).faults


def test_nonzero_exit_and_failed_verify_are_caught(outputs):
    argv, code, text = outputs["verify"]
    assert check_op(argv, 1, text).faults
    assert check_op(argv, code, text.replace("PASS", "FAIL", 1)).errors


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_inputs_follow_the_seed(workload):
    make = run.WORKLOADS[workload]
    first = make(random.Random(7), 7)
    assert first == make(random.Random(7), 7)
    other = make(random.Random(8), 8)
    assert other != first and len(other) == len(first)


@pytest.mark.parametrize("count", [3, 4, 8])
def test_radii_fall_one_per_stratum_in_mirrored_pairs(count):
    values = [float(v) for v in run.radii(random.Random(3), 1.0, 4.0, count)]
    width, slack = 3.0 / count, run.RADIUS_QUANTUM / 2
    assert all(1.0 + i * width - slack <= v <= 1.0 + (i + 1) * width + slack
               for i, v in enumerate(values))
    assert all(values[i] + values[-1 - i] == 5.0 for i in range(count // 2))


def test_radii_end_the_sweep_grid_at_b():
    for seed in range(200):
        for text in run.radii(random.Random(seed), 1.0, 3.0, 3):
            b = float(text)
            assert b * 2000 / 2000 == b


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distance", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
