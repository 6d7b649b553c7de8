import ast
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cvpqc
from cvpqc import cli, optimizer
from conftest import mp_hs2_dense


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    text = resources.files("cvpqc").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


class TestParseGrid:
    def test_range_form(self):
        assert cli.parse_grid("0.5:2:0.5") == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_comma_form(self):
        assert cli.parse_grid("1,2.5,4") == [1.0, 2.5, 4.0]

    def test_bad_forms(self):
        bad = ["1:2", "1:2:-0.5", "0.5:inf:0.5", "-inf:1:0.5", "1:2:nan", "1,inf", "nan",
               ",", "", "2:1:0.5", "0:1e12:1", "-1e308:1e308:1", "1:1000001:1"]
        for text in bad:
            with pytest.raises(ValueError):
                cli.parse_grid(text)

    def test_longest_grid(self):
        grid = cli.parse_grid(f"1:{cli.GRID_MAX_POINTS}:1")
        assert len(grid) == cli.GRID_MAX_POINTS and grid[-1] == cli.GRID_MAX_POINTS


class TestExitCodes:
    def test_missing_subcommand_is_bad_input(self, capsys):
        code, _, _ = run([], capsys)
        assert code == cli.EXIT_BAD_INPUT

    def test_invalid_value_is_bad_input(self, capsys):
        code, _, err = run(["distance", "--b", "-1", "--N", "2"], capsys)
        assert code == cli.EXIT_BAD_INPUT
        assert "invalid input" in err

    def test_fractional_circle_count_is_bad_input(self, capsys):
        code, out, err = run(["distance", "--b", "1", "--N", "1.7"], capsys)
        assert code == cli.EXIT_BAD_INPUT
        assert out == "" and len(err.splitlines()) == 1 and "--N" in err

    def test_unwritable_out_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run(["--out", str(path), "keybits", "--d-hs", "0.5"], capsys)
        assert code == cli.EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1 and "--out" in err

    def test_unwritable_json_log_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "log.json"
        code, out, err = run(
            ["--json-log", str(path), "keybits", "--d-hs", "0.5"], capsys
        )
        assert code == cli.EXIT_BAD_INPUT
        assert out == "" and len(err.splitlines()) == 1 and "--json-log" in err

    def test_nonpositive_holevo_radius_is_bad_input(self, capsys):
        code, out, err = run(["holevo", "--b-grid", "0,1"], capsys)
        assert code == cli.EXIT_BAD_INPUT
        assert out == "" and len(err.splitlines()) == 1 and "b must be positive" in err

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["keybits", "--d-hs", "0.5", "--N", "0"], ""),
            (["verify", "all", "--mc-samples", "0"], ""),
            (["verify", "all", "--mc-samples", "-5"], ""),
            (["verify", "all", "--mc-samples", "99"], f"--mc-samples >= {cli.MC_SAMPLES_MIN}"),
            (["verify", "all", "--seed", "-1"], ""),
            (["saturation", "--b", "2", "--saturation-tol", "nan"], ""),
            (["saturation", "--b", "2", "--saturation-tol", "-1"], ""),
            (["holevo", "--b-grid", "10,12,13,14,15"], ""),
            (["distance", "--b", "2", "--N", "10,200000"], ""),
            (["rmin", "--b", "0.5:inf:0.5"], "must be finite"),
            (["distance", "--b", "1", "--N", "1:inf:1"], "must be finite"),
            (["holevo", "--b-grid", ","], "must hold 1 to"),
            (["figures", "fig1b", "--b-grid", ","], "must hold 1 to"),
            (["rmin", "--b", "2:1:0.5"], "must hold 1 to"),
            (["rmin", "--b", "0:1e12:1"], f"more than {cli.GRID_MAX_POINTS} points"),
            (["distance", "--b", "2", "--N", f"10,{cli.ORACLE_N_MAX + 1}", "--with-oracle"],
             f"--with-oracle needs N <= {cli.ORACLE_N_MAX}"),
            (["distance", "--b", "1e-300", "--N", "3"], "at least 1e-150"),
            (["distance", "--b", "1e-150,9.9e-151", "--N", "3"], "at least 1e-150"),
            (["simplified", "--b", "9e-3", "--p", "3", "--r", "5e-3"], "at least 0.01"),
            (["saturation", "--b", "9e-3"], "at least 0.01"),
            (["figures", "fig1a", "--b", "9.9e-3"], "at least 0.01"),
            (["rmin", "--b", "1e-3"], "[0.01, 7]"),
            (["figures", "fig1b", "--b-grid", "9.9e-3,1"], "[0.01, 7]"),
            (["holevo", "--b-grid", "1e-300"], "at least 1e-150"),
            (["saturation", "--b", "2", "--p-max", "502"], "p_max must be in [2, 501]"),
            (["saturation", "--b", "2", "--p-max", "100000000"], "p_max must be in [2, 501]"),
            (["figures", "fig1a", "--p-max", "502"], "p_max must be in [2, 501]"),
        ],
        ids=["keybits-N0", "mc-samples-0", "mc-samples-neg", "mc-samples-99", "seed-neg",
             "sat-tol-nan", "sat-tol-neg", "holevo-b-window", "distance-N-window", "grid-inf-stop",
             "counts-inf-stop", "holevo-empty-grid", "fig1b-empty-grid", "grid-descending",
             "grid-too-long", "oracle-N-window", "distance-b-min", "distance-below-b-min",
             "simplified-b-min", "saturation-b-min", "fig1a-below-b-min", "rmin-b-min",
             "fig1b-below-b-min", "holevo-b-min",
             "saturation-p-max", "saturation-huge-p-max", "fig1a-p-max"],
    )
    def test_out_of_window_input_is_bad_input(self, argv, reason, capsys):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_BAD_INPUT
        assert out == "" and len(err.splitlines()) == 1
        assert reason in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", "--b", "1e-150", "--N", "3", "--with-oracle"],
            ["simplified", "--b", "1e-2", "--p", "3", "--r", "5e-3", "--with-oracle"],
            ["saturation", "--b", "1e-2", "--p-max", "3"],
            ["figures", "fig1a", "--b", "1e-2", "--p-max", "3"],
            ["rmin", "--b", "1e-2"],
            ["figures", "fig1b", "--b-grid", "1e-2"],
            ["holevo", "--b-grid", "1e-150"],
            ["verify", "all", "--mc-samples", "100"],
        ],
        ids=["distance", "simplified", "saturation", "fig1a", "rmin", "fig1b", "holevo",
             "verify-mc-samples"],
    )
    def test_edge_of_the_window_runs(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_OK, err
        assert err == "" and len(out.splitlines()) >= 2

    def test_rmin_without_sign_change_is_inconsistent(self, capsys, monkeypatch):
        monkeypatch.setattr(optimizer, "stationarity", lambda b, r: np.ones_like(r))
        code, out, err = run(["rmin", "--b", "2"], capsys)
        assert code == cli.EXIT_INCONSISTENT
        assert out == "" and len(err.splitlines()) == 1 and "no sign change" in err

    def test_success_is_zero(self, capsys):
        code, out, _ = run(["keybits", "--d-hs", "0.5", "--N", "4"], capsys)
        assert code == cli.EXIT_OK
        assert out.splitlines()[0] == "d_hs,approx_bits,N,exact_bits"

    def test_keybits_of_huge_circle_count(self, capsys):
        # N (N + 1) / 2 overflows a float; log2 M must still be finite
        code, out, err = run(["keybits", "--d-hs", "0.5", "--N", "9" * 400], capsys)
        assert code == cli.EXIT_OK and err == ""
        exact = float(out.splitlines()[1].split(",")[3])
        assert exact == pytest.approx(800 * math.log2(10) - 1.0)


class TestDistanceCommand:
    def test_csv_contract(self, capsys):
        code, out, _ = run(
            ["distance", "--b", "1", "--N", "1,2", "--with-oracle"], capsys
        )
        assert code == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "b,N,d2_exact,d2_guess,d2_numeric,tr_unit2,tr_cross,tr_phi2"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert float(row[0]) == 1.0 and int(row[1]) == 1
        # oracle column filled and consistent (exit code already says so)
        assert abs(float(row[2]) - float(row[4])) < 1e-8

    def test_small_disk_purity(self, capsys):
        # 1 - e^(-x) (I_0 + I_1) by subtraction printed 2.22 here
        code, out, _ = run(["distance", "--b", "1e-8", "--N", "3"], capsys)
        assert code == cli.EXIT_OK
        row = dict(zip(*[line.split(",") for line in out.splitlines()]))
        assert abs(float(row["tr_unit2"]) - 1.0) <= 1e-15
        assert abs(float(row["tr_cross"]) - 1.0) <= 1e-15

    def test_small_disk_matches_high_precision(self, capsys):
        # a fixed 1e-12 tail budget kept one Fock level at b = 1e-6: both columns
        # read 2.5e-25, not 2.0e-12; below b ~ 2e-37 the scaled budget is floored
        bs = [1e-150, 1e-40, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5]
        code, out, err = run(["distance", "--b", ",".join(map(repr, bs)),
                              "--N", "1,3,10", "--with-oracle"], capsys)
        assert code == cli.EXIT_OK, err
        lines = out.splitlines()
        for row in (dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]):
            b, n = float(row["b"]), int(row["N"])
            ref = mp_hs2_dense(b, n, dim=12, dps=int(-2 * math.log10(b)) + 60)
            for column in ("d2_exact", "d2_numeric"):
                assert float(row[column]) == pytest.approx(ref, rel=1e-9, abs=0.0), (b, n)

    def test_oracle_builds_the_disk_state_once_per_radius(self, capsys, monkeypatch):
        built, disk = [], cli.maximally_mixed
        monkeypatch.setattr(cli, "maximally_mixed",
                            lambda b, cutoff: built.append(b) or disk(b, cutoff))
        cli._oracle_disk.cache_clear()
        code, _, err = run(["distance", "--b", "1.5,2.5", "--N", "1,2,3", "--with-oracle"], capsys)
        assert code == cli.EXIT_OK, err
        assert built == [1.5, 2.5]

    def test_oracle_disk_state_is_read_only(self):
        cutoff, unit = cli._oracle_disk(2.0)
        assert unit.shape == (cutoff.dim, cutoff.dim) and not unit.flags.writeable

    def test_json_output_validates_against_schema(self, tmp_path, capsys):
        out_path = tmp_path / "d.json"
        code, _, _ = run(
            ["--out", str(out_path), "--format", "json",
             "distance", "--b", "1", "--N", "3"],
            capsys,
        )
        assert code == cli.EXIT_OK
        doc = json.loads(out_path.read_text())
        jsonschema.validate(doc, load_schema())
        assert doc["command"] == "distance"
        assert doc["rows"][0]["N"] == 3


class TestOtherCommands:
    def test_rmin_rows(self, capsys):
        code, out, _ = run(["rmin", "--b", "1,2"], capsys)
        assert code == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "b,r_min,residual,method"
        assert all(line.endswith("root_find") for line in lines[1:])

    def test_simplified_with_oracle(self, capsys):
        code, out, _ = run(
            ["simplified", "--b", "2", "--p", "4", "--r", "1.0", "--with-oracle"],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert out.splitlines()[0] == "b,p,r,d2_simplified,d2_numeric"

    def test_simplified_small_disk_meets_oracle(self, capsys):
        # at the window's edge the oracle's cutoff must keep S_3 = 5e-15, which a fixed
        # 1e-12 tail budget drops (dim 3)
        argv = ["simplified", "--b", "1e-2", "--p", "3", "--r", "5e-3", "--with-oracle"]
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_OK, err
        d2, d2_num = (float(v) for v in out.splitlines()[1].split(",")[3:])
        assert abs(d2 - d2_num) < 1e-15

    def test_saturation_reports_p_sat(self, capsys):
        code, out, _ = run(["saturation", "--b", "1", "--p-max", "6"], capsys)
        assert code == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "b,p,r_at_min,d2_min,p_sat"
        p_sats = {line.split(",")[-1] for line in lines[1:]}
        assert len(p_sats) == 1

    def test_saturation_grid_ends_at_b(self, capsys):
        # b * 2000 / 2000 rounds one ulp above b = 1.8994
        code, out, err = run(["saturation", "--b", "1.8994", "--p-max", "2"], capsys)
        assert code == cli.EXIT_OK, err
        assert all(float(line.split(",")[2]) <= 1.8994 for line in out.splitlines()[1:])

    def test_holevo_grid(self, capsys):
        code, out, _ = run(["holevo", "--b-grid", "0.5,1"], capsys)
        assert code == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "b,chi_bits,quad_error,dim"
        chis = [float(line.split(",")[1]) for line in lines[1:]]
        assert chis[0] < chis[1]
        code, _, _ = run(["holevo", "--b-grid", "0.5,1", "--phi-points", "64"], capsys)
        assert code == cli.EXIT_BAD_INPUT

    def test_figure_data(self, capsys):
        code, out, _ = run(["figures", "fig1b", "--b-grid", "1,2"], capsys)
        assert code == cli.EXIT_OK
        assert out.splitlines()[0] == "b,r_min"


# Every subcommand that writes rows (verify writes a PASS/FAIL report).
ROW_COMMANDS = {
    "distance": ["distance", "--b", "1", "--N", "1,2", "--with-oracle"],
    "keybits": ["keybits", "--d-hs", "0.5"],
    "simplified": ["simplified", "--b", "2", "--p", "4", "--r", "1.0"],
    "rmin": ["rmin", "--b", "1,2"],
    "saturation": ["saturation", "--b", "1", "--p-max", "3"],
    "holevo": ["holevo", "--b-grid", "0.5,1"],
    "fig1a": ["figures", "fig1a", "--b", "1", "--p-max", "3"],
    "fig1b": ["figures", "fig1b", "--b-grid", "1,2"],
    "fig2": ["figures", "fig2", "--b-grid", "0.5,1"],
}
TEXT_COLUMNS = {"method"}


@pytest.mark.parametrize("command", sorted(ROW_COMMANDS))
def test_output_contract(command, capsys):
    argv = ROW_COMMANDS[command]
    code, out, _ = run(argv, capsys)
    assert code == cli.EXIT_OK
    header, *lines = out.strip().splitlines()
    columns = header.split(",")
    assert lines
    for line in lines:
        for col, cell in zip(columns, line.split(","), strict=True):
            if cell and col not in TEXT_COLUMNS:
                float(cell)

    code, out, _ = run(["--format", "json", *argv], capsys)
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["command"] == command and len(doc["rows"]) == len(lines)


def test_cli_imports_no_test_dependencies():
    src = str(Path(cvpqc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys, cvpqc.cli; "
        "print(','.join(m for m in ('scipy', 'mpmath', 'jsonschema') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the only runtime dependency; scipy and mpmath serve the tests alone
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    package = Path(cvpqc.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_only_verify_identities_calls_the_cross_series():
    # the simplified distance sums Fock stripes; the cross series is left in the
    # package only as the independent route of `verify identities`
    def callers(node, scope, found):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if "cross_bessel_sum" in (getattr(func, "id", None), getattr(func, "attr", None)):
                    found.add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            callers(child, f"{scope}.{child.name}" if named else scope, found)
        return found

    package = Path(cvpqc.__file__).resolve().parent
    found = set()
    for path in package.glob("*.py"):
        callers(ast.parse(path.read_text(), filename=str(path)), path.stem, found)
    assert found == {"cli.verify_identities"}


def test_package_builds_no_dense_eigenproblem():
    # the Holevo rules come from Newton's method in O(n^2); leggauss and the
    # O(n^3) eigen-solvers stay in the tests, as oracles
    package = Path(cvpqc.__file__).resolve().parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                last = name.rsplit(".", 1)[-1]
                assert last != "leggauss" and not last.startswith("eig"), (path.name, name)


@pytest.mark.parametrize(
    "argv", [["distance", "--b", "2", "--N", "5"], ["rmin", "--b", "2"]], ids=["distance", "rmin"]
)
def test_output_ignores_eps_environment(argv):
    # the series settings are fixed: a CVPQC_EPS left in the environment changes nothing
    src = str(Path(cvpqc.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "CVPQC_EPS"}
    outputs = []
    for extra in ({}, {"CVPQC_EPS": "1e-3"}):
        env = {**base, "PYTHONPATH": src, **extra}
        done = subprocess.run(
            [sys.executable, "-m", "cvpqc.cli", *argv],
            env=env, capture_output=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


class TestVerify:
    def test_identities_pass(self, capsys):
        code, out, _ = run(["verify", "identities"], capsys)
        assert code == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_identities_call_the_cross_series_once_per_row(self, capsys, monkeypatch):
        # 5 calls over the 5 x 5 grid (S(z, y) is the transpose) and 5 on the diagonal
        calls = []
        series = cli.cross_bessel_sum
        monkeypatch.setattr(cli, "cross_bessel_sum", lambda b, r: calls.append(b) or series(b, r))
        code, out, _ = run(["verify", "identities"], capsys)
        assert code == cli.EXIT_OK and out.splitlines()[-1] == "# 30/30 checks passed"
        assert len(calls) == 10

    def test_quick_all_is_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for p in paths:
            code, _, _ = run(
                ["--out", str(p), "verify", "all", "--quick", "--seed", "5"], capsys
            )
            assert code == cli.EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestJsonLog:
    def test_log_contents(self, tmp_path, capsys):
        log = tmp_path / "run.json"
        code, _, _ = run(
            ["--json-log", str(log), "keybits", "--d-hs", "0.25"], capsys
        )
        assert code == cli.EXIT_OK
        doc = json.loads(log.read_text())
        assert set(doc) == {"package_version", "numpy_version", "argv"}
        assert "func" not in doc["argv"]
        assert doc["argv"]["d_hs"] == 0.25
