import ast
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cvpqc
from cvpqc import cli, ensembles, optimizer
from cvpqc.fockspace import disk_cutoff
from conftest import mp_hs2_dense
from test_tracing import traced_names


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
               ",", "", "2:1:0.5", "0:1e12:1", "-1e308:1e308:1", "1:1000001:1",
               "1:0.5:1e-320", "1e308:-1e308:1"]
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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--out", "/dev/full", "keybits", "--d-hs", "0.1"], "--out"),
            (["--json-log", "/dev/full", "keybits", "--d-hs", "0.1"], "--json-log"),
            (["--out", "/dev/full", "rmin", "--b", "0.01:7:0.001"], "--out"),
        ],
        ids=["out-at-close", "json-log-at-close", "out-mid-write"],
    )
    def test_full_device_is_bad_input(self, argv, flag, tmp_path, capsys):
        # every write to /dev/full fails with ENOSPC: a short row fails when the file
        # closes, and the 6990 rmin rows overflow the write buffer first
        log = tmp_path / "run.json"
        extra = ["--json-log", str(log)] if flag == "--out" else []
        code, out, err = run([*extra, *argv], capsys)
        assert code == cli.EXIT_BAD_INPUT and len(err.splitlines()) == 1
        assert err.startswith(f"invalid input: cannot write {flag}: [Errno 28]")
        if flag == "--out":  # the log, open before the work, records the failure
            doc = json.loads(log.read_text())
            assert doc["exit_code"] == code and doc["exit_reason"] == err.rstrip("\n")
        else:
            assert out.startswith("d_hs,approx_bits,N,exact_bits\n")

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
            # (stop - start) / step overflows to -inf: no values, not a traceback
            (["rmin", "--b", "1:0.5:1e-320"], "must hold 1 to"),
            (["distance", "--b", "2", "--N", "2:1:1e-320"], "must hold 1 to"),
            (["holevo", "--b-grid", "1:0.5:1e-320"], "must hold 1 to"),
            (["distance", "--b", "2", "--N", f"10,{cli.ORACLE_N_MAX + 1}", "--with-oracle"],
             f"--with-oracle needs N <= {cli.ORACLE_N_MAX}"),
            (["distance", "--b", "1e-300", "--N", "3"], "at least 1e-150"),
            (["distance", "--b", "1e-150,9.9e-151", "--N", "3"], "at least 1e-150"),
            (["simplified", "--b", "9e-3", "--p", "3", "--r", "5e-3"], "at least 0.01"),
            (["simplified", "--b", "nan", "--p", "3", "--r", "1"],
             "b must be positive and at least 0.01, got nan"),
            (["saturation", "--b", "9e-3"], "at least 0.01"),
            (["saturation", "--b", "nan"], "b must be positive and at least 0.01, got nan"),
            (["figures", "fig1a", "--b", "9.9e-3"], "at least 0.01"),
            (["rmin", "--b", "1e-3"], "at least 0.01"),
            (["figures", "fig1b", "--b-grid", "9.9e-3,1"], "at least 0.01, got 0.0099"),
            (["rmin", "--b", "0.5,10.01"], "b=10.01 outside the window 2b^2 <= 200.0"),
            (["figures", "fig1b", "--b-grid", "0.5,10.5"], "b=10.5 outside the window 2b^2 <= 200.0"),
            (["holevo", "--b-grid", "1e-300"], "at least 1e-150"),
            (["saturation", "--b", "2", "--p-max", "502"], "p_max must be in [2, 501]"),
            (["saturation", "--b", "2", "--p-max", "100000000"], "p_max must be in [2, 501]"),
            (["figures", "fig1a", "--p-max", "502"], "p_max must be in [2, 501]"),
            (["saturation", "--b", "1e308"], "outside the window 2b^2 <= 200.0"),
            (["figures", "fig1a", "--b", "1e308"], "outside the window 2b^2 <= 200.0"),
            (["--format", "json", "verify", "identities"], "not --format json"),
        ],
        ids=["keybits-N0", "mc-samples-0", "mc-samples-neg", "mc-samples-99", "seed-neg",
             "sat-tol-nan", "sat-tol-neg", "holevo-b-window", "distance-N-window", "grid-inf-stop",
             "counts-inf-stop", "holevo-empty-grid", "fig1b-empty-grid", "grid-descending",
             "grid-too-long", "grid-overflow-rmin", "grid-overflow-counts",
             "grid-overflow-holevo", "oracle-N-window", "distance-b-min", "distance-below-b-min",
             "simplified-b-min", "simplified-b-nan", "saturation-b-min", "saturation-b-nan",
             "fig1a-below-b-min", "rmin-b-min",
             "fig1b-below-b-min", "rmin-mixed-window", "fig1b-mixed-window", "holevo-b-min",
             "saturation-p-max", "saturation-huge-p-max", "fig1a-p-max",
             "saturation-huge-b", "fig1a-huge-b", "verify-json"],
    )
    @pytest.mark.filterwarnings("error")
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
            ["rmin", "--b", "10"],
            ["figures", "fig1b", "--b-grid", "10"],
            ["holevo", "--b-grid", "1e-150"],
            ["verify", "all", "--mc-samples", "100"],
        ],
        ids=["distance", "simplified", "saturation", "fig1a", "rmin", "fig1b", "rmin-b-max",
             "fig1b-b-max", "holevo", "verify-mc-samples"],
    )
    @pytest.mark.filterwarnings("error")
    def test_edge_of_the_window_runs(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_OK, err
        assert err == "" and len(out.splitlines()) >= 2

    @pytest.mark.parametrize("b", ["9e-3", "10.5", "1e308"])
    @pytest.mark.filterwarnings("error")
    def test_simplified_protocol_commands_share_one_window(self, b, capsys):
        # rmin, fig1b, saturation, fig1a and simplified all take check_disk's window
        reasons = set()
        for argv in (["rmin", "--b", b], ["figures", "fig1b", "--b-grid", b],
                     ["saturation", "--b", b], ["figures", "fig1a", "--b", b],
                     ["simplified", "--b", b, "--p", "3", "--r", "5e-3"]):
            code, out, err = run(argv, capsys)
            assert code == cli.EXIT_BAD_INPUT and out == "", argv
            assert len(err.splitlines()) == 1, argv
            reasons.add(err)
        assert len(reasons) == 1, reasons
        assert f"got {float(b)}" in err or f"b={float(b)} outside the window" in err

    def test_rmin_without_sign_change_is_inconsistent(self, capsys, monkeypatch):
        monkeypatch.setattr(optimizer, "stationarity", lambda b, r, p: np.ones_like(r))
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
        # one disk diagonal per radius serves hs2_exact and the dense oracle together
        built, tail = [], ensembles.poisson_tail
        monkeypatch.setattr(ensembles, "poisson_tail",
                            lambda n, lam: built.append(lam) or tail(n, lam))
        ensembles.disk_state_weights.cache_clear()
        code, _, err = run(["distance", "--b", "1.5,2.5", "--N", "1,2,3", "--with-oracle"], capsys)
        assert code == cli.EXIT_OK, err
        assert built == [1.5**2, 2.5**2]

    def test_oracle_across_gram_blocks(self, capsys):
        # at b = 10 the oracle's residue rows span several blocks
        code, out, err = run(["distance", "--b", "10", "--N", "1999,2000", "--with-oracle"], capsys)
        assert code == cli.EXIT_OK and err == ""
        lines = out.splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [row["N"] for row in rows] == ["1999", "2000"]
        for row in rows:
            assert abs(float(row["d2_numeric"]) - float(row["d2_exact"])) <= cli.ORACLE_TOL

    @pytest.mark.parametrize(
        "b,n", [("1e-150", "1,2000"), ("1e-4", "320")], ids=["subnormal-oracle", "1e-5-apart"]
    )
    def test_oracle_miss_below_the_absolute_bound_is_inconsistent(self, b, n, capsys):
        # D^2 far below ORACLE_TOL: the two routes differ by 1.23e-32 against 1.2e-319,
        # and by 1.2e-5 relative; both cancel Phi_nn - u_n, so neither is the reference
        code, _, err = run(["distance", "--b", b, "--N", n, "--with-oracle"], capsys)
        assert code == cli.EXIT_INCONSISTENT
        assert len(err.splitlines()) == 1 and "oracle mismatch" in err

    def test_oracle_bound(self):
        assert not cli.oracle_misses(1.0, 1.0 + 5e-9)  # 5e-9 apart: within ORACLE_TOL
        assert not cli.oracle_misses(1e-300, 1.0000005e-300)  # 5e-7 relative
        assert not cli.oracle_misses(2e-300, 2.0000000000000004e-300)  # a subnormal gap
        assert not cli.oracle_misses(1e-315, 5e-316)
        assert cli.oracle_misses(1.0, 1.0 + 2e-8)
        assert cli.oracle_misses(1e-20, 1.00001e-20)
        assert cli.oracle_misses(1.232595164407831e-32, 1.2488e-319)

    def test_oracle_memory_is_bounded(self):
        # one GRAM_BLOCK_BYTES block of residue rows and the N x dim amplitudes
        ensembles.disk_state_weights(10.0, disk_cutoff(10.0).dim)  # warm the per-radius cache
        tracemalloc.start()
        try:
            cli.numeric_d2(10.0, cli.ORACLE_N_MAX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_oracle_disk_state_is_read_only(self):
        dim = disk_cutoff(2.0).dim
        unit = ensembles.disk_state_weights(2.0, dim)
        assert unit.shape == (dim,) and not unit.flags.writeable
        with pytest.raises(ValueError):
            unit[0] = 0.0
        assert ensembles.disk_state_weights(2.0, dim) is unit

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


# Each command with a dense oracle: its argv, the disk radii b of its oracle states and
# the ensembles functions it builds them with.
ORACLE_RUNS = {
    "distance": (["distance", "--b", "1e-150,0.5,2,10", "--N", "1,3,40", "--with-oracle"],
                 {1e-150, 0.5, 2.0, 10.0}, {"maximally_mixed", "phi_n"}),
    "simplified": (["simplified", "--b", "2", "--p", "4", "--r", "1", "--with-oracle"],
                   {2.0}, {"maximally_mixed", "circle_mixture"}),
    "verify": (["verify", "all"], {0.5, 1.0, 2.0},
               {"maximally_mixed", "phi_n", "circle_mixture"}),
}


@pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
def test_oracle_states_fit_the_disk_cutoff(name, capsys, monkeypatch):
    # The dense states take a bare Fock dimension, so nothing in them checks that it
    # holds their radii.  Each is built on disk_cutoff(b).dim of the disk state b that
    # it is compared against, the last one built, and takes no radius above that b.
    argv, radii, kinds = ORACLE_RUNS[name]
    calls = []

    def spy(kind, func):
        return lambda *args: calls.append((kind, args)) or func(*args)

    for kind in ("maximally_mixed", "phi_n", "circle_mixture"):
        monkeypatch.setattr(cli, kind, spy(kind, getattr(cli, kind)))
    code, _, err = run(argv, capsys)
    assert calls[0][0] == "maximally_mixed"
    for kind, args in calls:
        if kind == "maximally_mixed":
            b = args[0]
            assert b in radii
        # phi_n(b', N, dim) takes the radii p b' / N <= b'; circle_mixture(p, r, dim) r
        radius = args[1] if kind == "circle_mixture" else args[0]
        assert args[-1] == disk_cutoff(b).dim, (kind, args, b)
        assert radius <= b, (kind, args, b)
    assert {kind for kind, _ in calls} == kinds
    assert code == cli.EXIT_OK, err


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

    def test_simplified_small_disk_oracle_miss_is_inconsistent(self, capsys, monkeypatch):
        # D^2 = 1.2e-9 here, so an oracle 1e-5 off relative passes ORACLE_TOL alone
        oracle = cli.numeric_simplified_d2
        monkeypatch.setattr(cli, "numeric_simplified_d2",
                            lambda b, p, r: oracle(b, p, r) * (1.0 + 1e-5))
        argv = ["simplified", "--b", "1e-2", "--p", "3", "--r", "5e-3", "--with-oracle"]
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_INCONSISTENT and "oracle mismatch" in err

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
        # the bracket ends at b * 1.0 = b; b * 2000 / 2000 rounds one ulp above b = 1.8994
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

    @pytest.mark.parametrize(
        "argv", [["rmin", "--b", "0.5:7:0.5"], ["figures", "fig1b"]], ids=["rmin", "fig1b"]
    )
    def test_radius_grid_is_one_root_search(self, argv, capsys, monkeypatch):
        # one find_rmin for the whole grid: one kernel evaluation at the five bracket
        # points of every radius, one per Illinois secant step for the radii still
        # open, and one for the residuals
        searches, scans = [], []
        find, kernel = cli.find_rmin, optimizer._kernel
        monkeypatch.setattr(cli, "find_rmin", lambda b: searches.append(b) or find(b))
        monkeypatch.setattr(
            optimizer, "_kernel", lambda b, r, *rule: scans.append(r) or kernel(b, r, *rule)
        )
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_OK, err
        assert len(out.splitlines()) == 15
        assert len(searches) == 1 and len(scans) <= 12


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


def test_output_contract_covers_every_command():
    # a subcommand added to cli.COMMANDS fails here until the contract covers it
    enum = load_schema()["properties"]["command"]["enum"]
    expected = set(cli.COMMANDS) - {"figures", "verify"} | {"fig1a", "fig1b", "fig2"}
    assert set(ROW_COMMANDS) == set(enum) == expected and len(enum) == len(expected)


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
    # numpy.random (about 10 ms) loads on the first off_diagonal_check, not at import
    src = str(Path(cvpqc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys, cvpqc.cli; print(','.join(m for m in "
        "('scipy', 'mpmath', 'jsonschema', 'numpy.random') if m in sys.modules))"
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


def test_no_module_imports_another_modules_private_name():
    # an underscore name is its module's own: a second caller makes it public API
    package = Path(cvpqc.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "cvpqc"
            ):
                for alias in node.names:
                    private = alias.name.startswith("_") and not alias.name.endswith("__")
                    assert not private, f"{path.name} imports {alias.name} from {node.module}"


def test_package_has_no_api_only_tests_use():
    # a name the cvpqc namespace exports is read by another package module, or
    # traced by the benchmark; any other serves the tests alone
    package = Path(cvpqc.__file__).resolve().parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = {name.split(".")[0] for _, name in traced_names()}
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert sorted(exported - used) == []


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
    # the Holevo rule's weights come from one cosine table; leggauss and the
    # O(n^3) eigen-solvers stay in the tests, as oracles
    package = Path(cvpqc.__file__).resolve().parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                last = name.rsplit(".", 1)[-1]
                assert last != "leggauss" and not last.startswith("eig"), (path.name, name)


def lru_caches(tree):
    """(function, maxsize node or None) of every functools cache decorator in tree;
    a bare @lru_cache has maxsize 128, and @cache none."""
    for func in ast.walk(tree):
        for deco in getattr(func, "decorator_list", []):
            call = deco if isinstance(deco, ast.Call) else None
            name = ast.unparse(call.func if call else deco).rsplit(".", 1)[-1]
            if name == "cache":
                yield func, ast.Constant(None)
            elif name == "lru_cache":
                args = {kw.arg: kw.value for kw in call.keywords} if call else {}
                if call and call.args:
                    args["maxsize"] = call.args[0]
                yield func, args.get("maxsize", ast.Constant(128))


def test_every_cache_is_bounded_or_keyed_by_integers():
    # a float-keyed cache grows with the grid: holevo --b-grid of 1e6 radii must not
    # keep 1e6 entries; only a function of integers (a rule order) may be unbounded
    package = Path(cvpqc.__file__).resolve().parent
    found = 0
    for path in sorted(package.glob("*.py")):
        for func, maxsize in lru_caches(ast.parse(path.read_text(), filename=str(path))):
            found += 1
            where = f"{path.name}:{func.name}"
            if isinstance(maxsize, ast.Constant) and isinstance(maxsize.value, int):
                continue
            assert isinstance(maxsize, ast.Constant) and maxsize.value is None, where
            params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
            assert not (func.args.vararg or func.args.kwarg), where
            assert all(p.annotation is not None and ast.unparse(p.annotation) == "int"
                       for p in params), where
    assert found >= 5  # trapezoid_rule, _rule, _circle_rules, _cutoff_dim, disk_state_weights


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

    @staticmethod
    def all_names(quick):
        """The check names of `verify all [--quick]`, in order, from the suites' grids."""
        xs, grid = (0.5, 1.0, 2.0, 4.0, 8.0), (0.6, 1.2, 1.8, 2.4, 3.0)
        names = [f"bessel-identity x={x}" for x in xs]
        names += [f"bessel-identity-2 y={y} z={z}" for y in grid for z in grid]
        bs, ns = ((1.0, 2.0), (1, 3)) if quick else ((0.5, 1.0, 2.0), range(1, 7))
        for b in bs:
            names.append(f"trace-unit-sq b={b}")
            for n in ns:
                names += [f"{check} b={b} N={n}"
                          for check in ("trace-cross", "trace-phi-sq", "hs2-exact")]
        names.append("hs2-simplified b=2.0 p=4 r=1.0")
        names += ["diagonal-limit monotone", "diagonal-limit N=80 below 5e-3",
                  "disk-state first diagonal closed form", "purity b->0 limit"]
        names.append(f"lambda-diagonality b=0.5 samples={20000 if quick else 100000}")
        return names

    # the full suite is the form the benchmark runs: b in {0.5, 1, 2}, N = 1..6, 10^5 samples
    @pytest.mark.parametrize("quick,count", [(True, 50), (False, 93)], ids=["quick", "full"])
    def test_all_runs_every_named_check(self, quick, count, capsys):
        code, out, _ = run(["verify", "all", "--seed", "0"] + ["--quick"] * quick, capsys)
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        names = self.all_names(quick)
        assert (code, len(names)) == (cli.EXIT_OK, count)
        assert lines == [f"PASS {name}" for name in names]
        assert out.splitlines()[-1] == f"# {count}/{count} checks passed"

    @pytest.mark.parametrize(
        "patched,failing",
        [("trace_unit_sq", ("trace-unit-sq",)),
         ("hs2_exact", ("trace-cross", "trace-phi-sq", "hs2-exact")),
         ("hs2_simplified", ("hs2-simplified",))],
    )
    def test_failing_oracle_check_names_both_sides(self, patched, failing, capsys,
                                                   monkeypatch):
        # an analytic value of 0: every check it feeds fails as "analytic 0.0 vs
        # matrix <the dense value>", and every other check still passes
        value = (0.0, 0.0, 0.0) if patched == "hs2_exact" else 0.0
        monkeypatch.setattr(cli, patched, lambda *args: value)
        code, out, _ = run(["verify", "all", "--quick", "--seed", "0"], capsys)
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert code == cli.EXIT_VERIFY_FAIL and len(lines) == 50
        for name, line in zip(self.all_names(quick=True), lines):
            if name.startswith(failing):
                match = re.fullmatch(
                    rf"FAIL {re.escape(name)}: analytic 0\.0 vs matrix (\S+)", line
                )
                assert match and float(match[1]) > 0.0, line
            elif patched == "trace_unit_sq" and name == "purity b->0 limit":
                assert line == f"FAIL {name}"
            else:
                assert line == f"PASS {name}"

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
        assert set(doc) == {"package_version", "numpy_version", "argv",
                            "exit_code", "exit_reason"}
        assert "func" not in doc["argv"]
        assert doc["argv"]["d_hs"] == 0.25
        assert doc["exit_code"] == cli.EXIT_OK and doc["exit_reason"] == "ok"

    @pytest.mark.parametrize(
        "argv,patch,code,reason",
        [
            (["distance", "--b", "-1", "--N", "2"], None, cli.EXIT_BAD_INPUT,
             "invalid input: "),
            (["rmin", "--b", "2"], (optimizer, "stationarity", lambda b, r, p: np.ones_like(r)),
             cli.EXIT_INCONSISTENT, "internal consistency failure: "),
            (["verify", "oracles", "--quick"], (cli, "trace_unit_sq", lambda b: 0.0),
             cli.EXIT_VERIFY_FAIL, "verification failed: 2 of "),
        ],
        ids=["exit-2", "exit-3", "exit-1"],
    )
    def test_log_records_the_exit(self, argv, patch, code, reason, tmp_path, capsys,
                                  monkeypatch):
        # a failure after the log is open: the log holds the one stderr line
        if patch:
            monkeypatch.setattr(*patch)
        log = tmp_path / "run.json"
        got, _, err = run(["--json-log", str(log), *argv], capsys)
        doc = json.loads(log.read_text())
        assert got == code and doc["exit_code"] == code
        assert len(err.splitlines()) == 1 and doc["exit_reason"] == err.rstrip("\n")
        assert doc["exit_reason"].startswith(reason)


def eager_subcommand(prog, command):
    """The full _Parser of one subcommand of cli.COMMANDS, built at once."""
    _, func, arguments = cli.COMMANDS[command]
    parser = cli._Parser(prog=prog)
    for name, kwargs in arguments:
        parser.add_argument(name, **kwargs)
    parser.set_defaults(func=func)
    return parser


class TestLazySubcommands:
    # one cheap run of each of the 8 subcommands
    RUNS = [
        ["distance", "--b", "1", "--N", "4"],
        ["keybits", "--d-hs", "0.5", "--N", "5"],
        ["simplified", "--b", "2", "--p", "4", "--r", "1"],
        ["rmin", "--b", "1,2"],
        ["saturation", "--b", "2", "--p-max", "4"],
        ["holevo", "--b-grid", "1"],
        ["figures", "fig1a", "--b", "1.5"],
        ["verify", "identities"],
    ]
    # help and argument errors at the top level and in every subcommand
    MESSAGES = [[], ["--help"], ["bogus"], ["--format", "xml", "keybits", "--d-hs", "1"],
                ["figures", "fig9"], ["figures", "fig1a", "--zzz"], ["distance", "--b"],
                ["keybits", "--d-hs", "x"], ["keybits", "--d-hs", "0.5", "extra"]] + [
        [argv[0], "--help"] for argv in RUNS] + [[argv[0]] for argv in RUNS]

    def test_runs_cover_every_command(self):
        assert [argv[0] for argv in self.RUNS] == list(cli.COMMANDS)

    @pytest.mark.parametrize("argv", RUNS, ids=lambda argv: argv[0])
    def test_a_run_builds_two_parsers(self, argv, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__",
                            lambda self, *a, **k: built.append(k["prog"]) or init(self, *a, **k))
        assert run(argv, capsys)[0] == cli.EXIT_OK
        assert built == ["cvpqc", f"cvpqc {argv[0]}"]  # not all eight subcommands

    def test_lazy_tree_matches_eager_tree(self, capsys, monkeypatch):
        argvs = self.RUNS + self.MESSAGES
        lazy = [run(argv, capsys) for argv in argvs]
        namespaces = [vars(cli.build_parser().parse_args(argv)) for argv in self.RUNS]
        monkeypatch.setattr(cli, "_Subcommand", eager_subcommand)  # every one built up front
        assert [run(argv, capsys) for argv in argvs] == lazy
        assert [vars(cli.build_parser().parse_args(argv)) for argv in self.RUNS] == namespaces
        for argv, (code, out, err) in zip(argvs, lazy):
            if argv in self.RUNS:
                assert code == cli.EXIT_OK and err == ""
            elif "--help" in argv:
                prog = " ".join(["cvpqc"] + argv[:-1])
                assert code == cli.EXIT_OK and out.startswith(f"usage: {prog}")
            else:  # one line naming the parser at fault
                assert code == cli.EXIT_BAD_INPUT and out == "" and len(err.splitlines()) == 1
                assert err.startswith("cvpqc") and ": error: " in err
