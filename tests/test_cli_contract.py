"""The CLI contract as one property test over every subcommand.

For any argv, `main` returns an exit code 0-3 and lets no exception
escape; stderr holds at most one line and never a traceback; and after
exit 0 every CSV cell parses as a finite number (or is empty, or a text
column), the JSON report validates against the schema, and `verify`
writes only PASS and comment lines.

The argument strategies mix values inside the supported window with
non-finite, tiny, huge, malformed and window-edge values.  Every accepted
argv stays cheap: grids hold at most a few points, N stays at or below the
oracle's 2000, and Monte Carlo sample counts stay small.
"""

import contextlib
import io
import json
import math

import jsonschema
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvpqc import cli
from test_cli import TEXT_COLUMNS, load_schema

SPECIAL = ["nan", "inf", "-inf", "-nan", "0", "-0.0", "-1", "1e-320", "5e-324", "1e308",
           "-1e308", "1e400", "x", "", "1e", "1,2", "1:2:1", " 2", "0x10", "1_0"]
# grids whose span overflows, is empty or exceeds GRID_MAX_POINTS, or that are malformed
BAD_GRIDS = ["1:0.5:1e-320", "2:1:1e-320", "0:1e12:1", "-1e308:1e308:1", "1e308:-1e308:1",
             "2:1:0.5", "1:2:nan", "0.5:inf:0.5", "1:2", "1:2:3:4", "1:2:0", "1:2:-1",
             ",", "", "1,,2", ":", "1::1"]


def mostly(good, bad=st.sampled_from(SPECIAL)):
    """good four draws in five, else bad."""
    return st.sampled_from([good] * 4 + [bad]).flatmap(lambda strategy: strategy)


def number(edges, lo, hi):
    """A window edge or a finite float in [lo, hi], as text; now and then a special one."""
    return mostly(st.one_of(st.sampled_from(edges), st.floats(lo, hi).map(repr)))


def whole(edges, lo, hi):
    return mostly(st.one_of(st.sampled_from(edges), st.integers(lo, hi).map(str)))


def grid(item, step):
    """Comma lists of 1-3 items or start:stop:step ranges of 1-4 points; now and
    then a bad grid."""
    lists = st.lists(item, min_size=1, max_size=3).map(",".join)
    ranges = st.builds(lambda start, k, h: f"{start!r}:{start + k * h!r}:{h!r}",
                       step, st.integers(0, 3), step)
    return mostly(st.one_of(lists, ranges), st.sampled_from(BAD_GRIDS))


# Radii of each window (distance: 1e-150 <= b <= 10; the simplified protocol:
# 0.01 <= b <= 10; Holevo: 1e-150 <= b <= 13), with the values just outside.
DISTANCE_B = number(["1e-150", "9.9e-151", "1e-8", "10", "10.01"], 1e-3, 10.0)
DISK_B = number(["0.01", "0.0099", "10", "10.01"], 0.01, 10.0)
HOLEVO_B = number(["1e-150", "9.9e-151", "13", "13.01"], 1e-3, 13.0)
STEP = st.floats(0.01, 4.0)
# N up to the oracle's 2000: N_MAX = 1e5 is accepted but costs 0.2 s a row
COUNTS = whole(["1", "2000", "2001", "100001", "0", "1.5", "9" * 30], 1, 400)
P_MAX = whole(["1", "2", "501", "502"], 2, 60)

# Each subcommand: its positional choices and (flag, strategy, required) per option;
# a strategy of None is a switch.
ARGUMENTS = {
    "distance": ([], [("--b", grid(DISTANCE_B, STEP), True),
                      ("--N", grid(COUNTS, st.integers(1, 300).map(float)), True),
                      ("--with-oracle", None, False)]),
    "keybits": ([], [("--d-hs", number(["0", "1", "1e-300"], 1e-9, 1.0), True),
                     ("--N", whole(["0", "9" * 400], 1, 10**6), False)]),
    "simplified": ([], [("--b", DISK_B, True), ("--p", whole(["0", "9" * 30], 1, 600), True),
                        ("--r", number(["1e-9", "10"], 1e-3, 5.0), True),
                        ("--with-oracle", None, False)]),
    "rmin": ([], [("--b", grid(DISK_B, STEP), True)]),
    "saturation": ([], [("--b", DISK_B, True), ("--p-max", P_MAX, False),
                        ("--saturation-tol", number(["1", "1e-300"], 0.0, 0.5), False)]),
    "holevo": ([], [("--b-grid", grid(HOLEVO_B, STEP), True)]),
    "figures": (["fig1a", "fig1b", "fig2", "fig9"],
                [("--b", DISK_B, False), ("--p-max", P_MAX, False),
                 ("--b-grid", grid(DISK_B, STEP), False)]),
    "verify": (["identities", "oracles", "limits", "all", "bogus"],
               [("--quick", None, False), ("--seed", whole(["0", "-1"], 0, 20), False),
                ("--mc-samples", whole(["99", "100", "0"], 100, 2000), False)]),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ARGUMENTS)))
    choices, options = ARGUMENTS[command]
    fmt = draw(mostly(st.sampled_from(["csv", "json"]), st.just("xml")))
    argv = ["--format", fmt] if fmt != "csv" or draw(st.booleans()) else []
    argv.append(command)
    if choices:
        argv.append(draw(mostly(st.sampled_from(choices[:-1]), st.just(choices[-1]))))
    for flag, value, required in options:
        # a required option is left out now and then, an optional one half the time
        if draw(st.integers(0, 19)) if required else draw(st.booleans()):
            argv += [flag] if value is None else [flag, draw(value)]
    return argv


def check_output(argv, out):
    """The report of a run that exited 0."""
    if "verify" in argv:
        assert all(line.startswith(("PASS ", "# ")) for line in out.splitlines()), out
    elif "json" in argv:
        jsonschema.validate(json.loads(out), load_schema())
    else:
        header, *lines = out.splitlines()
        columns = header.split(",")
        assert lines
        for line in lines:
            for col, cell in zip(columns, line.split(","), strict=True):
                if cell and col not in TEXT_COLUMNS and not cell.isdigit():  # N of any size
                    assert math.isfinite(float(cell)), (col, cell)


@given(argv=argvs())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, err
    if code == cli.EXIT_OK:
        check_output(argv, out.getvalue())
