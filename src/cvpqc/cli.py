"""Command-line front end: sweeps, figure-data reproduction, verification.

Outputs are plot-ready CSV (or JSON validating against the shipped schema);
no plotting dependency.  Exit codes: 0 success, 1 verification failure, 2 bad
input or an unwritable output, 3 internal consistency / oracle mismatch.
A command writes its rows and raises on failure; main turns the exception
into the exit code and one stderr line, which --json-log also records.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from . import __version__
from .distances import (
    ConsistencyError,
    cross_bessel_sum,
    exact_key_bits,
    hs2_exact,
    hs2_guess,
    hs2_simplified,
    key_bits,
    trace_unit_sq,
)
from .ensembles import maximally_mixed, phi_n, circle_mixture
from .fockspace import disk_cutoff, hs_distance_numeric
from .holevo import QuadratureConvergenceError, lambda_spectrum, off_diagonal_check
from .optimizer import find_rmin, saturation_sweep
from .specialfns import bessel_i

ORACLE_TOL, ORACLE_REL = 1e-8, 1e-6

# Largest N for distance --with-oracle: the dense oracle costs O(dim^4 + N dim),
# dim^2 / 2 residue rows times dim^2, about 27 ms at b = 10, N = 2000 (2-CPU Xeon).
ORACLE_N_MAX = 2000
# Fewest `verify all` Monte Carlo samples: with one the stderr is rounding noise, and
# at b = 0.5 some of seeds 0-399 fail up to 3 samples; at 100 none does.
MC_SAMPLES_MIN = 100

# Longest accepted grid argument; the largest useful one is --N 1:100000:1.
GRID_MAX_POINTS = 1_000_000

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_INCONSISTENT = 3


class VerificationError(RuntimeError):
    """A verify suite wrote at least one FAIL line."""


def _finite(parts) -> list[float]:
    values = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid values must be finite, got {values}")
    return values


def parse_grid(text: str) -> list[float]:
    """Accepts 'start:stop:step' or a comma list of finite values, giving
    1 to GRID_MAX_POINTS values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = _finite(parts)
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        span = (stop - start) / step + 1e-9  # +-inf if the quotient overflows
        if span < 0:  # stop below start
            raise ValueError(f"grid {text!r} must hold 1 to {GRID_MAX_POINTS} values")
        if not span < GRID_MAX_POINTS:  # nan included; checked before any list is built
            raise ValueError(f"grid {text!r} has more than {GRID_MAX_POINTS} points")
        values = [start + i * step for i in range(math.floor(span) + 1)]
    else:
        values = _finite(p for p in text.split(",") if p.strip())
    if not 1 <= len(values) <= GRID_MAX_POINTS:
        raise ValueError(f"grid {text!r} must hold 1 to {GRID_MAX_POINTS} values")
    return values


def parse_counts(text: str) -> list[int]:
    """parse_grid restricted to whole numbers."""
    values = parse_grid(text)
    if any(v != int(v) for v in values):
        raise ValueError(f"expected whole numbers, got {text!r}")
    return [int(v) for v in values]


def _arg(parse):
    """argparse type wrapper that keeps parse's ValueError text: argparse
    replaces that text with "invalid <name> value", but prints an
    ArgumentTypeError as it is."""

    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        # float() first: numpy 2 floats repr as np.float64(...)
        return repr(float(v))
    return str(v)


def write_rows(columns, rows, out, fmt, command):
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        out.write("\n".join(lines) + "\n")
    else:
        doc = {
            "command": command,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        json.dump(doc, out, indent=2, default=_fmt)
        out.write("\n")


def write_json_log(fh, args, code, reason):
    log = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "argv": {k: v for k, v in vars(args).items() if k != "func"},
        "exit_code": code,
        "exit_reason": reason,
    }
    json.dump(log, fh, indent=2, default=str)
    fh.write("\n")


def _oracle_disk(b: float):
    """Oracle Fock dimension disk_cutoff(b).dim and the dense disk-mixed state on it
    (diagonal cached per radius); every oracle state of b takes radii <= b."""
    dim = disk_cutoff(b).dim
    return dim, maximally_mixed(b, dim)


def oracle_misses(d2: float, d2_numeric: float) -> bool:
    """d2_numeric misses d2 by > ORACLE_TOL, or by > ORACLE_REL of it and a normal double."""
    gap = abs(d2 - d2_numeric)
    return gap > ORACLE_TOL or (gap > ORACLE_REL * abs(d2_numeric) and gap >= sys.float_info.min)


def numeric_d2(b: float, n_circles: int) -> float:
    """Matrix-oracle squared distance on the disk cutoff of hs2_exact."""
    dim, unit = _oracle_disk(b)
    mix = phi_n(b, n_circles, dim)
    return hs_distance_numeric(unit, mix) ** 2


def numeric_simplified_d2(b: float, p: int, r: float) -> float:
    """Matrix-oracle squared distance of the simplified protocol (one circle
    of p states at radius r) on the disk cutoff of hs2_exact."""
    dim, unit = _oracle_disk(b)
    return hs_distance_numeric(unit, circle_mixture(p, r, dim)) ** 2


# ---------------------------------------------------------------------------
# commands


def cmd_distance(args, out):
    if args.with_oracle and max(args.N) > ORACLE_N_MAX:
        raise ValueError(f"--with-oracle needs N <= {ORACLE_N_MAX}, got {max(args.N)}")
    rows = []
    for b in args.b:
        exact = [hs2_exact(b, n) for n in args.N]  # validates N, then b
        tr_unit2 = trace_unit_sq(b)
        for n, (d2, tr_cross, tr_phi2) in zip(args.N, exact):
            d2_num = numeric_d2(b, n) if args.with_oracle else None
            rows.append((b, n, d2, hs2_guess(n), d2_num, tr_unit2, tr_cross, tr_phi2))
    write_rows(
        ["b", "N", "d2_exact", "d2_guess", "d2_numeric",
         "tr_unit2", "tr_cross", "tr_phi2"],
        rows, out, args.format, "distance",
    )
    if args.with_oracle and any(oracle_misses(d2, num) for _, _, d2, _, num, *_ in rows):
        raise ConsistencyError("oracle mismatch beyond tolerance")


def cmd_keybits(args, out):
    exact = None if args.N is None else exact_key_bits(args.N)
    rows = [(args.d_hs, key_bits(args.d_hs), args.N, exact)]
    write_rows(
        ["d_hs", "approx_bits", "N", "exact_bits"], rows, out, args.format, "keybits"
    )


def cmd_simplified(args, out):
    d2 = hs2_simplified(args.b, args.p, args.r)
    d2_num = numeric_simplified_d2(args.b, args.p, args.r) if args.with_oracle else None
    write_rows(
        ["b", "p", "r", "d2_simplified", "d2_numeric"],
        [(args.b, args.p, args.r, d2, d2_num)],
        out, args.format, "simplified",
    )
    if d2_num is not None and oracle_misses(d2, d2_num):
        raise ConsistencyError("oracle mismatch beyond tolerance")


def cmd_rmin(args, out):
    r_min, residual = (a.tolist() for a in find_rmin(args.b))
    rows = [(b, r, res, "root_find") for b, r, res in zip(args.b, r_min, residual)]
    write_rows(["b", "r_min", "residual", "method"], rows, out, args.format, "rmin")


def _curve(r_at_min, d2_min):
    """(p, r, d2) rows of a saturation sweep, p = 1, 2, ..."""
    return list(zip(range(1, len(r_at_min) + 1), r_at_min.tolist(), d2_min.tolist()))


def cmd_saturation(args, out):
    p_sat, *curve = saturation_sweep(args.b, args.p_max, args.saturation_tol)
    rows = [(args.b, p, r, d2, p_sat) for p, r, d2 in _curve(*curve)]
    write_rows(
        ["b", "p", "r_at_min", "d2_min", "p_sat"], rows, out, args.format, "saturation"
    )


def cmd_holevo(args, out):
    """`holevo --b-grid G` and `figures fig2 [--b-grid G]`; a radius whose
    quadrature fails is skipped and reported after the rows of the others."""
    grid = args.b_grid if args.b_grid is not None else parse_grid("0.5:4:0.5")
    rows, failures = [], []
    for b in grid:
        try:
            chi, quad_error, weights = lambda_spectrum(b)
        except QuadratureConvergenceError as exc:
            failures.append(f"b={b}: {exc}")
            continue
        rows.append((b, chi, quad_error, len(weights)))
    command = "holevo" if args.command == "holevo" else "fig2"
    write_rows(["b", "chi_bits", "quad_error", "dim"], rows, out, args.format, command)
    if failures:
        raise QuadratureConvergenceError("; ".join(failures))


def cmd_figures(args, out):
    if args.which == "fig1a":
        _, *curve = saturation_sweep(args.b, args.p_max)
        write_rows(["p", "r_min", "d2_min"], _curve(*curve), out, args.format, "fig1a")
    elif args.which == "fig1b":
        grid = args.b_grid if args.b_grid is not None else parse_grid("0.5:7:0.5")
        rows = list(zip(grid, find_rmin(grid)[0].tolist()))
        write_rows(["b", "r_min"], rows, out, args.format, "fig1b")
    else:  # fig2
        cmd_holevo(args, out)


# ---------------------------------------------------------------------------
# verification suites


def _check(out, results, name, ok, detail=""):
    results.append(ok)
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if (detail and not ok) else ""
    out.write(f"{status} {name}{suffix}\n")


def verify_identities(out, results):
    # e^(y^2 + z^2) = I_0(2yz) + S(y, z) + S(z, y), S = cross_bessel_sum (no code
    # shared with bessel_i's rule); y = z = sqrt(x/2) gives e^x = I_0 + 2 sum_k I_k.
    # One call gives S(y, z) over the grid of z; S(z, y) is its transpose.
    xs, grid = (0.5, 1.0, 2.0, 4.0, 8.0), (0.6, 1.2, 1.8, 2.4, 3.0)
    half = np.sqrt(0.5 * np.array(xs))
    table = np.array([cross_bessel_sum(y, np.array(grid)) for y in grid])
    s = np.append([2.0 * cross_bessel_sum(h, h) for h in half], table + table.T)
    ys, zs = np.meshgrid(grid, grid, indexing="ij")
    y, z = np.append(half, ys), np.append(half, zs)
    devs = np.abs(np.exp(-(y * y + z * z)) * (bessel_i(0, 2.0 * y * z) + s) - 1.0)
    names = [f"bessel-identity x={x}" for x in xs]
    names += [f"bessel-identity-2 y={y} z={z}" for y in grid for z in grid]
    for name, dev in zip(names, devs):
        _check(out, results, name, dev < 1e-12, f"deviation {dev:.3e}")


def _agree(out, results, name, analytic, matrix, tol=None):
    ok = abs(analytic - matrix) < tol if tol else not oracle_misses(analytic, matrix)
    _check(out, results, name, ok, f"analytic {analytic} vs matrix {matrix}")


def verify_oracles(out, results, quick=False):
    bs = (1.0, 2.0) if quick else (0.5, 1.0, 2.0)
    ns = (1, 3) if quick else (1, 2, 3, 4, 5, 6)
    for b in bs:
        dim, unit = _oracle_disk(b)
        _agree(out, results, f"trace-unit-sq b={b}", trace_unit_sq(b),
               float(np.vdot(unit, unit)), 1e-9)
        for n in ns:
            mix = phi_n(b, n, dim)  # real symmetric, as unit: Tr(AB) = vdot(A, B)
            d2, tr_cross, tr_phi2 = hs2_exact(b, n)
            _agree(out, results, f"trace-cross b={b} N={n}", tr_cross,
                   float(np.vdot(unit, mix)), 1e-9)
            _agree(out, results, f"trace-phi-sq b={b} N={n}", tr_phi2,
                   float(np.vdot(mix, mix)), 1e-9)
            _agree(out, results, f"hs2-exact b={b} N={n}", d2,
                   hs_distance_numeric(unit, mix) ** 2)
    b, p, r = 2.0, 4, 1.0
    _agree(out, results, f"hs2-simplified b={b} p={p} r={r}", hs2_simplified(b, p, r),
           numeric_simplified_d2(b, p, r))


def verify_limits(out, results):
    b = 1.0
    dim, unit = _oracle_disk(b)
    unit_diag = np.diag(unit)
    n_keep = min(21, dim)
    out.write("# convergence of the N-circle mixture diagonal to the disk state\n")
    out.write("# N, max |Phi_N(n,n) - unit(n,n)| over n <= 20\n")
    devs = []
    for n_circ in (5, 10, 20, 40, 80):
        mix_diag = np.diag(phi_n(b, n_circ, dim))
        devs.append(float(np.abs(mix_diag[:n_keep] - unit_diag[:n_keep]).max()))
        out.write(f"# {n_circ}, {devs[-1]!r}\n")
    _check(out, results, "diagonal-limit monotone", all(a >= c for a, c in zip(devs, devs[1:])))
    _check(out, results, "diagonal-limit N=80 below 5e-3", devs[-1] < 5e-3,
           f"deviation {devs[-1]:.3e}")
    first = (1.0 - math.exp(-b * b)) / (b * b)
    _check(out, results, "disk-state first diagonal closed form",
           abs(unit_diag[0] - first) < 1e-13)
    _check(out, results, "purity b->0 limit",
           abs(trace_unit_sq(1e-3) - 1.0) < 1e-5)


def verify_diagonality(out, results, samples, seed):
    max_abs, stderr = off_diagonal_check(0.5, samples, seed=seed)
    _check(out, results, f"lambda-diagonality b=0.5 samples={samples}",
           max_abs < 5.0 * stderr, f"max off-diagonal {max_abs:.3e}, stderr {stderr:.3e}")


def cmd_verify(args, out):
    if args.mc_samples < MC_SAMPLES_MIN or args.seed < 0:  # before any check line
        raise ValueError(f"need --mc-samples >= {MC_SAMPLES_MIN} and --seed >= 0, "
                         f"got {args.mc_samples} and {args.seed}")
    if args.format != "csv":  # check lines are neither CSV rows nor report JSON
        raise ValueError(f"verify writes check lines, not --format {args.format}")
    results = []
    if args.suite in ("identities", "all"):
        verify_identities(out, results)
    if args.suite in ("oracles", "all"):
        verify_oracles(out, results, quick=args.quick)
    if args.suite in ("limits", "all"):
        verify_limits(out, results)
    if args.suite == "all":
        samples = 20_000 if args.quick else args.mc_samples
        verify_diagonality(out, results, samples, args.seed)
    passed = sum(results)
    out.write(f"# {passed}/{len(results)} checks passed\n")
    if passed < len(results):
        raise VerificationError(f"{len(results) - passed} of {len(results)} checks failed")


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Argument errors print one stderr line, not the usage block."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


# Each subcommand's help, command function, and arguments as (name, add_argument keywords).
COMMANDS = {
    "distance": ("exact/approximate squared HS distance", cmd_distance, [
        ("--b", dict(type=_arg(parse_grid), required=True)),
        ("--N", dict(type=_arg(parse_counts), required=True)),
        ("--with-oracle", dict(action="store_true"))]),
    "keybits": ("key-length estimate from a distance", cmd_keybits, [
        ("--d-hs", dict(type=float, required=True)),
        ("--N", dict(type=int, default=None))]),
    "simplified": ("simplified-protocol distance", cmd_simplified, [
        ("--b", dict(type=float, required=True)),
        ("--p", dict(type=int, required=True)),
        ("--r", dict(type=float, required=True)),
        ("--with-oracle", dict(action="store_true"))]),
    "rmin": ("optimal displacement radius", cmd_rmin, [
        ("--b", dict(type=_arg(parse_grid), required=True))]),
    "saturation": ("phase-shift saturation sweep", cmd_saturation, [
        ("--b", dict(type=float, required=True)),
        ("--p-max", dict(type=int, default=20)),
        ("--saturation-tol", dict(type=float, default=1e-4))]),
    "holevo": ("Holevo bound over a b grid", cmd_holevo, [
        ("--b-grid", dict(type=_arg(parse_grid), required=True))]),
    "figures": ("figure-data reproduction", cmd_figures, [
        ("which", dict(choices=("fig1a", "fig1b", "fig2"))),
        ("--b", dict(type=float, default=2.0)),
        ("--p-max", dict(type=int, default=20)),
        ("--b-grid", dict(type=_arg(parse_grid), default=None))]),
    "verify": ("invariant and oracle suites", cmd_verify, [
        ("suite", dict(choices=("identities", "oracles", "limits", "all"))),
        ("--quick", dict(action="store_true")),
        ("--seed", dict(type=int, default=0)),
        ("--mc-samples", dict(type=int, default=100_000))]),
}


class _Subcommand:
    """One subcommand of COMMANDS, built into a _Parser only when a run names it:
    each run builds the top level and one subcommand, not all eight."""

    def __init__(self, prog, command):
        self.prog, self.command = prog, command

    def parse_known_args(self, args=None, namespace=None):
        _, func, arguments = COMMANDS[self.command]
        parser = _Parser(prog=self.prog)
        for name, kwargs in arguments:
            parser.add_argument(name, **kwargs)
        parser.set_defaults(func=func)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvpqc",
        description="Continuous-variable private-channel numerics: "
        "distances, optimal radii, Holevo bounds.",
    )
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--json-log", default=None, metavar="PATH",
                        help="write per-run provenance JSON to PATH")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for command, (help_text, _, _) in COMMANDS.items():
        sub.add_parser(command, help=help_text, command=command)
    return parser


@contextlib.contextmanager
def _output(flag, path):
    """path opened for writing, or a stream; an OSError on it becomes a ValueError."""
    try:
        with open(path, "w") if isinstance(path, str) else contextlib.nullcontext(path) as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot write {flag}: {exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    code, reason = EXIT_OK, "ok"
    try:
        with contextlib.ExitStack() as files:  # both outputs open before any work
            log = args.json_log and files.enter_context(_output("--json-log", args.json_log))
            try:
                with _output("--out", sys.stdout if args.out == "-" else args.out) as out:
                    args.func(args, out)
            except VerificationError as exc:
                code, reason = EXIT_VERIFY_FAIL, f"verification failed: {exc}"
            except ValueError as exc:  # ArgumentRangeError included
                code, reason = EXIT_BAD_INPUT, f"invalid input: {exc}"
            except (ConsistencyError, QuadratureConvergenceError) as exc:
                code, reason = EXIT_INCONSISTENT, f"internal consistency failure: {exc}"
            if code:
                print(reason, file=sys.stderr)
            if log:
                write_json_log(log, args, code, reason)
    except ValueError as exc:  # --json-log could not be opened, written or closed
        print(f"invalid input: {exc}", file=sys.stderr)
        return code or EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
