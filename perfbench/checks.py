"""Checks of `cvpqc` CLI output against computations made apart from `cvpqc`.

Every reference value here comes from numpy and scipy alone; nothing is
imported from `cvpqc`, and nothing is compared with a stored copy of an
earlier output.  `check_op` reads one CLI call (its argv, exit code and
CSV text) and returns a `Verdict`:

- `faults` break the output contract (non-zero exit, a cell that does not
  parse as a number); any fault makes the operation count as failed;
- `errors` are values that disagree with a reference; they make the run
  incorrect.  The value checks still run on an operation that failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gammainc, gammaln, ive, xlogy

# Budgets from the ROADMAP: D^2 against the dense route, traces against it.
D2_TOL = 1e-8
TRACE_TOL = 1e-9
# Per-p minima of the saturation sweep against the dense route.
SAT_TOL = 1e-9
# chi(b) against the 1-D lens-density quadrature (agreement seen: ~1e-14).
CHI_TOL = 1e-9
# Refinement budget that the program states for its own quadrature.
QUAD_ERROR_MAX = 1e-6
# d2_min(p+1) <= d2_min(p) up to roundoff: beyond p ~ 2 r^2 the two
# minima differ by less than one ulp, so their order is rounding noise.
MONOTONE_SLACK = 1e-14
# r_min must bracket a sign change of the stationarity expression.
ROOT_HALF_WIDTH = 1e-8
# N^2 D^2 -> C(b): the relative gap over N >= CLOSURE_N_MIN must shrink by
# this factor per step and end below CLOSURE_GAP.
CLOSURE_N_MIN = 40
CLOSURE_RATIO = 0.6
CLOSURE_GAP = 0.01
# Dense truncations keep Poisson tails below this mass.
DENSE_TAIL = 1e-16
# The sweep searches r on its grid b/2000 .. b; the oracle uses the same
# interval, since at p = 1 the minimum sits on its lower edge.
SWEEP_GRID_POINTS = 2000

TEXT_COLUMNS = {"method"}
FIG1B_GRID = "0.5:7:0.5"
FIG2_GRID = "0.5:4:0.5"


@dataclass
class Verdict:
    faults: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def parse_grid(text: str) -> list[float]:
    """'start:stop:step' (stop included) or a comma list."""
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        count = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(count)]
    return [float(v) for v in text.split(",")]


def option(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def parse_csv(text: str, verdict: Verdict) -> list[dict]:
    """Rows as dicts of floats; unparsable cells become None and a fault."""
    lines = text.strip().splitlines()
    if not lines:
        verdict.faults.append("empty output")
        return []
    header = lines[0].split(",")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            verdict.faults.append(f"row {i}: {len(cells)} cells, {len(header)} columns")
        row = {}
        for col, cell in zip(header, cells):
            if col in TEXT_COLUMNS:
                row[col] = cell
                continue
            try:
                row[col] = float(cell)
            except ValueError:
                row[col] = None
                verdict.faults.append(f"row {i}: {col} cell {cell!r} is not a number")
        rows.append(row)
    return rows


def _close(verdict, what, got, want, tol):
    if got is None or not abs(got - want) <= tol:
        verdict.errors.append(f"{what}: got {got!r}, reference {want!r} (tol {tol:g})")


def _column(verdict, rows, col, want, what):
    got = [row.get(col) for row in rows]
    if len(got) != len(want) or any(
        g is None or not math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12)
        for g, w in zip(got, want)
    ):
        verdict.errors.append(f"{what}: {col} column {got} != requested {want}")
        return False
    return True


# ---------------------------------------------------------------------------
# reference computations (numpy + scipy only)


def dense_dim(lam: float) -> int:
    """Smallest dimension whose Poisson(lam) tail P(X >= dim) is negligible."""
    d = max(1, int(lam))
    while gammainc(d, lam) >= DENSE_TAIL:
        d += 1
    return d


def disk_diagonal(b: float, dim: int) -> np.ndarray:
    """Disk-mixed state diagonal P(X > n) / b^2 for X ~ Poisson(b^2)."""
    n = np.arange(dim)
    return gammainc(n + 1, b * b) / (b * b)


def coherent_moduli(r: float, dim: int) -> np.ndarray:
    """|<n|alpha>| = e^(-r^2/2) r^n / sqrt(n!) for |alpha| = r."""
    n = np.arange(dim)
    return np.exp(-0.5 * r * r + xlogy(n, r) - 0.5 * gammaln(n + 1))


def distance_reference(b: float, n_circles: int) -> dict:
    """Traces and D^2 of the disk state against the N-circle mixture, from
    dense stripe matrices: circle p holds p states at radius p b / N, its
    mixture keeps e^(-r^2) r^(m+n)/sqrt(m! n!) where p divides m - n."""
    dim = dense_dim(b * b)
    idx = np.arange(dim)
    diff = idx[:, None] - idx[None, :]
    phi = np.zeros((dim, dim))
    for p in range(1, n_circles + 1):
        c = coherent_moduli(p * b / n_circles, dim)
        phi += p * np.where(diff % p == 0, np.outer(c, c), 0.0)
    phi /= n_circles * (n_circles + 1) / 2
    unit = np.diag(disk_diagonal(b, dim))
    return {
        "d2": float(np.sum((unit - phi) ** 2)),
        "tr_cross": float(np.sum(np.diag(unit) * np.diag(phi))),
        "tr_phi2": float(np.sum(phi * phi)),
    }


def purity_closed_form(b: float) -> float:
    """Tr(unit^2) = (1 - e^(-x) [I_0(x) + I_1(x)]) / b^2 with x = 2 b^2."""
    x = 2.0 * b * b
    return float((1.0 - ive(0, x) - ive(1, x)) / (b * b))


def circle_disk_constant(b: float) -> float:
    """C(b) = e^(-2b^2) [I_0(2b^2) - I_1(2b^2) / b^2], the limit of N^2 D^2."""
    x = 2.0 * b * b
    return float(ive(0, x) - ive(1, x) / (b * b))


def stationarity_scaled(b: float, r: float) -> float:
    """e^(-2r^2) [r I_0(2r^2) - r I_1(2r^2) - e^(r^2-b^2) I_1(2rb) / b]."""
    x = 2.0 * r * r
    return float(r * (ive(0, x) - ive(1, x)) - ive(1, 2.0 * r * b) * math.exp(-((r - b) ** 2)) / b)


def simplified_d2_dense(b: float, p: int, r: float, unit_diag: np.ndarray) -> float:
    """||unit - (1/p) sum_q |r e^(2 pi i q/p)><...|||_F^2 on the dense route."""
    dim = len(unit_diag)
    n = np.arange(dim)
    theta = 2.0 * math.pi * np.arange(p) / p
    amps = coherent_moduli(r, dim)[None, :] * np.exp(1j * np.outer(theta, n))
    avg = amps.T @ amps.conj() / p
    avg[n, n] -= unit_diag
    return float(np.sum(np.abs(avg) ** 2))


def saturation_reference(b: float, p_max: int) -> list[tuple[float, float]]:
    """(r_at_min, d2_min) per p = 1..p_max: a coarse scan of the dense
    distance over [b/2000, b], then scipy's bounded minimizer around the
    best scan point."""
    unit_diag = disk_diagonal(b, dense_dim(b * b))
    r_lo = b / SWEEP_GRID_POINTS
    scan = np.linspace(r_lo, b, 65)
    curve = []
    for p in range(1, p_max + 1):
        vals = [simplified_d2_dense(b, p, r, unit_diag) for r in scan]
        i = int(np.argmin(vals))
        lo, hi = scan[max(i - 1, 0)], scan[min(i + 1, len(scan) - 1)]
        res = minimize_scalar(
            lambda r: simplified_d2_dense(b, p, r, unit_diag),
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-10},
        )
        best = min((res.fun, res.x), (vals[i], scan[i]))
        curve.append((float(best[1]), float(best[0])))
    return curve


def holevo_reference(b: float, dim: int) -> float:
    """chi(b) in bits from the 1-D lens density of s = |alpha + beta|.

    With alpha, beta uniform on the disk of radius b, s has density
    2 pi s A(s) / (pi b^2)^2, A(s) = 2b^2 arccos(s/2b) - (s/2) sqrt(4b^2 - s^2).
    The total state has weights lambda_n = int density(s) Poisson(n; s^2) ds,
    normalized over n < dim; the disk state has P(X > n) / b^2.  The
    substitution s = 2b cos(t) makes the integrand smooth on [0, pi/2].
    """

    def integrand(t, n):
        s = 2.0 * b * math.cos(t)
        area = b * b * (2.0 * t - math.sin(2.0 * t))
        density = 2.0 * s * area / (math.pi * b**4)
        pmf = math.exp(xlogy(n, s * s) - s * s - gammaln(n + 1))
        return density * pmf * 2.0 * b * math.sin(t)

    lam = np.array([
        quad(integrand, 0.0, 0.5 * math.pi, args=(n,), epsabs=1e-17, epsrel=1e-12, limit=200)[0]
        for n in range(dim)
    ])
    lam /= lam.sum()
    disk = disk_diagonal(b, dim)
    return float(_entropy_bits(lam) - _entropy_bits(disk))


def _entropy_bits(w: np.ndarray) -> float:
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


# ---------------------------------------------------------------------------
# per-command checkers


def check_holevo(argv, rows, verdict):
    """`holevo --b-grid G` and `figures fig2 [--b-grid G]`."""
    grid = parse_grid(option(argv, "--b-grid", FIG2_GRID))
    _column(verdict, rows, "b", grid, "chi(b) grid")
    for row in rows:
        b, chi, dim = row.get("b"), row.get("chi_bits"), row.get("dim")
        if b is None or dim is None or dim != int(dim) or dim < 1:
            verdict.errors.append(f"chi row {row}: b or dim unreadable")
            continue
        _close(verdict, f"chi_bits at b={b}", chi, holevo_reference(b, int(dim)), CHI_TOL)
        qe = row.get("quad_error")
        if qe is not None and not 0.0 <= qe <= QUAD_ERROR_MAX:
            verdict.errors.append(f"quad_error {qe} at b={b} outside [0, {QUAD_ERROR_MAX}]")


def check_sweep(argv, rows, verdict, r_col, sat_col):
    """`figures fig1a` (no p_sat column) and `saturation`."""
    b = float(option(argv, "--b", "2.0"))
    p_max = int(option(argv, "--p-max", "20"))
    if not _column(verdict, rows, "p", list(range(1, p_max + 1)), f"sweep b={b}"):
        return
    ref = saturation_reference(b, p_max)
    unit_diag = disk_diagonal(b, dense_dim(b * b))
    d2s = [row.get("d2_min") for row in rows]
    for p, row, (_, d2_ref) in zip(range(1, p_max + 1), rows, ref):
        d2, r = row.get("d2_min"), row.get(r_col)
        _close(verdict, f"d2_min b={b} p={p}", d2, d2_ref, SAT_TOL)
        if r is None or not 0.0 < r <= b:
            verdict.errors.append(f"{r_col} b={b} p={p}: {r!r} outside (0, b]")
        elif d2 is not None:
            _close(verdict, f"d2 at reported r b={b} p={p}", d2,
                   simplified_d2_dense(b, p, r, unit_diag), SAT_TOL)
    if None not in d2s and any(d2 > d1 + MONOTONE_SLACK for d1, d2 in zip(d2s, d2s[1:])):
        verdict.errors.append(f"sweep b={b}: d2_min not monotone in p")
    if sat_col is None:
        return
    sat_tol = float(option(argv, "--saturation-tol", "1e-4"))
    last = ref[-1][1]
    p_sat = next(p for p, (_, d2) in enumerate(ref, start=1) if d2 - last < sat_tol)
    for row in rows:
        if row.get(sat_col) != p_sat:
            verdict.errors.append(f"p_sat b={b}: got {row.get(sat_col)!r}, reference {p_sat}")
            break


def check_rmin(argv, rows, verdict, grid):
    """`rmin --b G` and `figures fig1b [--b-grid G]`: each r_min is a root of
    the stationarity expression, and the residual is dD^2/dr there."""
    _column(verdict, rows, "b", grid, "r_min grid")
    for row in rows:
        b, r = row.get("b"), row.get("r_min")
        if b is None or r is None or not 0.0 < r - ROOT_HALF_WIDTH < r + ROOT_HALF_WIDTH <= b:
            verdict.errors.append(f"r_min row {row}: not inside (0, b)")
            continue
        lo = stationarity_scaled(b, r - ROOT_HALF_WIDTH)
        hi = stationarity_scaled(b, r + ROOT_HALF_WIDTH)
        if lo * hi > 0.0:
            verdict.errors.append(
                f"r_min {r} at b={b}: no sign change of the stationarity "
                f"expression within +-{ROOT_HALF_WIDTH:g} ({lo:.3e}, {hi:.3e})"
            )
        if "residual" in row:
            _close(verdict, f"residual at b={b}", row["residual"],
                   -4.0 * stationarity_scaled(b, r), 1e-12)
        if "method" in row and row["method"] not in ("root_find", "grid_min"):
            verdict.errors.append(f"unknown method {row['method']!r} at b={b}")


def check_distance(argv, rows, verdict):
    """`distance --b B --N N [--with-oracle]`: the dense stripe route, the
    closed-form purity, the guess 1/(N+1)^2 and N^2 D^2 -> C(b)."""
    bs = parse_grid(option(argv, "--b"))
    ns = [int(n) for n in parse_grid(option(argv, "--N"))]
    if not (_column(verdict, rows, "b", [b for b in bs for _ in ns], "distance")
            and _column(verdict, rows, "N", ns * len(bs), "distance")):
        return
    d2_by_b = {}
    for row in rows:
        b, n = row["b"], int(row["N"])
        ref = distance_reference(b, n)
        where = f"b={b} N={n}"
        _close(verdict, f"d2_exact {where}", row.get("d2_exact"), ref["d2"], D2_TOL)
        _close(verdict, f"tr_cross {where}", row.get("tr_cross"), ref["tr_cross"], TRACE_TOL)
        _close(verdict, f"tr_phi2 {where}", row.get("tr_phi2"), ref["tr_phi2"], TRACE_TOL)
        tu = purity_closed_form(b)
        _close(verdict, f"tr_unit2 {where}", row.get("tr_unit2"), tu, 1e-12 * tu)
        guess = 1.0 / (n + 1) ** 2
        _close(verdict, f"d2_guess {where}", row.get("d2_guess"), guess, 1e-12 * guess)
        if "--with-oracle" in argv:
            _close(verdict, f"d2_numeric {where}", row.get("d2_numeric"), ref["d2"], D2_TOL)
        d2_by_b.setdefault(b, []).append((n, row.get("d2_exact")))
    for b, pairs in d2_by_b.items():
        c = circle_disk_constant(b)
        gaps = [abs(n * n * d2 / c - 1.0) for n, d2 in sorted(pairs)
                if n >= CLOSURE_N_MIN and d2 is not None]
        if len(gaps) < 2:
            continue
        shrinking = all(g2 <= CLOSURE_RATIO * g1 for g1, g2 in zip(gaps, gaps[1:]))
        if not (shrinking and gaps[-1] < CLOSURE_GAP):
            verdict.errors.append(f"N^2 D^2 does not close on C({b}) = {c:.6f}: gaps {gaps}")


def check_verify(text, verdict):
    lines = text.strip().splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    if fails:
        verdict.errors.append(f"verify: {len(fails)} checks failed, first {fails[0]!r}")
    summary = lines[-1].split() if lines else []
    if len(summary) < 2 or summary[0] != "#" or "/" not in summary[1]:
        verdict.errors.append("verify: no summary line")
        return
    passed, total = summary[1].split("/")
    if passed != total or int(total) < 1:
        verdict.errors.append(f"verify: summary {lines[-1]!r}")


def check_op(argv: list[str], code: int, stdout: str) -> Verdict:
    """Verdict on one `cvpqc` call with the default CSV output."""
    verdict = Verdict()
    if code != 0:
        verdict.faults.append(f"exit code {code}")
    command = argv[0]
    if command == "verify":
        check_verify(stdout, verdict)
        return verdict
    rows = parse_csv(stdout, verdict)
    which = argv[1] if command == "figures" else command
    if which in ("holevo", "fig2"):
        check_holevo(argv, rows, verdict)
    elif which == "fig1a":
        check_sweep(argv, rows, verdict, "r_min", None)
    elif which == "saturation":
        check_sweep(argv, rows, verdict, "r_at_min", "p_sat")
    elif which == "fig1b":
        check_rmin(argv, rows, verdict, parse_grid(option(argv, "--b-grid", FIG1B_GRID)))
    elif which == "rmin":
        check_rmin(argv, rows, verdict, parse_grid(option(argv, "--b")))
    elif which == "distance":
        check_distance(argv, rows, verdict)
    else:
        verdict.errors.append(f"no checker for {argv}")
    return verdict
