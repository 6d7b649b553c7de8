"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N ...: PASS|FAIL`` line before
asserting, so the full scorecard survives in the captured output even
when a criterion fails.  Tolerances are the release thresholds and must
not be loosened here.

Criteria 4 and 7 compare against derived values rather than fixed
thresholds: criterion 4 against the limit C(b) of N^2 D^2 from scipy
Bessel functions, criterion 7 against the per-p minima and the p_sat of
the dense projector oracle.
"""

import math

import numpy as np
import pytest

from cvpqc import (
    CutoffPolicy,
    bessel_i,
    find_rmin,
    hs2_exact,
    hs2_guess,
    hs2_simplified,
    hs_distance_numeric,
    lambda_spectrum,
    maximally_mixed,
    off_diagonal_check,
    phi_n,
    saturation_sweep,
    trace_cross,
    trace_phi_sq,
    trace_unit_sq,
)
from cvpqc import cli
from cvpqc.distances import cross_bessel_sum
from cvpqc.optimizer import BRACKET, d2_derivative
from conftest import (
    P_LIMIT,
    circle_disk_constant,
    dense_saturation_curve,
    displacement_conjugate,
    tensor_holevo_chi,
)

TAIL = 1e-12
GRID_B = (0.5, 1.0, 2.0)
GRID_N = (1, 2, 3, 4, 5, 6)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def oracle_states(b, n):
    cutoff = CutoffPolicy(max_radius=b, tail_budget=TAIL)
    return maximally_mixed(b, cutoff), phi_n(b, n, cutoff)


def test_criterion_01_analytic_distance_matches_matrix_oracle():
    worst = 0.0
    for b in GRID_B:
        for n in GRID_N:
            unit, mix = oracle_states(b, n)
            d2_num = hs_distance_numeric(unit, mix) ** 2
            worst = max(worst, abs(hs2_exact(b, n).d2_exact - d2_num))
    report(1, "analytic vs matrix distance", worst < 1e-8, f"worst {worst:.3e}")


def test_criterion_02_trace_terms_match_matrix_oracle():
    worst = 0.0
    for b in GRID_B:
        for n in GRID_N:
            unit, mix = oracle_states(b, n)
            worst = max(
                worst,
                abs(trace_unit_sq(b) - float(np.trace(unit @ unit))),
                abs(trace_cross(b, n) - float(np.trace(unit @ mix))),
                abs(trace_phi_sq(b, n) - float(np.trace(mix @ mix))),
            )
    report(2, "term-level trace oracles", worst < 1e-9, f"worst {worst:.3e}")


def test_criterion_03_unitary_invariance_of_distance():
    b, n = 2.0, 4
    d2_exact = hs2_exact(b, n).d2_exact
    worst = 0.0
    for beta in (0.3 + 0j, 0.7 * np.exp(1j * math.pi / 4)):
        cutoff = CutoffPolicy(max_radius=b + abs(beta), tail_budget=TAIL)
        displaced_unit = displacement_conjugate(maximally_mixed(b, cutoff), beta)
        # the encryption channel's output D(beta) Phi_N D^dag(beta)
        output = displacement_conjugate(phi_n(b, n, cutoff), beta)
        d2 = hs_distance_numeric(displaced_unit, output) ** 2
        worst = max(worst, abs(d2 - d2_exact))
    report(3, "unitary invariance", worst < 1e-6, f"worst {worst:.3e}")


def test_criterion_04_guess_asymptotics():
    # N^2 D^2 -> C(b) = ||rho_circle(b) - unit_b||^2, so the ratio to the
    # b-independent estimate 1/(N+1)^2 converges to C(b), not to 1; each
    # doubling of N roughly halves the O(1/N) gap.
    ok = True
    details = []
    for b in (1.0, 2.0):
        limit = circle_disk_constant(b)
        ratios = [hs2_exact(b, n).d2_exact / hs2_guess(n) for n in (20, 40, 80)]
        gaps = [abs(r - limit) for r in ratios]
        halving = all(g2 <= 0.6 * g1 for g1, g2 in zip(gaps, gaps[1:]))
        ok = ok and halving and gaps[-1] <= 0.03 * limit
        details.append(
            f"b={b:g}: C {limit:.6f}, ratios "
            + ", ".join(f"{r:.4f}" for r in ratios)
        )
    report(4, "guess asymptotics", ok, "; ".join(details))


def test_criterion_05_bessel_identities():
    # generating function at t = y/z: e^(y^2 + z^2) = I_0(2yz) + S(y, z) + S(z, y)
    # with S(y, z) = sum_k (y/z)^k I_k(2yz), the cross series; at y = z = sqrt(x/2)
    # it reads e^x = I_0(x) + 2 sum_k I_k(x)
    grid = (0.6, 1.2, 1.8, 2.4, 3.0)
    pairs = [(math.sqrt(0.5 * x),) * 2 for x in (0.5, 1.0, 2.0, 4.0, 8.0)]
    pairs += [(y, z) for y in grid for z in grid]
    worst = 0.0
    for y, z in pairs:
        series = bessel_i(0, 2.0 * y * z) + cross_bessel_sum(y, z) + cross_bessel_sum(z, y)
        worst = max(worst, abs(math.exp(-(y * y + z * z)) * series - 1.0))
    report(5, "Bessel identities", len(pairs) == 30 and worst < 1e-12, f"worst {worst:.3e}")


def test_criterion_06_diagonal_limit():
    b = 1.0
    cutoff = CutoffPolicy(max_radius=b, tail_budget=TAIL)
    unit_diag = np.diag(maximally_mixed(b, cutoff))[:21]
    devs = []
    for n in (5, 10, 20, 40, 80):
        mix_diag = np.diag(phi_n(b, n, cutoff))[:21]
        devs.append(float(np.abs(mix_diag - unit_diag).max()))
    monotone = all(d2 <= d1 for d1, d2 in zip(devs, devs[1:]))
    report(
        6,
        "diagonal convergence to disk state",
        monotone and devs[-1] < 5e-3,
        f"final {devs[-1]:.3e}",
    )


def test_criterion_07_phase_shift_saturation():
    b, p_max, sat_tol = 2.0, 20, 1e-4
    p_sat_sweep, _, d2_min = saturation_sweep(b, p_max, saturation_tol=sat_tol)
    d2s = d2_min.tolist()
    monotone = all(d2_next <= d2 for d2, d2_next in zip(d2s, d2s[1:]))
    # the sweep's search starts at BRACKET[0] * b; the oracle searches the
    # same interval so that the p = 1 edge minimum is comparable
    oracle = [d2 for _, _, d2 in dense_saturation_curve(b, p_max, BRACKET[0] * b)]
    worst = max(abs(d2 - ref) for d2, ref in zip(d2s, oracle))
    gaps = [ref - oracle[-1] for ref in oracle]
    p_sat = next(p for p, gap in enumerate(gaps, start=1) if gap < sat_tol)
    falling = all(g2 <= g1 for g1, g2 in zip(gaps[p_sat - 1 :], gaps[p_sat:]))
    report(
        7,
        "phase-shift saturation",
        monotone and worst < 1e-9 and p_sat_sweep == p_sat and falling,
        f"p_sat {p_sat_sweep} (oracle {p_sat}), worst {worst:.3e}, "
        f"gap at p_sat-1 {gaps[p_sat - 2]:.4e}, at p_sat {gaps[p_sat - 1]:.3e}",
    )


def test_criterion_08_rmin_consistency():
    worst_gap, worst_res = 0.0, 0.0
    ok_interior = True
    for b in (0.5, 1.0, 2.0, 4.0, 6.0):
        r_min, residual = find_rmin(b)
        r_sweep = saturation_sweep(b, P_LIMIT)[1][-1]
        worst_gap = max(worst_gap, abs(r_min - r_sweep))
        worst_res = max(worst_res, abs(residual))
        ok_interior = ok_interior and 0.0 < r_min < b
    report(
        8,
        "optimal radius consistency",
        worst_gap < 1e-12 and worst_res < 1e-10 and ok_interior,
        f"gap {worst_gap:.3e}, residual {worst_res:.3e}",
    )


def test_criterion_09_stationarity_derivative():
    b, r, h = 2.0, 1.0, 1e-5
    fd = (hs2_simplified(b, P_LIMIT, r + h) - hs2_simplified(b, P_LIMIT, r - h)) / (
        2.0 * h
    )
    diff = abs(d2_derivative(b, r) - fd)
    report(9, "stationarity vs finite differences", diff < 1e-5, f"diff {diff:.3e}")


def test_criterion_10_lambda_diagonality():
    est = off_diagonal_check(0.5, 100_000, seed=0)
    report(
        10,
        "off-diagonal Monte Carlo",
        est.max_abs < 5.0 * est.stderr,
        f"max {est.max_abs:.3e}, stderr {est.stderr:.3e}",
    )


def test_criterion_11_holevo_curve():
    chis = [lambda_spectrum(b).chi_bits for b in (0.5, 1.0, 2.0, 4.0)]
    increasing = all(c2 > c1 for c1, c2 in zip(chis, chis[1:]))
    small_b = lambda_spectrum(1e-3).chi_bits
    oracle = tensor_holevo_chi(2.0, lambda_spectrum(2.0).dim)
    stable = abs(oracle - chis[2]) < 1e-9
    report(
        11,
        "Holevo curve trend",
        all(c >= 0.0 for c in chis) and increasing and small_b < 0.05 and stable,
        "chi " + ", ".join(f"{c:.4f}" for c in chis)
        + f", chi(2) vs tensor oracle {abs(oracle - chis[2]):.1e}",
    )


def test_criterion_12_verify_determinism(tmp_path, capsys):
    outputs = []
    for name in ("first.txt", "second.txt"):
        path = tmp_path / name
        code = cli.main(["--out", str(path), "verify", "all"])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        outputs.append(path.read_bytes())
    report(12, "verify-all determinism", outputs[0] == outputs[1])
