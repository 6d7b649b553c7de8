import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special

from cvpqc import (
    CutoffPolicy,
    circle_mixture,
    exact_key_bits,
    hs2_exact,
    hs2_simplified,
    hs_distance_numeric,
    key_bits,
    maximally_mixed,
    phi_n,
    trace_cross,
    trace_phi_sq,
    trace_unit_sq,
)
from cvpqc import cli
from cvpqc.distances import B_SIMPLIFIED_MIN, N_MAX, cross_bessel_sum
from cvpqc.ensembles import B_MIN
from cvpqc.fockspace import disk_cutoff
from cvpqc.specialfns import ArgumentRangeError
from conftest import (
    bessel_trace_cross,
    bessel_trace_phi_sq,
    circle_disk_constant,
    longdouble_hs2,
    masked_stripe_hs2,
    mp_cross_bessel_sum,
    mp_hs2_dense,
    mp_simplified_d2,
    series_bessel_sum,
    series_cross_bessel_sum,
)

TAIL = 1e-12

# The (y, z) grid of `verify identities` and acceptance criterion 5.
IDENTITY_GRID = (0.6, 1.2, 1.8, 2.4, 3.0)


def matrix_traces(b, n):
    cutoff = CutoffPolicy(max_radius=b, tail_budget=TAIL)
    unit = maximally_mixed(b, cutoff)
    mix = phi_n(b, n, cutoff)
    return (
        float(np.trace(unit @ unit)),
        float(np.trace(unit @ mix)),
        float(np.trace(mix @ mix)),
    )


class TestCrossBesselSum:
    @pytest.mark.parametrize("b,r", [(1.5, 1.0), (2.0, 1.8), (0.7, 0.2)])
    def test_matches_literal_form(self, b, r):
        literal = sum(
            (b / r) ** k * scipy.special.iv(k, 2.0 * r * b) for k in range(1, 120)
        )
        assert cross_bessel_sum(b, r) == pytest.approx(literal, rel=1e-12)

    @pytest.mark.parametrize("r", [2e-5, 5e-5, 1e-4])
    def test_matches_literal_form_for_small_disk(self, r):
        # the sum is about b^2 = 1e-8 here, from non-negative terms alone
        b = 1e-4
        literal = sum(
            (b / r) ** k * scipy.special.iv(k, 2.0 * r * b) for k in range(1, 40)
        )
        assert cross_bessel_sum(b, r) == pytest.approx(literal, rel=1e-12)

    def test_stable_for_small_radius(self):
        # the literal (b/r)^k form overflows here; the Fock sum must not
        v = cross_bessel_sum(6.0, 0.01)
        assert math.isfinite(v) and v > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            cross_bessel_sum(1.0, 0.0)

    def test_array_matches_scalar_calls(self):
        b = 2.5
        rs = np.linspace(0.01, b, 41)
        vals = cross_bessel_sum(b, rs)
        assert vals.shape == rs.shape
        for r, v in zip(rs, vals):
            assert v == pytest.approx(cross_bessel_sum(b, float(r)), rel=1e-14)
        assert isinstance(cross_bessel_sum(b, 1.0), float)
        with pytest.raises(ValueError):
            cross_bessel_sum(b, np.array([0.5, 0.0]))

    @pytest.mark.parametrize("b", [0.7, 2.5, 6.0])
    def test_default_term_budget_is_not_binding(self, b):
        # the Fock route has no term budget; it matches the regrouped series,
        # cut by a relative test, on the same grid
        rs = np.linspace(0.01, b, 41)
        assert cross_bessel_sum(b, rs) == pytest.approx(series_cross_bessel_sum(b, rs), rel=1e-12)

    @pytest.mark.parametrize(
        "b,r",
        [(1.5, 1.0), (2.0, 1.8), (0.7, 0.2), (1e-4, 2e-5), (1e-4, 5e-5), (1e-4, 1e-4),
         (6.0, 0.01)]
        + [(b, float(r)) for b in (0.7, 2.5, 6.0) for r in np.linspace(0.01, b, 41)]
        + [(y, z) for y in IDENTITY_GRID for z in IDENTITY_GRID]
        + [(h, h) for h in np.sqrt(0.5 * np.array([0.5, 1.0, 2.0, 4.0, 8.0]))],
    )
    def test_matches_high_precision(self, b, r):
        assert cross_bessel_sum(b, r) == pytest.approx(mp_cross_bessel_sum(b, r), rel=1e-14, abs=0.0)


class TestTraceTerms:
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_unit_purity_matches_matrix(self, b):
        assert trace_unit_sq(b) == pytest.approx(matrix_traces(b, 1)[0], abs=1e-9)

    @pytest.mark.parametrize("b,n", [(1.0, 2), (1.0, 3), (2.0, 4)])
    def test_cross_and_mixture_purity_match_matrix(self, b, n):
        _, tc_num, tp_num = matrix_traces(b, n)
        assert trace_cross(b, n) == pytest.approx(tc_num, abs=1e-9)
        assert trace_phi_sq(b, n) == pytest.approx(tp_num, abs=1e-9)
        assert bessel_trace_cross(b, n) == pytest.approx(tc_num, abs=1e-9)
        assert bessel_trace_phi_sq(b, n) == pytest.approx(tp_num, abs=1e-9)

    def test_unit_purity_small_b_limit(self):
        # nearly the vacuum: purity tends to 1
        assert trace_unit_sq(1e-3) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("b", [B_MIN, 1e-10, 1e-8, 1e-6, 1e-3, 0.5, 2.0, 10.0])
    def test_unit_purity_matches_high_precision(self, b):
        # 1 - e^(-x) (I_0 + I_1) cancels to x/2 as b -> 0; 700 digits resolve it
        with mpmath.workdps(700):
            x = 2 * mpmath.mpf(b) ** 2
            bessel = mpmath.besseli(0, x) + mpmath.besseli(1, x)
            ref = float((1 - mpmath.exp(-x) * bessel) / mpmath.mpf(b) ** 2)
        assert trace_unit_sq(b) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            trace_unit_sq(-1.0)
        with pytest.raises(ValueError, match="at least"):
            trace_unit_sq(0.5 * B_MIN)
        with pytest.raises(ArgumentRangeError):
            trace_unit_sq(10.5)
        with pytest.raises(ValueError):
            trace_cross(1.0, 0)
        with pytest.raises(ValueError):
            trace_phi_sq(1.0, 0)


class TestHs2Exact:
    def test_matches_matrix_oracle(self):
        b, n = 1.0, 5
        d2 = hs2_exact(b, n)[0]
        cutoff = CutoffPolicy(max_radius=b, tail_budget=TAIL)
        d2_num = hs_distance_numeric(
            maximally_mixed(b, cutoff), phi_n(b, n, cutoff)
        ) ** 2
        assert d2 == pytest.approx(d2_num, abs=1e-8)

    def test_report_assembles_from_traces(self):
        d2, tr_cross, tr_phi2 = hs2_exact(1.5, 3)
        assert d2 == pytest.approx(
            trace_unit_sq(1.5) - 2.0 * tr_cross + tr_phi2, abs=1e-15
        )

    def test_distance_is_nonnegative_and_decreasing_in_n(self):
        vals = [hs2_exact(2.0, n)[0] for n in (1, 2, 4, 8)]
        assert all(v >= 0.0 for v in vals)
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 60])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 3.5])
    def test_stripe_kernel_matches_bessel_oracle(self, b, n):
        d2, tr_cross, tr_phi2 = hs2_exact(b, n)
        tc, tp = bessel_trace_cross(b, n), bessel_trace_phi_sq(b, n)
        assert abs(tr_cross - tc) < 1e-9
        assert abs(tr_phi2 - tp) < 1e-9
        assert abs(d2 - (trace_unit_sq(b) - 2.0 * tc + tp)) < 1e-8

    def test_matches_extended_precision_dense_reference(self):
        # traces of ~0.18 cancel to D^2 ~ 3e-6 here: a route through
        # Tr(unit^2) - 2 Tr(unit Phi) + Tr(Phi^2) keeps only ~1e-10 relative
        b, n = 2.0, 200
        ref = mp_hs2_dense(b, n, dim=40)
        assert hs2_exact(b, n)[0] == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("b,n", [(4.0, 320), (7.0, 100), (10.0, 40), (2.0, 1000)])
    def test_matches_dense_reference_on_its_fock_block(self, b, n):
        # the reference keeps the same disk_cutoff block, so only arithmetic differs
        ref = mp_hs2_dense(b, n, dim=disk_cutoff(b).dim)
        assert hs2_exact(b, n)[0] == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "per_dim,n",
        [(0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (0, 320), (0, 1000)],
        ids=["1", "dim-2", "dim-1", "dim", "dim+1", "320", "1000"],
    )
    @pytest.mark.parametrize("b", [0.5, 2.0, 4.0, 10.0])
    def test_matches_masked_outer_product_stripes(self, b, per_dim, n):
        # the divisor-pair gather against one masked outer product per circle,
        # on both sides of N = dim - 1, past which more circles add no stripe
        n_circles = per_dim * disk_cutoff(b).dim + n
        d2_exact, tr_cross, tr_phi2 = hs2_exact(b, n_circles)
        d2, tc, tp = masked_stripe_hs2(b, n_circles)
        assert d2_exact == pytest.approx(d2, rel=1e-14, abs=0.0)
        assert tr_cross == pytest.approx(tc, rel=1e-14, abs=0.0)
        assert tr_phi2 == pytest.approx(tp, rel=1e-14, abs=0.0)

    def test_large_n_closes_on_circle_disk_constant(self):
        b, n = 2.0, 10_000
        ratio = n * n * hs2_exact(b, n)[0] / circle_disk_constant(b)
        assert abs(ratio - 1.0) < 1e-3

    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_largest_circle_count_matches_extended_precision(self, b):
        # Phi_nn cancels against u_n, so N_MAX circles need a diagonal summed in
        # blocks: one N_MAX-term product erred by 1.5e-9 at b = 0.5, 7.1e-10 at b = 2
        ref = longdouble_hs2(b, N_MAX)
        assert hs2_exact(b, N_MAX)[0] == pytest.approx(ref, rel=2e-10, abs=0.0)

    def test_largest_circle_count_memory_is_bounded(self):
        # the amplitudes of one block of HS2_BLOCK circles at a time, not all N_MAX
        hs2_exact(10.0, 1)  # the one-time costs of a first call are not counted
        tracemalloc.start()
        try:
            hs2_exact(10.0, N_MAX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("n", [0, -3, N_MAX + 1])
    def test_circle_count_window(self, n):
        with pytest.raises(ValueError, match="N must be in"):
            hs2_exact(2.0, n)


class TestHs2Simplified:
    def test_matches_matrix_oracle(self):
        b, p, r = 2.0, 6, 1.3
        cutoff = CutoffPolicy(max_radius=b, tail_budget=TAIL)
        d2_num = hs_distance_numeric(
            maximally_mixed(b, cutoff), circle_mixture(p, r, cutoff)
        ) ** 2
        assert hs2_simplified(b, p, r) == pytest.approx(d2_num, abs=1e-9)

    def test_more_phase_shifts_never_hurt(self):
        b, r = 2.0, 1.3
        vals = [hs2_simplified(b, p, r) for p in (1, 2, 4, 8, 16)]
        assert vals == sorted(vals, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            hs2_simplified(1.0, 3, 1.5)
        with pytest.raises(ValueError):
            hs2_simplified(1.0, 0, 0.5)
        with pytest.raises(ValueError):
            hs2_simplified(1.0, 3, np.array([0.5, 1.5]))
        # x = 2 b^2 = 242 lies outside the supported window of the trapezoid rule
        with pytest.raises(ArgumentRangeError):
            hs2_simplified(11.0, 3, 10.5)
        with pytest.raises(ValueError, match="at least 0.01"):
            hs2_simplified(0.99 * B_SIMPLIFIED_MIN, 3, 5e-3)

    @pytest.mark.parametrize("p", [2.5, 1e-3, np.array([1.0, 2.5]), [3, 4.5, 6], math.nan])
    def test_non_integral_phase_count_raises(self, p):
        # the stripe mask takes p as an int: unchecked, p = 2.5 would pass as p = 2
        with pytest.raises(ValueError, match="p must be an integer >= 1"):
            hs2_simplified(2.0, p, 1.0)

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 20, 400, 501, 10**9])
    @pytest.mark.parametrize("x", [1e-3, 0.5, 2.0, 8.0, 50.0, 200.0])
    def test_overlap_mean_matches_bessel_stripes(self, p, x):
        # S_k(r) = e^-x I_k(x) at x = 2 r^2, for a circle at the disk's edge b = r;
        # the cutoff drops Poisson mass below the 1e-12 tail budget
        r = math.sqrt(0.5 * x)
        # p = 10^30 reaches no stripe: the difference is 2 sum_j S_jp alone
        stripe_sum = hs2_simplified(r, p, r) - hs2_simplified(r, 10**30, r)
        stripes = 2.0 * math.exp(-x) * series_bessel_sum(p, x)
        assert stripe_sum == pytest.approx(stripes, rel=0.0, abs=1e-11)

    @pytest.mark.parametrize("b", [1e-2, 2e-2, 0.1])
    def test_small_disk_matches_high_precision(self, b):
        # at r = b/sqrt(2) D^2 falls like b^8: the parent's three-trace sum printed
        # 0.0 there at b = 1e-2, p >= 4; d_0 = e^(-r^2) - u_0 still cancels
        rs = np.array([b / 2000, 0.3 * b, b / math.sqrt(2.0), b])
        for p in (1, 2, 3, 4, 5, 10, 501):
            vals = hs2_simplified(b, p, rs)
            for r, v in zip(rs, vals):
                ref = mp_simplified_d2(b, p, float(r), dim=16)
                assert v == pytest.approx(ref, rel=1e-6, abs=0.0), (p, r)

    @pytest.mark.parametrize("p", [1, 3, 20, 600])
    def test_array_matches_scalar_calls(self, p):
        b = 2.0
        rs = np.append(b * np.arange(1, 60) / 60, b)
        vals = hs2_simplified(b, p, rs)
        assert vals.shape == rs.shape
        for r, v in zip(rs, vals):
            assert v == pytest.approx(hs2_simplified(b, p, float(r)), rel=0, abs=1e-15)
        assert isinstance(hs2_simplified(b, p, 1.0), float)
        # p broadcasts against r: a column of p gives the table D^2[p_i, r_j]
        ps = np.array([1, 2, p, 7 * p])
        table = hs2_simplified(b, ps[:, None], rs)
        assert table.shape == (len(ps), len(rs))
        assert hs2_simplified(b, ps, rs[-1]) == pytest.approx(table[:, -1], rel=0, abs=1e-15)
        for q, row in zip(ps.tolist(), table):
            for r, v in zip(rs, row):
                assert v == pytest.approx(hs2_simplified(b, q, float(r)), rel=0, abs=1e-15)

    def test_huge_phase_count_is_cheap(self, capsys):
        t0 = time.perf_counter()
        v = hs2_simplified(2.0, 10**9, 1.3)
        huge = hs2_simplified(2.0, 10**20, 1.3)  # beyond int64
        assert time.perf_counter() - t0 < 1.0
        assert v == huge == hs2_simplified(2.0, 501, 1.3)
        assert np.array_equal(hs2_simplified(2.0, [501, 10**20], 1.3), [v, v])
        rows = []
        for p in ("501", "100000000000000000000"):
            assert cli.main(["simplified", "--b", "2", "--p", p, "--r", "1.3"]) == cli.EXIT_OK
            rows.append(capsys.readouterr().out.splitlines()[1].split(","))
        assert rows[1][1] == "100000000000000000000" and rows[1][3] == rows[0][3]


class TestKeyBits:
    def test_reference_points(self):
        assert key_bits(0.5) == pytest.approx(1.0)
        assert key_bits(2.0 ** -6.5) == pytest.approx(12.0)

    def test_inverts_to_distance(self):
        bits = key_bits(0.01)
        assert 2.0 ** (-(bits + 1.0) / 2.0) == pytest.approx(0.01)

    def test_exact_count(self):
        assert exact_key_bits(4) == pytest.approx(math.log2(10))
        assert exact_key_bits(1) == 0.0

    def test_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                key_bits(bad)
        with pytest.raises(ValueError):
            exact_key_bits(0)
