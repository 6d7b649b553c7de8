import math

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cvpqc import ArgumentRangeError, bessel_i, poisson_tail
from cvpqc.distances import cross_bessel_sum
from cvpqc.specialfns import (
    POISSON_LAM_MAX,
    SUPPORTED_X_MAX,
    bessel_sum,
    poisson_cut,
    trapezoid_mean,
    trapezoid_rule,
)
from conftest import mp_bessel_i, mp_poisson_tail, series_bessel_i


def bessel_route(order):
    """The production rule at orders 0 and 1; the ascending series, a test
    oracle, above them."""
    return bessel_i if order <= 1 else series_bessel_i


class TestBesselI:
    @pytest.mark.parametrize("order", [0, 1, 2, 5, 17])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 40.0, 120.0])
    def test_matches_extended_precision_series(self, order, x):
        assert bessel_route(order)(order, x) == pytest.approx(mp_bessel_i(order, x), rel=1e-13)

    @pytest.mark.parametrize("order", [0, 3, 25])
    @pytest.mark.parametrize("x", [0.5, 8.0, 150.0])
    def test_matches_scipy(self, order, x):
        assert bessel_route(order)(order, x) == pytest.approx(
            scipy.special.iv(order, x), rel=1e-12
        )

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("x", [1e-300, 1e-12, 1e-6, 1e-2, 199.0, 200.0])
    def test_edges_of_the_window_match_scipy(self, order, x):
        # the n = 1 rule sums x sin^2(theta_j) exp(...) >= 0, so small x keeps its digits
        assert bessel_i(order, x) == pytest.approx(scipy.special.iv(order, x), rel=1e-12)

    def test_order_one_sweep_matches_mpmath(self):
        # the rule for I_1 sums non-negative terms, so no weight of the other sign
        # cancels near x = 190, where e^(-x) I_1(x) is about 0.03
        xs = np.concatenate([np.geomspace(1e-6, SUPPORTED_X_MAX, 250), np.linspace(150.0, 200.0, 51)])
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.besseli(1, float(x))) for x in xs])
        np.testing.assert_allclose(bessel_i(1, xs), ref, rtol=1e-15, atol=0.0)

    def test_array_matches_scalar_calls(self):
        xs = np.append(np.geomspace(1e-8, SUPPORTED_X_MAX, 40), 0.0)
        for order in (0, 1):
            vals = bessel_i(order, xs)
            assert vals.shape == xs.shape
            for x, v in zip(xs, vals):
                assert v == pytest.approx(bessel_i(order, float(x)), rel=1e-15)
            assert isinstance(bessel_i(order, 1.0), float)

    def test_zero_argument(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0
        assert series_bessel_i(4, 0.0) == 0.0

    def test_high_order_underflow_is_zero(self):
        # leading term (x/2)^order / order! underflows long before order 500
        assert series_bessel_i(490, 0.5) == 0.0

    def test_range_guard(self):
        with pytest.raises(ArgumentRangeError):
            bessel_i(0, 250.0)
        with pytest.raises(ArgumentRangeError):
            bessel_i(0, np.array([1.0, 250.0]))
        with pytest.raises(ArgumentRangeError):
            bessel_i(501, 1.0)
        with pytest.raises(ArgumentRangeError):
            bessel_i(2, 1.0)
        with pytest.raises(ValueError):
            bessel_i(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_i(0, -1.0)

    @given(x=st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_order_monotone_decreasing(self, x):
        assert bessel_i(0, x) >= bessel_i(1, x) >= series_bessel_i(2, x) > 0.0


RULE_NODES = [1, 2, 3, 4, 5, 159, 160, 161, 501]


def literal_mean(x: float, order: int, nodes: int) -> float:
    """(x^order / K) sum over all K nodes j = 0..K-1 of
    sin^(2 order)(theta_j) exp(-2x h_j), h_j = sin^2(theta_j/2), term by term;
    sin^2(theta_j) = 4 h_j (1 - h_j), as in the production rule."""
    half2 = [math.sin(math.pi * j / nodes) ** 2 for j in range(nodes)]
    terms = [math.exp(-2.0 * x * h) * (4.0 * h * (1.0 - h)) ** order for h in half2]
    return x**order * math.fsum(terms) / nodes


class TestTrapezoidRule:
    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("nodes", RULE_NODES)
    def test_distinct_nodes_give_the_full_mean(self, nodes, order):
        xs = np.geomspace(1e-12, SUPPORTED_X_MAX, 29)
        folded = trapezoid_mean(xs, nodes)[order]
        for x, value in zip(xs, folded):
            # node j of the fold and node K - j of the literal round h_j apart, which moves
            # exp(-2x h_j) by up to 2x ulp; at order 1 the node theta = 0 adds nothing, so
            # with few nodes the far ones carry the whole mean and that shows
            rel = 1e-14 + order * 4.0 * x * np.finfo(float).eps
            assert value == pytest.approx(literal_mean(x, order, nodes), rel=rel, abs=0.0)

    @pytest.mark.parametrize("nodes", RULE_NODES)
    def test_order_zero_weights_sum_to_one(self, nodes):
        assert abs(math.fsum(trapezoid_rule(nodes)[1]) - 1.0) <= 2e-16

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("nodes", RULE_NODES)
    def test_rule_holds_the_distinct_nodes_read_only(self, nodes, order):
        rule = trapezoid_rule(nodes)
        half2, weight = rule[0], rule[1 + order]
        assert half2.shape == weight.shape == (nodes // 2 + 1,)
        for array in (half2, weight):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestBesselSum:
    @pytest.mark.parametrize("step,x", [(1, 2.0), (3, 5.0), (7, 12.0)])
    def test_matches_direct_scipy_sum(self, step, x):
        direct = sum(scipy.special.iv(step * k, x) for k in range(1, 120))
        assert bessel_sum(step, x) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 4.0, 8.0])
    def test_exponential_identity(self, x):
        # e^x = I_0(x) + 2 sum_k I_k(x), the sum from the cross series at
        # b = r = sqrt(x/2), which shares no code with the trapezoid rule
        y = math.sqrt(0.5 * x)
        lhs = math.exp(-x) * (bessel_i(0, x) + 2.0 * cross_bessel_sum(y, y))
        assert abs(lhs - 1.0) < 1e-13

    def test_zero_argument(self):
        assert bessel_sum(4, 0.0) == 0.0

    def test_step_validation(self):
        with pytest.raises(ValueError):
            bessel_sum(0, 1.0)


class TestPoissonTail:
    @pytest.mark.parametrize("n", [0, 1, 3, 10, 40])
    @pytest.mark.parametrize("lam", [0.3, 1.0, 4.0, 25.0])
    def test_matches_gamma_oracle(self, n, lam):
        assert poisson_tail(n, lam) == pytest.approx(
            mp_poisson_tail(n, lam), rel=1e-12, abs=1e-300
        )

    @pytest.mark.parametrize("n,lam", [(2, 1.5), (9, 16.0), (60, 36.0)])
    def test_matches_scipy_sf(self, n, lam):
        assert poisson_tail(n, lam) == pytest.approx(
            scipy.stats.poisson.sf(n, lam), rel=1e-10
        )

    @pytest.mark.parametrize(
        "n,lam",
        [(744, 744.0), (746, 746.0), (650, 709.5), (760, 744.0), (900, 800.0), (1080, 1000.0)],
    )
    def test_large_mean_matches_scipy_sf(self, n, lam):
        # e^(-lam) is subnormal above lam = 708 and zero above 745
        assert poisson_tail(n, lam) == pytest.approx(
            scipy.stats.poisson.sf(n, lam), rel=1e-12
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("lam", [1e-16, 1e-12, 1e-8, 1e-4, 0.5])
    def test_small_mean_matches_oracles(self, n, lam):
        # 1 - e^(-lam) and log1p((lam - n)/n) both lose the digits of a small lam
        t = poisson_tail(n, lam)
        assert t == pytest.approx(mp_poisson_tail(n, lam), rel=1e-12, abs=0.0)
        assert t == pytest.approx(scipy.stats.poisson.sf(n, lam), rel=1e-10, abs=0.0)

    def test_array_matches_scalar_calls(self):
        n = np.arange(0, 140, 3)
        for lam in (1e-12, 0.7, 36.0, 100.0):
            tails = poisson_tail(n, lam)
            assert tails.shape == n.shape
            assert tails.tolist() == [poisson_tail(int(k), lam) for k in n]
        assert isinstance(poisson_tail(3, 2.0), float)

    @pytest.mark.parametrize("n,lam", [(60, 4.0), (120, 4.0), (180, 4.0), (300, 100.0), (400, 100.0)])
    def test_deep_tail_matches_gamma_oracle(self, n, lam):
        # tails down to 1e-225: the sum runs to the Chernoff cut, not to a relative stop
        assert poisson_tail(n, lam) == pytest.approx(mp_poisson_tail(n, lam), rel=1e-12, abs=0.0)

    def test_rounding_never_lifts_a_tail_past_one(self):
        # the amplitudes' rounding sums P(X > 0) to 1 + 1.3e-15 at lam = 42
        for lam in (42.0, *np.linspace(30.0, POISSON_LAM_MAX, 40)):
            assert poisson_tail(np.arange(4), lam).max() <= 1.0, lam

    def test_past_the_support_is_zero(self):
        # past the Chernoff cut, the first m with lam - m + m ln(m/lam) >= 745 (240 at
        # lam = 4, 692 at lam = 100), nothing a double holds is left
        assert poisson_tail(5000, 4.0) == 0.0
        assert poisson_tail(np.array([2000, 10**6]), 100.0).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize(
        "lam", [5e-324, 1e-300, 1e-16, 1e-4, 0.5, 4.0, 100.0, 709.5, POISSON_LAM_MAX]
    )
    def test_cut_is_the_first_chernoff_point(self, lam):
        # the smallest m > lam whose bound e^(-lam) (e lam/m)^m on P(X >= m) is
        # below e^(-745), so the mass it drops is below e^(-745) too
        def exponent(m):
            return lam - m + m * (math.log(m) - math.log(lam))

        cut = poisson_cut(lam)
        assert exponent(cut) >= 745.0
        assert cut - 1 <= lam or exponent(cut - 1) < 745.0
        assert cut <= lam + math.sqrt(1490.0 * lam) + 1490.0
        with mpmath.workdps(30):
            dropped = mpmath.gammainc(cut + 1, 0, lam, regularized=True)
            assert dropped < mpmath.exp(-745)
        assert poisson_cut(0.0) == 0

    def test_mean_window(self):
        assert poisson_tail(1400, POISSON_LAM_MAX) == pytest.approx(
            scipy.stats.poisson.sf(1400, POISSON_LAM_MAX), rel=1e-12
        )
        for lam in (1400.5, 1e4, math.inf, math.nan):
            with pytest.raises(ValueError):
                poisson_tail(10, lam)

    def test_degenerate_cases(self):
        assert poisson_tail(5, 0.0) == 0.0
        assert poisson_tail(0, 0.0) == 0.0
        with pytest.raises(ValueError):
            poisson_tail(-1, 1.0)
        with pytest.raises(ValueError):
            poisson_tail(0, -1.0)

    @given(
        lam=st.floats(min_value=0.01, max_value=60.0),
        n=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_is_a_decreasing_probability(self, lam, n):
        t = poisson_tail(n, lam)
        assert 0.0 <= t <= 1.0
        assert poisson_tail(n + 1, lam) <= t + 1e-15
