import math

import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cvpqc import ArgumentRangeError, bessel_i, bessel_sum, poisson_tail
from conftest import mp_bessel_i, mp_poisson_tail


class TestBesselI:
    @pytest.mark.parametrize("order", [0, 1, 2, 5, 17])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 40.0, 120.0])
    def test_matches_extended_precision_series(self, order, x):
        assert bessel_i(order, x) == pytest.approx(mp_bessel_i(order, x), rel=1e-13)

    @pytest.mark.parametrize("order", [0, 3, 25])
    @pytest.mark.parametrize("x", [0.5, 8.0, 150.0])
    def test_matches_scipy(self, order, x):
        assert bessel_i(order, x) == pytest.approx(scipy.special.iv(order, x), rel=1e-12)

    def test_zero_argument(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(4, 0.0) == 0.0

    def test_high_order_underflow_is_zero(self):
        # leading term (x/2)^order / order! underflows long before order 500
        assert bessel_i(490, 0.5) == 0.0

    def test_range_guard(self):
        with pytest.raises(ArgumentRangeError):
            bessel_i(0, 250.0)
        with pytest.raises(ArgumentRangeError):
            bessel_i(501, 1.0)
        with pytest.raises(ValueError):
            bessel_i(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_i(0, -1.0)

    @given(x=st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_order_monotone_decreasing(self, x):
        assert bessel_i(0, x) >= bessel_i(1, x) >= bessel_i(2, x) > 0.0


class TestBesselSum:
    @pytest.mark.parametrize("step,x", [(1, 2.0), (3, 5.0), (7, 12.0)])
    def test_matches_direct_scipy_sum(self, step, x):
        direct = sum(scipy.special.iv(step * k, x) for k in range(1, 120))
        assert bessel_sum(step, x) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 4.0, 8.0])
    def test_exponential_identity(self, x):
        # e^x = I_0(x) + 2 sum_k I_k(x)
        lhs = math.exp(-x) * (bessel_i(0, x) + 2.0 * bessel_sum(1, x))
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

    def test_degenerate_cases(self):
        assert poisson_tail(5, 0.0) == 0.0
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
