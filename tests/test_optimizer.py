import math

import mpmath
import numpy as np
import pytest
from scipy.special import ive

from cvpqc import (
    ConsistencyError,
    find_rmin,
    hs2_simplified,
    saturation_sweep,
    stationarity,
)
from cvpqc import optimizer
from cvpqc.distances import B_SIMPLIFIED_MIN
from cvpqc.fockspace import disk_cutoff
from cvpqc.optimizer import BRACKET, d2_derivative
from cvpqc.specialfns import TRAPEZOID_NODES, TRAPEZOID_NODES_MAX
from conftest import P_LIMIT, mp_simplified_minimizer


def terms_size(b, r):
    """circle + drive, the sizes of the two terms of the stationarity expression
    at p -> infinity, from scipy: e^(-x) [I_0(x) - I_1(x)] at x = 2r^2 and
    e^(-b^2 - r^2) I_1(2rb) / (rb)."""
    x = 2.0 * r * r
    return ive(0, x) - ive(1, x) + ive(1, 2.0 * r * b) * np.exp(-np.square(b - r)) / (r * b)


class TestStationarity:
    def test_brackets_an_interior_root(self):
        b = 2.0
        assert stationarity(b, 0.05) > 0.0
        assert stationarity(b, b) < 0.0

    def test_scaled_form_matches_finite_differences(self):
        # central differences of the large-p distance itself
        b, r, h = 2.0, 1.0, 1e-5
        fd = (hs2_simplified(b, P_LIMIT, r + h) - hs2_simplified(b, P_LIMIT, r - h)) / (
            2.0 * h
        )
        assert d2_derivative(b, r) == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("p", [1, 2, 3, 7])
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
    def test_finite_p_matches_finite_differences(self, r, p):
        b, h = 2.0, 1e-5
        fd = (hs2_simplified(b, p, r + h) - hs2_simplified(b, p, r - h)) / (2.0 * h)
        assert d2_derivative(b, r, p) == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("b", [0.01, 0.5, 2.0, 7.0, 10.0])
    def test_is_the_papers_expression_at_the_largest_rule(self, b):
        # times r e^(2r^2), the p -> infinity slope is
        # r I_0(2r^2) - r I_1(2r^2) - e^(r^2 - b^2) I_1(2rb) / b
        for r in (0.05 * b, 0.3 * b, 0.7 * b, 0.89 * b, b):
            with mpmath.workdps(50):
                mb, mr = mpmath.mpf(b), mpmath.mpf(r)
                x = 2 * mr * mr
                circle = mr * (mpmath.besseli(0, x) - mpmath.besseli(1, x))
                drive = mpmath.exp(mr * mr - mb * mb) * mpmath.besseli(1, 2 * mr * mb) / mb
                scaled = stationarity(b, r, TRAPEZOID_NODES) * mr * mpmath.exp(x)
                err = float(abs(scaled - (circle - drive)) / (circle + drive))
            assert err <= 5e-14, r

    def test_array_matches_scalar_calls(self):
        b = 3.0
        rs = np.linspace(0.03, b, 201)
        vals = stationarity(b, rs)
        assert vals.shape == rs.shape
        for r, v in zip(rs, vals):
            # the expression is a difference of two terms, circle and drive
            assert abs(v - stationarity(b, float(r))) <= 1e-14 * terms_size(b, r)
        assert isinstance(stationarity(b, 1.0), float)

    def test_validation(self):
        with pytest.raises(ValueError):
            stationarity(1.0, 0.0)
        with pytest.raises(ValueError):
            stationarity(1.0, 1.5)
        with pytest.raises(ValueError):
            stationarity(1.0, np.array([0.5, 1.5]))

    def test_phase_count_is_checked_and_capped(self):
        # every p >= TRAPEZOID_NODES takes the p -> infinity rule, even past int64
        limit = stationarity(2.0, 1.0)
        assert stationarity(2.0, 1.0, 501) == stationarity(2.0, 1.0, 10**20) == limit
        assert np.array_equal(stationarity(2.0, 1.0, [TRAPEZOID_NODES, 10**20]), [limit, limit])
        for p in (0, 2.5, -1):
            with pytest.raises(ValueError, match="p must be an integer"):
                stationarity(2.0, 1.0, p)

    def test_broadcasts_radii_against_rows(self):
        bs = np.array([1.0, 2.0, 3.0])
        rs = np.array([[0.2, 0.5, 1.0], [0.4, 1.0, 2.0], [0.6, 1.5, 3.0]])
        vals = stationarity(bs[:, None], rs)
        assert vals.shape == rs.shape
        for b, row, vrow in zip(bs, rs, vals):
            assert np.all(np.abs(vrow - stationarity(b, row)) <= 1e-14 * terms_size(b, row))
        derivs = d2_derivative(bs, rs[:, 1])
        for b, r, d in zip(bs, rs[:, 1], derivs):
            assert d == pytest.approx(d2_derivative(b, r), rel=1e-14, abs=1e-16)

    def test_window_is_checked_per_element(self):
        # r = 1.5 lies in (0, 2] but not in (0, 1]; the message names the first bad pair
        with pytest.raises(ValueError, match=r"r=1\.5, b=1\.0"):
            stationarity(np.array([[1.0], [2.0]]), np.array([[0.5, 1.5], [0.5, 1.5]]))


class TestFindRmin:
    def test_root_agrees_with_grid_minimizer(self):
        b = 2.0
        r_min, residual = find_rmin(b)
        r_sweep = saturation_sweep(b, P_LIMIT)[1][-1]
        assert r_min == pytest.approx(r_sweep, abs=1e-12)
        assert abs(residual) < 1e-10
        assert 0.0 < r_min < b

    def test_minimum_is_local(self):
        b = 1.0
        r = find_rmin(b)[0]
        v = hs2_simplified(b, P_LIMIT, r)
        assert v < hs2_simplified(b, P_LIMIT, r - 1e-3)
        assert v < hs2_simplified(b, P_LIMIT, r + 1e-3)

    def test_root_is_bracketed_across_the_window(self):
        for b in np.geomspace(B_SIMPLIFIED_MIN, 10.0, 40):
            r_min, residual = find_rmin(float(b))
            assert 0.0 < r_min < b and abs(residual) < 1e-10

    def test_small_disk_root_matches_high_precision(self):
        # the terms of the stationarity expression agree to O(b^2) relative, so the
        # root loses digits like eps / b^2 as b falls
        b = B_SIMPLIFIED_MIN
        with mpmath.workdps(80):
            mb = mpmath.mpf(b)

            def f(r):
                x = 2 * r * r
                drive = mpmath.besseli(1, 2 * r * mb) * mpmath.exp(r * r - mb * mb) / mb
                return r * (mpmath.besseli(0, x) - mpmath.besseli(1, x)) - drive

            root = float(mpmath.findroot(f, mb / mpmath.sqrt(2)))
        assert 0.5 * b < root < b
        assert find_rmin(b)[0] == pytest.approx(root, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("b", [0.05, 0.5, 2.0, 5.0, 7.0, 10.0])
    def test_root_matches_high_precision_across_the_window(self, b):
        # scaled by e^(-x), x = 2r^2: unscaled, findroot fails at b = 5
        with mpmath.workdps(60):
            mb = mpmath.mpf(b)

            def g(r):
                x = 2 * r * r
                drive = mpmath.besseli(1, 2 * r * mb) * mpmath.exp(r * r - mb * mb) / mb
                return mpmath.exp(-x) * (r * (mpmath.besseli(0, x) - mpmath.besseli(1, x)) - drive)

            root = float(mpmath.findroot(g, (0.6 * mb, 0.9 * mb), solver="anderson"))
        assert abs(find_rmin(b)[0] - root) <= 1e-12

    def test_not_finite_is_inconsistent(self, monkeypatch):
        # a root at 0.7b that the search must not step over: NaN on (0.65b, 0.75b)
        def hole(b, r, p):
            return np.where((0.65 * b < r) & (r < 0.75 * b), np.nan, 0.7 * b - r)

        monkeypatch.setattr(optimizer, "stationarity", hole)
        with pytest.raises(ConsistencyError, match=r"dD\^2/dr is nan at r=1\.[34]\d*, b=2\.0"):
            find_rmin(2.0)

    @pytest.mark.parametrize("b", [1.0, 2.0, 5.0])
    def test_steep_convex_stationarity_converges(self, b, monkeypatch):
        # the slope -4 expm1(40 (0.3b - r)) keeps regula falsi's far end fixed
        monkeypatch.setattr(
            optimizer, "stationarity", lambda b, r, p: np.expm1(40.0 * (0.3 * b - r)) / r
        )
        assert abs(find_rmin(b)[0] - 0.3 * b) <= 1e-12

    def test_no_sign_change_is_inconsistent(self, monkeypatch):
        monkeypatch.setattr(optimizer, "stationarity", lambda b, r, p: np.ones_like(r))
        with pytest.raises(ConsistencyError, match="no sign change"):
            find_rmin(2.0)

    def test_optimal_radius_grows_with_disk(self):
        rs = [find_rmin(b)[0] for b in (0.5, 1.0, 2.0, 4.0)]
        assert rs == sorted(rs)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_rmin(0.0)
        with pytest.raises(ValueError, match=r"b=10\.5 outside the window"):
            find_rmin(np.array([0.5, 10.5, 11.0]))
        with pytest.raises(ValueError, match="0.01"):
            find_rmin(0.99 * B_SIMPLIFIED_MIN)
        with pytest.raises(ValueError):
            find_rmin(10.5)


class TestSaturationSweep:
    def test_curve_shape_and_monotonicity(self):
        p_sat, r_at_min, d2_min = saturation_sweep(2.0, 12)
        assert len(r_at_min) == len(d2_min) == 12
        d2s = d2_min.tolist()
        assert d2s == sorted(d2s, reverse=True)
        assert 1 <= p_sat <= 12

    def test_saturation_point_honors_tolerance(self):
        p_sat, _, d2_min = saturation_sweep(1.0, 10, saturation_tol=1e-4)
        d2_last = d2_min[-1]
        assert d2_min[p_sat - 1] - d2_last < 1e-4
        if p_sat > 1:
            assert d2_min[p_sat - 2] - d2_last >= 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            saturation_sweep(1.0, 1)
        # past TRAPEZOID_NODES_MAX phase shifts every row repeats the last one
        with pytest.raises(ValueError, match=r"\[2, 501\]"):
            saturation_sweep(1.0, TRAPEZOID_NODES_MAX + 1)

    def test_largest_p_max_is_accepted(self):
        b = 1.0
        _, r_at_min, d2_min = saturation_sweep(b, TRAPEZOID_NODES_MAX)
        assert len(r_at_min) == len(d2_min) == TRAPEZOID_NODES_MAX
        # no stripe k >= 1 of the table is a multiple of p >= dim
        dim = disk_cutoff(b).dim
        assert len(set(d2_min[dim - 1 :].tolist())) == 1
        _, r_20, d2_20 = saturation_sweep(b, 20)
        assert np.array_equal(r_at_min[:20], r_20) and np.array_equal(d2_min[:20], d2_20)

    @pytest.mark.parametrize(
        "b,p", [(10.0, 2), (10.0, 3), (2.0, 2), (2.0, 3), (2.0, 4), (2.0, 5)]
    )
    def test_radius_is_the_minimizer(self, b, p):
        # at b = 10, D^2(2, r) is flat to 1e-12 relative over r in [3.0, 5.3]
        r = saturation_sweep(b, 6)[1][p - 1]
        dim = int(b * b + 10.0 * b) + 30
        ref = mp_simplified_minimizer(b, p, (0.1 * b, b), dim)
        assert r == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("b", np.geomspace(B_SIMPLIFIED_MIN, 10.0, 9).tolist())
    def test_one_sign_change_per_phase_count(self, b):
        # p = 1 increases in r; every p >= 2 has one interior minimum
        ps = np.array([1, 2, 3, 4, 5, 7, 10, 16, 40, 100, 160, 501])
        g = d2_derivative(b, np.linspace(BRACKET[0], 1.0, 401) * b, ps[:, None])
        changes = np.sum(np.sign(g[:, 1:]) != np.sign(g[:, :-1]), axis=1)
        assert changes.tolist() == [0] + [1] * (len(ps) - 1)

    @pytest.mark.parametrize("b", [0.5, 2.0, 7.0])
    def test_last_row_is_find_rmin(self, b):
        assert abs(saturation_sweep(b, P_LIMIT)[1][-1] - find_rmin(b)[0]) <= 1e-12

    def test_single_state_takes_the_lower_end(self):
        for b in (0.01, 2.0, 10.0):
            assert saturation_sweep(b, 2)[1][0] == BRACKET[0] * b

    def test_row_without_sign_change_is_inconsistent(self, monkeypatch):
        # dD^2/dr = -4r < 0 at every radius: a p >= 2 must have an interior minimum
        monkeypatch.setattr(optimizer, "stationarity", lambda b, r, p: np.ones_like(r))
        with pytest.raises(ConsistencyError, match=r"no sign change in r in \[0\.001, 2\.0\]"):
            saturation_sweep(2.0, 5)

    @pytest.mark.parametrize("p_max", [30, 501])
    @pytest.mark.parametrize("b", [0.01, 0.5, 2.0, 10.0])
    def test_every_minimum_is_the_simplified_distance(self, b, p_max):
        # one route: each row's d2_min is hs2_simplified at its own radius
        _, r_at_min, d2_min = saturation_sweep(b, p_max)
        for p, r, d2 in zip(range(1, p_max + 1), r_at_min.tolist(), d2_min.tolist()):
            ref = hs2_simplified(b, p, r)
            assert abs(d2 - ref) <= 8 * np.spacing(ref), (p, r)

    def test_sweeps_take_few_calls(self, monkeypatch):
        # one stationarity call for the bracket points, one per Illinois step; without
        # the point 0.25b the p = 2 row at b = 10 crawls from b/2000 (65 calls), and the
        # benchmark's radii b = 1, 1 + 2^-6, ..., 3 at p_max = 20 take 12.3 on average
        calls, stationarity = [], optimizer.stationarity
        monkeypatch.setattr(
            optimizer, "stationarity", lambda b, r, p: calls.append(r) or stationarity(b, r, p)
        )
        saturation_sweep(10.0, TRAPEZOID_NODES_MAX)
        assert len(calls) <= 45
        calls.clear()
        radii = 1.0 + np.arange(129) / 64
        for b in radii:
            saturation_sweep(float(b), 20)
        assert len(calls) / len(radii) <= 11.0


class TestBatchedRoots:
    @pytest.mark.parametrize(
        "grid",
        [np.geomspace(1e-2, 7.0, 40), np.arange(1, 15) * 0.5],
        ids=["geomspace", "half-steps"],
    )
    def test_grid_matches_one_radius_at_a_time(self, grid):
        r_min, residual = find_rmin(grid)
        assert r_min.shape == residual.shape == grid.shape
        for b, r, res in zip(grid, r_min, residual):
            alone = find_rmin(float(b))
            assert abs(r - alone[0]) <= 1e-12
            assert abs(res - alone[1]) <= 1e-12

    def test_length_one_array_gives_a_list(self):
        # arrays shaped like b, here (1,)
        batch = find_rmin(np.array([2.0]))
        assert all(isinstance(a, np.ndarray) and a.shape == (1,) for a in batch)
        assert (batch[0][0], batch[1][0]) == find_rmin(2.0)

    def test_scalar_gives_python_floats(self):
        res = find_rmin(2.0)
        assert isinstance(res, tuple) and len(res) == 2
        for value in res:
            assert type(value) is float

    def test_grid_longer_than_one_search(self):
        # the radii are searched RADII_PER_SEARCH at a time, in order
        grid = np.linspace(0.5, 7.0, optimizer.RADII_PER_SEARCH + 3)
        r_min, residual = find_rmin(grid)
        assert r_min.shape == residual.shape == grid.shape
        for i in (0, optimizer.RADII_PER_SEARCH - 1, optimizer.RADII_PER_SEARCH, len(grid) - 1):
            alone = find_rmin(float(grid[i]))
            assert abs(r_min[i] - alone[0]) <= 1e-12
            assert abs(residual[i] - alone[1]) <= 1e-12

    def test_fine_grid_makes_a_dozen_calls_per_search(self, monkeypatch):
        # the first call, one per Illinois step and the residual, per RADII_PER_SEARCH radii
        grid = np.arange(0.01, 7, 0.001)
        calls, stationarity = [], optimizer.stationarity
        monkeypatch.setattr(
            optimizer, "stationarity", lambda b, r, p: calls.append(r) or stationarity(b, r, p)
        )
        assert len(find_rmin(grid)[0]) == len(grid) == 6990
        assert len(calls) <= math.ceil(len(grid) / optimizer.RADII_PER_SEARCH) * 12

    def test_one_row_without_sign_change_is_named(self, monkeypatch):
        # a root at r = b/2 in every row but b = 3, which stays positive
        monkeypatch.setattr(
            optimizer, "stationarity", lambda b, r, p: np.where(b == 3.0, 1.0, 0.5 * b - r)
        )
        with pytest.raises(ConsistencyError, match=r"no sign change in r in \[0\.0015, 3\.0\]"):
            find_rmin(np.array([1.0, 2.0, 3.0, 4.0]))
