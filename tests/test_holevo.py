import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammainc

from cvpqc import QuadratureConvergenceError, lambda_spectrum, off_diagonal_check
from cvpqc import cli, holevo
from cvpqc.holevo import HOLEVO_B_MAX, disk_state_weights, entropy_bits
from conftest import (
    column_off_diagonal_check,
    column_off_diagonal_pairs,
    direct_clenshaw_curtis,
    holevo_classical_limit,
    quad_lambda_weights,
    tensor_holevo_chi,
    tensor_lambda_weights,
)

# Clenshaw-Curtis order at which the refinement gap is 1.6e-8 at b = 0.2
# and 9.5e-3 at b = 4: the first passes the 1e-6 threshold, the second fails.
COARSE_ORDER = 10

TWO_PI = 2.0 * math.pi


def mc_weight_ratios(b, n_keep, samples, seed):
    """Monte Carlo lambda_n / lambda_0 with standard errors.

    Samples the combined radius R of two independent uniform-disk points
    and averages e^(-R^2) R^(2n) / n! directly.
    """
    rng = np.random.default_rng(seed)
    r1 = b * np.sqrt(rng.random(samples))
    r2 = b * np.sqrt(rng.random(samples))
    phi = TWO_PI * rng.random(samples)
    r_sq = r1**2 + r2**2 - 2.0 * r1 * r2 * np.cos(phi)
    cur = np.exp(-r_sq)
    means, errs = [], []
    for n in range(n_keep):
        if n:
            cur = cur * r_sq / n
        means.append(cur.mean())
        errs.append(cur.std() / math.sqrt(samples))
    means = np.array(means)
    return means / means[0], np.array(errs) / means[0]


def assert_curve_fails_at(grid, failed, reason, capsys):
    """`holevo --b-grid` writes the rows of the other radii, then exits 3 with
    one stderr line naming the failed radius."""
    code = cli.main(["holevo", "--b-grid", ",".join(map(str, grid))])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INCONSISTENT
    lines = out.splitlines()
    assert lines[0] == "b,chi_bits,quad_error,dim"
    rows = [tuple(float(v) for v in line.split(",")[:2]) for line in lines[1:]]
    assert rows == [(b, lambda_spectrum(b)[0]) for b in grid if b != failed]
    assert len(err.splitlines()) == 1 and f"b={failed}: " in err and reason in err


class TestLambdaSpectrum:
    def test_is_a_distribution(self):
        _, quad_error, weights = lambda_spectrum(1.5)
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert quad_error < 1e-6

    def test_matches_monte_carlo(self):
        weights = lambda_spectrum(1.0)[2]
        ratios, errs = mc_weight_ratios(1.0, 10, samples=200_000, seed=7)
        quad_ratios = weights[:10] / weights[0]
        z = np.abs(ratios - quad_ratios) / errs
        assert z.max() < 5.0

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 4.0])
    def test_matches_tensor_oracle(self, b):
        chi, _, weights = lambda_spectrum(b)
        oracle = tensor_lambda_weights(b, len(weights))
        assert np.abs(weights - oracle).max() < 1e-12
        assert abs(chi - tensor_holevo_chi(b, len(weights))) < 1e-9

    @pytest.mark.parametrize("b", [6.5, HOLEVO_B_MAX])
    def test_matches_quad_reference(self, b):
        # adaptive quadrature of each lambda_n alone, up to the top of the window
        chi_bits, _, weights = lambda_spectrum(b)
        ref = quad_lambda_weights(b, len(weights))
        n = np.arange(len(weights))
        chi = entropy_bits(ref) - entropy_bits(gammainc(n + 1, b * b) / (b * b))
        assert np.abs(weights - ref).max() < 1e-14
        assert abs(chi_bits - chi) < 1e-12

    def test_small_disk_concentrates_on_vacuum(self):
        weights = lambda_spectrum(1e-3)[2]
        assert weights[0] > 1.0 - 1e-5

    def test_coarse_quadrature_raises(self, monkeypatch):
        monkeypatch.setattr(holevo, "CC_ORDER", COARSE_ORDER)
        with pytest.raises(QuadratureConvergenceError):
            lambda_spectrum(4.0)

    def test_mass_beyond_cutoff_raises(self, monkeypatch):
        # a 3-level cutoff keeps the refinement gap small but drops most mass
        monkeypatch.setattr(holevo, "CutoffPolicy", lambda max_radius: SimpleNamespace(dim=3))
        with pytest.raises(QuadratureConvergenceError, match="mass deficit"):
            lambda_spectrum(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_spectrum(0.0)

    def test_supported_window(self):
        assert lambda_spectrum(HOLEVO_B_MAX)[1] < 1e-6
        with pytest.raises(ValueError, match="supported window"):
            lambda_spectrum(HOLEVO_B_MAX + 0.01)


class TestCachedRules:
    @pytest.mark.parametrize("n", [holevo.CC_ORDER, 2 * holevo.CC_ORDER])
    @pytest.mark.parametrize("b", [0.7, 9.0])
    def test_weights_match_a_fresh_rule(self, b, n):
        # the (n + 1)-node level (every other node, or all of them) against the law
        # of s = |alpha + beta| itself: E 1 = 1, E s^2 = b^2, E s^4 = 5 b^4 / 3
        cos_t, fine, coarse = holevo._rule(holevo.CC_ORDER)
        weight, cos_t = (coarse, cos_t[::2]) if n == holevo.CC_ORDER else (fine, cos_t)
        s = 2.0 * b * cos_t
        assert abs(weight.sum() - 1.0) < 1e-14
        assert abs(weight @ s**2 / b**2 - 1.0) < 1e-14
        assert abs(weight @ s**4 / b**4 - 5.0 / 3.0) < 1e-14

    @pytest.mark.parametrize("n", [8, holevo.CC_ORDER, 2 * holevo.CC_ORDER])
    def test_rule_matches_high_precision(self, n):
        # the exact moments of the Chebyshev polynomials, int T_k = 2 / (1 - k^2)
        # for even k and 0 for odd k, as the raw weights must give them for k <= n
        w = holevo._clenshaw_curtis(n)
        assert w.shape == (n + 1,) and w.min() > 0.0 and abs(w.sum() - 2.0) < 1e-14
        k, i = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        chebyshev = np.cos(np.pi * (k * i % (2 * n)) / n)  # T_k(cos(i pi / n)), exact angles
        exact = np.zeros(n + 1)
        exact[::2] = 2.0 / (1.0 - np.arange(0, n + 1, 2) ** 2.0)
        assert np.abs(chebyshev @ w - exact).max() < 1e-14

    def test_coarse_level_is_every_other_node(self):
        order = holevo.CC_ORDER
        cos_t, fine, coarse = holevo._rule(order)
        assert fine.shape == cos_t.shape == (2 * order + 1,) and coarse.shape == (order + 1,)
        # the nodes of the (order + 1)-node rule, t_j = (pi/4)(cos(j pi / order) + 1)
        t = 0.25 * np.pi * (np.cos(np.arange(order + 1) * (np.pi / order)) + 1.0)
        assert np.array_equal(cos_t[::2], np.cos(t))

    def test_rule_is_read_only(self):
        for arr in holevo._rule(holevo.CC_ORDER):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("reverse", [False, True])
    def test_curve_matches_separate_bounds(self, reverse):
        grid = [0.5, 2.0, 6.5, 11.0]
        if reverse:
            grid = grid[::-1]
        holevo._rule.cache_clear()  # the first radius builds the rule
        first = [lambda_spectrum(b)[0] for b in grid]
        for b, chi in zip(grid, first):
            holevo._rule.cache_clear()
            assert lambda_spectrum(b)[0] == chi


class TestClenshawCurtisWeights:
    @pytest.mark.parametrize("n", [8, 20, holevo.CC_ORDER, 2 * holevo.CC_ORDER])
    def test_matches_the_direct_cosines(self, n):
        # the cosine table indexed by j k mod n against the cosine of every j k
        w = holevo._clenshaw_curtis(n)
        assert w.shape == (n + 1,)
        assert np.abs(w - direct_clenshaw_curtis(n)).max() <= 1e-16
        assert np.array_equal(w, w[::-1])


class TestEntropyAndBound:
    def test_entropy_of_uniform_weights(self):
        assert entropy_bits(np.full(16, 1.0 / 16)) == pytest.approx(4.0)
        assert entropy_bits(np.array([1.0, 0.0])) == 0.0

    def test_disk_weights_nearly_normalized(self):
        w = disk_state_weights(1.0, 30)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)

    def test_bound_is_positive_and_grows(self):
        chi1 = lambda_spectrum(1.0)[0]
        chi2 = lambda_spectrum(2.0)[0]
        assert 0.0 < chi1 < chi2

    @pytest.mark.parametrize("b", [1e-150, 1e-8, 1e-4])
    def test_bound_is_never_negative(self, b):
        # at b = 1e-8 the entropy gap rounds to -4.8e-16, which reads 0
        assert lambda_spectrum(b)[0] >= 0.0

    def test_oracle_is_the_classical_entropy_gap(self):
        assert holevo_classical_limit() == pytest.approx(1.39257, abs=5e-6)

    def test_bound_increases_toward_classical_limit(self):
        # chi < chi_inf is a numerical observation, not a theorem
        limit = holevo_classical_limit()
        chis = [lambda_spectrum(b)[0] for b in (1.0, 2.0, 4.0, 8.0, HOLEVO_B_MAX)]
        assert all(c2 > c1 for c1, c2 in zip(chis, chis[1:]))
        assert chis[-1] < limit

    @pytest.mark.parametrize("b", [3.0, 4.0, 5.0, 6.0])
    def test_gap_to_classical_limit_shrinks_like_inverse_radius(self, b):
        # measured ratios 0.527..0.552: a constant gap gives 1, a 1/b^2 gap 0.25
        limit = holevo_classical_limit()
        chi_b, chi_2b = (lambda_spectrum(x)[0] for x in (b, 2.0 * b))
        ratio = (limit - chi_2b) / (limit - chi_b)
        assert 0.5 <= ratio <= 0.6

    def test_curve_collects_failures_without_aborting(self, monkeypatch, capsys):
        monkeypatch.setattr(holevo, "CC_ORDER", COARSE_ORDER)
        assert_curve_fails_at([0.2, 4.0, 0.3], 4.0, "refinement disagreement", capsys)

    def test_negative_chi_is_a_failure_in_bound_and_curve(self, monkeypatch, capsys):
        # a maximally mixed reference has more entropy than any spectrum
        disk = holevo.disk_state_weights

        def weights(b, dim):
            return np.full(dim, 1.0 / dim) if b == 1.0 else disk(b, dim)

        monkeypatch.setattr(holevo, "disk_state_weights", weights)
        with pytest.raises(QuadratureConvergenceError, match="negative"):
            lambda_spectrum(1.0)
        assert_curve_fails_at([0.5, 1.0, 2.0], 1.0, "negative beyond tolerance", capsys)


class TestUnitCircle:
    @pytest.mark.parametrize("u", [0.0, 2.0**-53, 0.25, 0.5 - 2.0**-53, 0.5, 1.0 - 2.0**-53])
    def test_extreme_draws(self, u):
        # z = tan(pi u) reaches 1.6e16 at u = 1/2, and z^2 stays finite
        cos, sin = holevo._unit_circle(np.array([u]))
        assert np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))
        assert abs(cos[0] - np.cos(TWO_PI * u)) <= np.finfo(float).eps
        assert abs(sin[0] - np.sin(TWO_PI * u)) <= np.finfo(float).eps

    def test_matches_libm_on_random_draws(self):
        u = np.random.default_rng(7).random(1_000_000)
        cos, sin = holevo._unit_circle(u)
        assert np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))
        assert np.max(np.abs(cos - np.cos(TWO_PI * u))) <= np.finfo(float).eps
        assert np.max(np.abs(sin - np.sin(TWO_PI * u))) <= np.finfo(float).eps


class TestOffDiagonalCheck:
    def test_consistent_with_diagonality(self):
        max_abs, stderr = off_diagonal_check(0.5, 50_000, seed=3)
        assert max_abs < 5.0 * stderr

    def test_noise_shrinks_with_samples(self):
        # the reported entry can move between runs, so only the broad
        # scaling is asserted: more samples, smaller residual and error
        small_max, small_stderr = off_diagonal_check(0.5, 20_000, seed=11)
        large_max, large_stderr = off_diagonal_check(0.5, 80_000, seed=11)
        assert large_stderr < small_stderr
        assert large_max < small_max
        assert large_max < 5.0 * large_stderr

    @pytest.mark.parametrize("samples", [1, 19_999, 20_000, 20_001, 100_000])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_column_reference(self, seed, samples):
        # same draws, other summation order: the estimates move by rounding only
        est_max, est_stderr = off_diagonal_check(0.5, samples, seed=seed)
        max_abs, stderr = column_off_diagonal_check(0.5, samples, seed=seed)
        assert est_max == pytest.approx(max_abs, rel=1e-12, abs=0.0)
        if samples > 1:
            assert est_stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
        else:  # one sample has no spread: both read sqrt(rounding of E|x|^2 - |Ex|^2)
            assert max(est_stderr, stderr) <= math.sqrt(8 * np.finfo(float).eps) * max_abs

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("b", [2.0, 4.0, HOLEVO_B_MAX])
    def test_matches_column_reference_across_the_window(self, b, seed):
        # w = e^(-|gamma|^2) reaches e^(-676) at b = 13 and stays a normal double
        est_max, est_stderr = off_diagonal_check(b, 100_000, seed=seed)
        max_abs, stderr = column_off_diagonal_check(b, 100_000, seed=seed)
        assert est_max == pytest.approx(max_abs, rel=1e-12, abs=0.0)
        assert est_stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("samples", [1, 19_999, 20_001, 100_000])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("b", [0.5, 2.0, HOLEVO_B_MAX])
    def test_every_pair_matches_column_reference(self, b, seed, samples):
        # the largest entry sits at d <= 8 for these radii and seeds, so only a
        # pair-by-pair comparison sees the products over the rows d >= 10
        mags, stderrs = holevo._off_diagonal_pairs(b, samples, seed)
        ref_mags, ref_stderrs = column_off_diagonal_pairs(b, samples, seed)
        assert mags.shape == ref_mags.shape == (190,)
        np.testing.assert_allclose(mags, ref_mags, rtol=1e-12, atol=0.0)
        if samples > 1:
            np.testing.assert_allclose(stderrs, ref_stderrs, rtol=1e-12, atol=0.0)
        else:  # one sample has no spread: both read sqrt(rounding of E|x|^2 - |Ex|^2)
            bound = math.sqrt(8 * np.finfo(float).eps) * mags
            assert np.all(np.maximum(stderrs, ref_stderrs) <= bound)

    @pytest.mark.parametrize("seed", range(21))
    def test_verify_passes_at_every_benchmark_seed(self, seed):
        # verify all's lambda-diagonality line at --seed 0..20; the largest
        # ratio is 2.15, at seed 13
        max_abs, stderr = off_diagonal_check(0.5, 100_000, seed=seed)
        assert max_abs < 5.0 * stderr

    @pytest.mark.parametrize("b", [-1.0, -math.inf, math.nextafter(HOLEVO_B_MAX, math.inf),
                                   20.0, math.inf, math.nan])
    def test_radius_window(self, b):
        with pytest.raises(ValueError, match="b must be in"):
            off_diagonal_check(b, 100)

    def test_sample_count_window(self):
        with pytest.raises(ValueError, match="samples must be"):
            off_diagonal_check(0.5, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            off_diagonal_check(0.0, 100)
