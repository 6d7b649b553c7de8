import math
from types import SimpleNamespace

import numpy as np
import pytest

from cvpqc import (
    QuadratureConvergenceError,
    holevo_bound,
    holevo_curve,
    lambda_spectrum,
    off_diagonal_check,
)
from cvpqc import holevo
from cvpqc.fockspace import coherent_amplitudes
from cvpqc.holevo import HOLEVO_B_MAX, disk_state_weights, entropy_bits
from conftest import (
    column_off_diagonal_check,
    holevo_classical_limit,
    mp_gauss_legendre,
    tensor_holevo_chi,
    tensor_lambda_weights,
)

# Gauss-Legendre order at which the refinement gap is 5.5e-9 at b = 0.2
# and 1.7e-2 at b = 4: the first passes the 1e-6 threshold, the second fails.
COARSE_ORDER = 8

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


class TestLambdaSpectrum:
    def test_is_a_distribution(self):
        spec = lambda_spectrum(1.5)
        assert spec.weights.min() >= 0.0
        assert spec.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert spec.quad_error < 1e-6

    def test_matches_monte_carlo(self):
        spec = lambda_spectrum(1.0)
        ratios, errs = mc_weight_ratios(1.0, 10, samples=200_000, seed=7)
        quad_ratios = spec.weights[:10] / spec.weights[0]
        z = np.abs(ratios - quad_ratios) / errs
        assert z.max() < 5.0

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 4.0])
    def test_matches_tensor_oracle(self, b):
        spec = lambda_spectrum(b)
        oracle = tensor_lambda_weights(b, spec.dim)
        assert np.abs(spec.weights - oracle).max() < 1e-12
        assert abs(holevo_bound(b) - tensor_holevo_chi(b, spec.dim)) < 1e-9

    def test_small_disk_concentrates_on_vacuum(self):
        spec = lambda_spectrum(1e-3)
        assert spec.weights[0] > 1.0 - 1e-5

    def test_coarse_quadrature_raises(self, monkeypatch):
        monkeypatch.setattr(holevo, "GL_ORDER", COARSE_ORDER)
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
        assert lambda_spectrum(HOLEVO_B_MAX).quad_error < 1e-6
        with pytest.raises(ValueError, match="supported window"):
            lambda_spectrum(HOLEVO_B_MAX + 0.01)


class TestCachedRules:
    @pytest.mark.parametrize("order", [holevo.GL_ORDER, 2 * holevo.GL_ORDER])
    @pytest.mark.parametrize("b", [0.7, 9.0])
    def test_weights_match_a_fresh_rule(self, b, order):
        dim = 60
        t, w = holevo._gauss_legendre(order)
        t = 0.25 * math.pi * (t + 1.0)
        weight = w * np.sin(2.0 * t) * (2.0 * t - np.sin(2.0 * t))
        expected = weight @ np.square(coherent_amplitudes(2.0 * b * np.cos(t), dim))
        assert np.array_equal(holevo._raw_weights(b, order, dim), expected)

    @pytest.mark.parametrize("order", [COARSE_ORDER, holevo.GL_ORDER, 2 * holevo.GL_ORDER])
    def test_rule_matches_high_precision(self, order):
        # leggauss itself misses these weights by 2.2e-11 (order 200) and 5.7e-10 (400)
        x, w = holevo._gauss_legendre(order)
        assert np.all(np.diff(x) > 0) and abs(w.sum() - 2.0) < 4e-15
        for i in sorted({0, 1, order - 2, order - 1, *range(0, order, 7)}):
            node, weight = mp_gauss_legendre(order, x[i])
            assert abs(float(x[i] - node)) < 2e-16
            assert abs(float(w[i] / weight - 1)) < 1e-11

    def test_unconverged_rule_raises(self, monkeypatch):
        monkeypatch.setattr(holevo, "NEWTON_MAX_STEPS", 2)
        with pytest.raises(QuadratureConvergenceError, match="unconverged"):
            holevo._gauss_legendre(holevo.GL_ORDER)

    def test_rule_is_read_only(self):
        for arr in holevo._rule(holevo.GL_ORDER):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("reverse", [False, True])
    def test_curve_matches_separate_bounds(self, reverse):
        grid = [0.5, 2.0, 6.5, 11.0]
        if reverse:
            grid = grid[::-1]
        holevo._rule.cache_clear()  # the curve's first radius builds both rules
        curve = holevo_curve(grid)
        assert curve.samples == [(b, holevo_bound(b)) for b in grid]


class TestEntropyAndBound:
    def test_entropy_of_uniform_weights(self):
        assert entropy_bits(np.full(16, 1.0 / 16)) == pytest.approx(4.0)
        assert entropy_bits(np.array([1.0, 0.0])) == 0.0

    def test_disk_weights_nearly_normalized(self):
        w = disk_state_weights(1.0, 30)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)

    def test_bound_is_positive_and_grows(self):
        chi1 = holevo_bound(1.0)
        chi2 = holevo_bound(2.0)
        assert 0.0 < chi1 < chi2

    def test_oracle_is_the_classical_entropy_gap(self):
        assert holevo_classical_limit() == pytest.approx(1.39257, abs=5e-6)

    def test_bound_increases_toward_classical_limit(self):
        # chi < chi_inf is a numerical observation, not a theorem
        limit = holevo_classical_limit()
        chis = [holevo_bound(b) for b in (1.0, 2.0, 4.0, 8.0, HOLEVO_B_MAX)]
        assert all(c2 > c1 for c1, c2 in zip(chis, chis[1:]))
        assert chis[-1] < limit

    @pytest.mark.parametrize("b", [3.0, 4.0, 5.0, 6.0])
    def test_gap_to_classical_limit_shrinks_like_inverse_radius(self, b):
        # measured ratios 0.527..0.552: a constant gap gives 1, a 1/b^2 gap 0.25
        limit = holevo_classical_limit()
        ratio = (limit - holevo_bound(2.0 * b)) / (limit - holevo_bound(b))
        assert 0.5 <= ratio <= 0.6

    def test_curve_collects_failures_without_aborting(self, monkeypatch):
        monkeypatch.setattr(holevo, "GL_ORDER", COARSE_ORDER)
        curve = holevo_curve([0.2, 4.0])
        assert [b for b, _ in curve.samples] == [0.2]
        assert len(curve.failures) == 1 and curve.failures[0][0] == 4.0

    def test_negative_chi_is_a_failure_in_bound_and_curve(self, monkeypatch):
        # a maximally mixed reference has more entropy than any spectrum
        monkeypatch.setattr(holevo, "disk_state_weights", lambda b, dim: np.full(dim, 1.0 / dim))
        with pytest.raises(QuadratureConvergenceError, match="negative"):
            holevo_bound(1.0)
        curve = holevo_curve([1.0])
        assert curve.samples == [] and curve.spectra == []
        assert curve.failures[0][0] == 1.0 and "negative" in curve.failures[0][1]


class TestOffDiagonalCheck:
    def test_consistent_with_diagonality(self):
        est = off_diagonal_check(0.5, 50_000, seed=3)
        assert est.max_abs < 5.0 * est.stderr

    def test_noise_shrinks_with_samples(self):
        # the reported entry can move between runs, so only the broad
        # scaling is asserted: more samples, smaller residual and error
        small = off_diagonal_check(0.5, 20_000, seed=11)
        large = off_diagonal_check(0.5, 80_000, seed=11)
        assert large.stderr < small.stderr
        assert large.max_abs < small.max_abs
        assert large.max_abs < 5.0 * large.stderr

    @pytest.mark.parametrize("samples", [1, 19_999, 20_000, 20_001, 100_000])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_column_reference(self, seed, samples):
        # same draws, other summation order: the estimates move by rounding only
        est = off_diagonal_check(0.5, samples, seed=seed)
        max_abs, stderr = column_off_diagonal_check(0.5, samples, seed=seed)
        assert est.max_abs == pytest.approx(max_abs, rel=1e-12, abs=0.0)
        if samples > 1:
            assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
        else:  # one sample has no spread: both read sqrt(rounding of E|x|^2 - |Ex|^2)
            assert max(est.stderr, stderr) <= math.sqrt(8 * np.finfo(float).eps) * max_abs

    def test_validation(self):
        with pytest.raises(ValueError):
            off_diagonal_check(0.0, 100)
