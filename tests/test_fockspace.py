import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from cvpqc import CutoffPolicy, circle_mixture, fockspace, hs_distance_numeric, poisson_tail
from cvpqc.fockspace import coherent_amplitudes, disk_cutoff
from cvpqc.holevo import entropy_bits
from conftest import coherent_state, displacement_matrix, mp_poisson_tail


CUTOFFS = [
    CutoffPolicy(r, budget)
    for r in (1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 13.0, 26.0, 28.0)
    for budget in (1e-10, 1e-12, 1e-16, 0.6, 0.9, 0.99)
] + [disk_cutoff(b) for b in (1e-150, 2e-37, 1e-6, 0.5)]


class TestCutoffPolicy:
    def test_dim_is_minimal_for_budget(self):
        # against the incomplete gamma oracle, not the production tail
        for pol in CUTOFFS:
            lam, d = pol.max_radius**2, pol.dim
            where = f"r={pol.max_radius}, budget={pol.tail_budget}, dim={d}"
            assert mp_poisson_tail(d - 1, lam) < pol.tail_budget, where
            assert d == 1 or mp_poisson_tail(d - 2, lam) >= pol.tail_budget, where

    def test_dim_makes_one_tail_call(self, monkeypatch):
        calls = []

        def counted(n, lam):
            calls.append(lam)
            return poisson_tail(n, lam)

        monkeypatch.setattr(fockspace, "poisson_tail", counted)
        fockspace._cutoff_dim.cache_clear()
        assert CutoffPolicy(13.0, 1e-12).dim == 269
        assert len(calls) == 1
        assert CutoffPolicy(13.0, 1e-12).dim == 269  # a second policy, the same fields
        assert len(calls) == 1

    def test_mean_past_the_tail_window_raises(self):
        # 38^2 = 1444 > POISSON_LAM_MAX: no cutoff is truncated silently
        with pytest.raises(ValueError):
            CutoffPolicy(max_radius=38.0).dim

    def test_validation(self):
        for radius in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                CutoffPolicy(max_radius=radius)
        with pytest.raises(ValueError):
            CutoffPolicy(max_radius=1.0, tail_budget=0.0)

    def test_dim_does_not_decrease_with_radius(self):
        # e^(-r^2) underflows from r ~ 26.6 on; a tail started there made
        # the dimension 908, 747 and 785 at r = 27, 27.3 and 28
        dims = [CutoffPolicy(max_radius=r).dim for r in (26.0, 26.6, 27.0, 27.3, 28.0)]
        assert dims == sorted(dims)
        assert dims[-1] > 28.0**2


class TestCoherentStates:
    def test_amplitudes_are_poisson_weighted(self):
        c = coherent_amplitudes(1.3, 25)
        assert c.dtype == np.float64
        expected = scipy.stats.poisson.pmf(np.arange(25), 1.3**2)
        np.testing.assert_allclose(c * c, expected, rtol=1e-10)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            coherent_amplitudes(-0.1, 5)
        with pytest.raises(ValueError):
            coherent_amplitudes(np.array([0.5, -0.1]), 5)

    def test_array_gives_one_row_per_radius(self):
        r = np.array([0.0, 0.3, 1.7, 4.2])
        rows = coherent_amplitudes(r, 30)
        assert rows.shape == (4, 30)
        for ri, row in zip(r, rows):
            assert np.array_equal(row, coherent_amplitudes(float(ri), 30))
        assert coherent_amplitudes(r[:0], 30).shape == (0, 30)

    @pytest.mark.parametrize("r", [1e-3, 0.5, 2.0, 10.0])
    def test_amplitudes_match_high_precision(self, r):
        # compared wherever the 40-digit amplitude is a normal double
        dim = 179
        with mpmath.workdps(40):
            mr = mpmath.mpf(r)
            ref = np.array([float(mpmath.exp(-mr * mr / 2) * mr**n / mpmath.sqrt(mpmath.factorial(n)))
                            for n in range(dim)])
        normal = ref >= np.finfo(float).tiny
        assert normal[:2].all()
        np.testing.assert_allclose(coherent_amplitudes(r, dim)[normal], ref[normal], rtol=1e-14, atol=0.0)

    def test_amplitude_array_is_the_only_allocation(self):
        # the amplitude blocks of hs2_exact and phi_n dominate their memory
        r = np.linspace(0.1, 10.0, 10_000)
        tracemalloc.start()
        try:
            c = coherent_amplitudes(r, 179)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * c.nbytes

    def test_phase_oracle_matches_real_amplitudes(self):
        # the scipy log-amplitude oracle at angle theta is the recurrence's
        # real amplitudes times e^(i n theta)
        r, theta, dim = 2.0, math.pi / 3, 30
        phases = np.exp(1j * theta * np.arange(dim))
        np.testing.assert_allclose(
            coherent_state(r * np.exp(1j * theta), dim),
            coherent_amplitudes(r, dim) * phases,
            rtol=1e-13, atol=1e-300,
        )

    def test_projector_is_rank_one_state(self):
        # one state on the circle: the projector onto |r>
        rho = circle_mixture(1, 1.0, CutoffPolicy(max_radius=1.5).dim)
        w = np.linalg.eigvalsh(rho)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-9)
        assert w[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.abs(w[:-1]).max() < 1e-12


class TestDisplacement:
    # the displacement unitary is a test oracle (criterion 3, TestEncrypt)
    def test_unitarity(self):
        d = displacement_matrix(0.7 * np.exp(1j * math.pi / 4), 40)
        np.testing.assert_allclose(d @ d.conj().T, np.eye(40), atol=1e-12)

    def test_matches_scipy_expm(self):
        beta = 0.9 * np.exp(1.1j)
        dim = 30
        n = np.sqrt(np.arange(1, dim))
        k = np.diag(beta * n, -1) - np.diag(np.conj(beta) * n, 1)
        np.testing.assert_allclose(
            displacement_matrix(beta, dim), scipy.linalg.expm(k), atol=1e-12
        )

    def test_vacuum_maps_to_coherent_state(self):
        beta = 0.8 * np.exp(2.0j)
        cutoff = CutoffPolicy(max_radius=2.5, tail_budget=1e-12)
        col = displacement_matrix(beta, cutoff.dim)[:, 0]
        np.testing.assert_allclose(col, coherent_state(beta, cutoff.dim), atol=1e-8)


class TestHsDistance:
    def test_symmetry_and_identity(self, rng):
        dim = 8
        a = rng.normal(size=(dim, dim))
        a = (a + a.T) / 2
        b = rng.normal(size=(dim, dim))
        b = (b + b.T) / 2
        assert hs_distance_numeric(a, a) == 0.0
        assert hs_distance_numeric(a, b) == pytest.approx(hs_distance_numeric(b, a))

    def test_triangle_inequality(self, rng):
        dim = 6
        ops = []
        for _ in range(3):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            ops.append((m + m.conj().T) / 2)
        a, b, c = ops
        assert hs_distance_numeric(a, c) <= (
            hs_distance_numeric(a, b) + hs_distance_numeric(b, c) + 1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_distance_numeric(np.eye(3), np.eye(4))


class TestEntropy:
    # entropy_bits of a state's eigenvalues is its von Neumann entropy
    def test_pure_state_zero(self):
        rho = circle_mixture(1, 1.0, CutoffPolicy(max_radius=1.5).dim)
        assert entropy_bits(np.linalg.eigvalsh(rho)) == pytest.approx(0.0, abs=1e-8)

    def test_maximally_mixed_qudit(self):
        d = 8
        assert entropy_bits(np.linalg.eigvalsh(np.eye(d) / d)) == pytest.approx(3.0)
