import math

import mpmath
import numpy as np
import pytest

from cvpqc import (
    CutoffPolicy,
    circle_mixture,
    maximally_mixed,
    phi_n,
    poisson_tail,
)
from cvpqc import ensembles
from cvpqc.distances import cross_bessel_sum
from cvpqc.fockspace import disk_cutoff
from conftest import (
    TWO_PI,
    displacement_conjugate,
    literal_phi_n,
    masked_circle_mixture,
    projector_average,
)


def circle_points(r, p, theta=0.0):
    """Amplitudes r e^(i (theta + 2 pi q / p)), q = 1..p."""
    return r * np.exp(1j * (theta + TWO_PI * np.arange(1, p + 1) / p))


class TestCircleMixture:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_matches_projector_average(self, p):
        # same-radius coherent states at the canonical angles
        r = 1.2
        cutoff = CutoffPolicy(max_radius=2.0, tail_budget=1e-12)
        oracle = projector_average(circle_points(r, p), cutoff.dim)
        np.testing.assert_allclose(circle_mixture(p, r, cutoff.dim), oracle, atol=1e-9)

    @pytest.mark.parametrize("r", [2.5, 10.0])
    @pytest.mark.parametrize("p_of_dim", [lambda d: 1, lambda d: 3, lambda d: d - 1,
                                          lambda d: d, lambda d: 501],
                             ids=["1", "3", "dim-1", "dim", "501"])
    def test_equals_masked_outer_product(self, p_of_dim, r):
        # one circle's residue rows: each entry is one product c_m c_n plus exact
        # zeros, so the Gram route is bit-identical to the masked outer product
        cutoff = disk_cutoff(10.0)
        p = p_of_dim(cutoff.dim)
        got = circle_mixture(p, r, cutoff.dim)
        expected = masked_circle_mixture(p, r, cutoff.dim)
        assert np.array_equal(got, expected)  # off-stripe entries too: exact zeros

    def test_huge_phase_count_is_the_diagonal(self):
        # no stripe of p >= dim but the diagonal fits in the block
        cutoff = disk_cutoff(2.0)
        assert np.array_equal(circle_mixture(10**20, 1.0, cutoff.dim),
                              masked_circle_mixture(cutoff.dim, 1.0, cutoff.dim))

    def test_off_stripe_entries_are_exact_zeros(self):
        p = 4
        m = circle_mixture(p, 1.0, CutoffPolicy(max_radius=1.5).dim)
        idx = np.arange(m.shape[0])
        off = (idx[:, None] - idx[None, :]) % p != 0
        assert np.all(m[off] == 0.0)

    def test_is_a_state(self):
        m = circle_mixture(3, 1.0, CutoffPolicy(max_radius=1.5, tail_budget=1e-12).dim)
        assert m.dtype == np.float64
        assert np.trace(m) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(m).min() > -1e-12


class TestMaximallyMixed:
    def test_diagonal_closed_form(self):
        b = 1.4
        cutoff = CutoffPolicy(max_radius=b, tail_budget=1e-12)
        unit = maximally_mixed(b, cutoff.dim)
        assert unit.dtype == np.float64
        expected = [poisson_tail(n, b * b) / (b * b) for n in range(cutoff.dim)]
        np.testing.assert_allclose(np.diag(unit), expected, atol=1e-13)

    @pytest.mark.parametrize("b", [1e-6, 1e-2, 0.5, 2.0, 10.0, 13.0])
    @pytest.mark.parametrize("cutoff", ["disk", "holevo"])
    def test_weights_match_incomplete_gamma(self, b, cutoff):
        # the distance cutoff, and the Holevo one at radius 2b (dim 849 at b = 13);
        # compared wherever the 50-digit weight is a normal double
        dim = (disk_cutoff(b) if cutoff == "disk" else CutoffPolicy(max_radius=2.0 * b)).dim
        with mpmath.workdps(50):
            lam = mpmath.mpf(b) ** 2
            ref = np.array([float(mpmath.gammainc(n + 1, 0, lam, regularized=True) / lam)
                            for n in range(dim)])
        normal = ref >= np.finfo(float).tiny
        assert normal[0]
        got = ensembles.disk_state_weights(b, dim)
        np.testing.assert_allclose(got[normal], ref[normal], rtol=2e-13, atol=0.0)

    def test_first_entry_identity(self):
        # tail(0, b^2)/b^2 = (1 - e^(-b^2))/b^2
        b = 0.9
        cutoff = CutoffPolicy(max_radius=b)
        first = maximally_mixed(b, cutoff.dim)[0, 0]
        assert first == pytest.approx((1.0 - math.exp(-b * b)) / (b * b), abs=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b", [0.0, 1e-170, math.nan])
    def test_radius_below_b_min_raises(self, b):
        # below B_MIN b^2 underflows: the disk weights raise rather than return NaN
        with pytest.raises(ValueError, match="b must be positive and at least 1e-150"):
            ensembles.disk_state_weights(b, 4)
        with pytest.raises(ValueError):
            maximally_mixed(b, disk_cutoff(b).dim)
        with pytest.raises(ValueError):
            cross_bessel_sum(b, 1.0)

    def test_trace_deficit_within_budget(self):
        cutoff = CutoffPolicy(max_radius=2.0, tail_budget=1e-10)
        # diagonal truncates tails of every Poisson weight up to b^2
        assert 1.0 - np.trace(maximally_mixed(2.0, cutoff.dim)) < cutoff.dim * 1e-10


class TestPhiN:
    def test_matches_projector_average_over_all_operations(self):
        b, n = 1.5, 3
        cutoff = CutoffPolicy(max_radius=b, tail_budget=1e-12)
        alphas = np.concatenate([circle_points(p * b / n, p) for p in range(1, n + 1)])
        assert len(alphas) == n * (n + 1) // 2
        mix = phi_n(b, n, cutoff.dim)
        assert mix.dtype == np.float64
        np.testing.assert_allclose(mix, projector_average(alphas, cutoff.dim), atol=1e-12)

    def test_single_circle_reduces_to_one_state(self):
        b = 1.0
        cutoff = CutoffPolicy(max_radius=b, tail_budget=1e-12)
        one = phi_n(b, 1, cutoff.dim)
        np.testing.assert_allclose(one, projector_average([b], cutoff.dim), atol=1e-13)

    @pytest.mark.parametrize(
        "n_of_dim",
        [lambda d: 1, lambda d: d - 2, lambda d: d - 1, lambda d: d, lambda d: d + 1,
         lambda d: 320, lambda d: 2000],
        ids=["1", "dim-2", "dim-1", "dim", "dim+1", "320", "2000"],
    )
    @pytest.mark.parametrize("b", [0.5, 2.0, 4.0, 7.0, 10.0])
    def test_matches_literal_per_circle_sum(self, b, n_of_dim):
        # circles p >= dim meet the block on its diagonal only; at b = 7 and 10
        # (dim 107 and 179) the residue rows fill 2 and 6 blocks of GRAM_BLOCK_BYTES
        cutoff = CutoffPolicy(max_radius=b, tail_budget=1e-12)
        n = n_of_dim(cutoff.dim)
        np.testing.assert_allclose(
            phi_n(b, n, cutoff.dim), literal_phi_n(b, n, cutoff.dim), rtol=0.0, atol=1e-15
        )

    def test_builds_only_circles_that_reach_the_block(self, monkeypatch):
        # the circles handed to the residue-row Gram product, each as dense rows
        built, gram = [], ensembles._stripe_gram

        def counting(circles, amp):
            built.extend(circles)
            return gram(circles, amp)

        monkeypatch.setattr(ensembles, "_stripe_gram", counting)
        cutoff = CutoffPolicy(max_radius=2.0, tail_budget=1e-12)
        phi_n(2.0, 320, cutoff.dim)
        assert 0 < len(built) <= cutoff.dim - 1

    def test_validation(self):
        cutoff = CutoffPolicy(max_radius=1.0)
        with pytest.raises(ValueError, match="b must be positive, got 0.0"):
            phi_n(0.0, 2, cutoff.dim)
        with pytest.raises(ValueError, match="N must be >= 1, got 0"):
            phi_n(1.0, 0, cutoff.dim)


class TestEncrypt:
    def test_matches_displaced_projector_average(self):
        # the channel output D(beta) Phi_N D^dag(beta) against the mixture of
        # the displaced states alpha + beta
        b, n = 1.5, 4
        beta = 0.5 * np.exp(1j * math.pi / 3)
        cutoff = CutoffPolicy(max_radius=b + abs(beta), tail_budget=1e-12)
        alphas = np.concatenate([circle_points(p * b / n, p) for p in range(1, n + 1)])
        np.testing.assert_allclose(
            displacement_conjugate(phi_n(b, n, cutoff.dim), beta),
            projector_average(alphas + beta, cutoff.dim),
            atol=1e-7,
        )


class TestPhaseShiftEnsemble:
    def test_spectrum_matches_rotated_mixture(self):
        # the canonical circle mixture is unitarily equivalent to the mixture
        # actually produced at the input's angle: same eigenvalue multiset
        r, theta, p = 1.1, 0.7, 5
        cutoff = CutoffPolicy(max_radius=2.0)
        rotated = projector_average(circle_points(r, p, theta), cutoff.dim)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(circle_mixture(p, r, cutoff.dim))),
            np.sort(np.linalg.eigvalsh(rotated)),
            atol=1e-10,
        )

    def test_rotation_angle_inverts_input_phase(self):
        # the number-diagonal rotation by -theta, e^(-i n theta), maps the
        # mixture at the input's angle theta onto the canonical one
        r, theta, p = 0.5, 1.3, 3
        cutoff = CutoffPolicy(max_radius=1.0)
        u = np.exp(-1j * theta * np.arange(cutoff.dim))
        rotated = projector_average(circle_points(r, p, theta), cutoff.dim)
        np.testing.assert_allclose(
            u[:, None] * rotated * u.conj()[None, :],
            circle_mixture(p, r, cutoff.dim),
            atol=1e-12,
        )
