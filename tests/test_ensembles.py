import math

import numpy as np
import pytest

from cvpqc import (
    ChannelSpec,
    CutoffPolicy,
    circle_mixture,
    maximally_mixed,
    phi_n,
    poisson_tail,
)
from cvpqc import ensembles
from conftest import TWO_PI, displacement_conjugate, literal_phi_n, projector_average


def circle_points(r, p, theta=0.0):
    """Amplitudes r e^(i (theta + 2 pi q / p)), q = 1..p."""
    return r * np.exp(1j * (theta + TWO_PI * np.arange(1, p + 1) / p))


class TestSpecs:
    def test_operation_count(self):
        assert ChannelSpec(b=2.0, n_circles=4).operations == 10
        assert ChannelSpec(b=2.0, n_circles=1).operations == 1

    def test_circle_radii_are_equally_spaced(self):
        spec = ChannelSpec(b=3.0, n_circles=6)
        assert [spec.radius(p) for p in (1, 6)] == [0.5, 3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelSpec(b=0.0, n_circles=2)
        with pytest.raises(ValueError):
            ChannelSpec(b=1.0, n_circles=0)


class TestCircleMixture:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_matches_projector_average(self, p):
        # same-radius coherent states at the canonical angles
        r = 1.2
        cutoff = CutoffPolicy(max_radius=2.0, tail_budget=1e-12)
        oracle = projector_average(circle_points(r, p), cutoff.dim)
        np.testing.assert_allclose(circle_mixture(p, r, cutoff), oracle, atol=1e-9)

    def test_off_stripe_entries_are_exact_zeros(self):
        p = 4
        m = circle_mixture(p, 1.0, CutoffPolicy(max_radius=1.5))
        idx = np.arange(m.shape[0])
        off = (idx[:, None] - idx[None, :]) % p != 0
        assert np.all(m[off] == 0.0)

    def test_is_a_state(self):
        m = circle_mixture(3, 1.0, CutoffPolicy(max_radius=1.5, tail_budget=1e-12))
        assert m.dtype == np.float64
        assert np.trace(m) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(m).min() > -1e-12


class TestMaximallyMixed:
    def test_diagonal_closed_form(self):
        b = 1.4
        cutoff = CutoffPolicy(max_radius=b, tail_budget=1e-12)
        unit = maximally_mixed(b, cutoff)
        assert unit.dtype == np.float64
        expected = [poisson_tail(n, b * b) / (b * b) for n in range(cutoff.dim)]
        np.testing.assert_allclose(np.diag(unit), expected, atol=1e-13)

    def test_first_entry_identity(self):
        # tail(0, b^2)/b^2 = (1 - e^(-b^2))/b^2
        b = 0.9
        cutoff = CutoffPolicy(max_radius=b)
        first = maximally_mixed(b, cutoff)[0, 0]
        assert first == pytest.approx((1.0 - math.exp(-b * b)) / (b * b), abs=1e-13)

    def test_trace_deficit_within_budget(self):
        cutoff = CutoffPolicy(max_radius=2.0, tail_budget=1e-10)
        # diagonal truncates tails of every Poisson weight up to b^2
        assert 1.0 - np.trace(maximally_mixed(2.0, cutoff)) < cutoff.dim * 1e-10


class TestPhiN:
    def test_matches_projector_average_over_all_operations(self):
        b, n = 1.5, 3
        spec = ChannelSpec(b=b, n_circles=n)
        cutoff = CutoffPolicy(max_radius=b, tail_budget=1e-12)
        alphas = np.concatenate([circle_points(spec.radius(p), p) for p in range(1, n + 1)])
        assert len(alphas) == spec.operations
        mix = phi_n(spec, cutoff)
        assert mix.dtype == np.float64
        np.testing.assert_allclose(mix, projector_average(alphas, cutoff.dim), atol=1e-12)

    def test_single_circle_reduces_to_one_state(self):
        b = 1.0
        cutoff = CutoffPolicy(max_radius=b, tail_budget=1e-12)
        one = phi_n(ChannelSpec(b=b, n_circles=1), cutoff)
        np.testing.assert_allclose(one, projector_average([b], cutoff.dim), atol=1e-13)

    @pytest.mark.parametrize(
        "n_of_dim",
        [lambda d: 1, lambda d: d - 2, lambda d: d - 1, lambda d: d, lambda d: d + 1,
         lambda d: 320],
        ids=["1", "dim-2", "dim-1", "dim", "dim+1", "320"],
    )
    @pytest.mark.parametrize("b", [0.5, 2.0, 4.0])
    def test_matches_literal_per_circle_sum(self, b, n_of_dim):
        # circles p >= dim meet the block on its diagonal only
        cutoff = CutoffPolicy(max_radius=b, tail_budget=1e-12)
        spec = ChannelSpec(b=b, n_circles=n_of_dim(cutoff.dim))
        np.testing.assert_allclose(
            phi_n(spec, cutoff), literal_phi_n(spec, cutoff), rtol=0.0, atol=1e-15
        )

    def test_builds_only_circles_that_reach_the_block(self, monkeypatch):
        calls = []

        def counting(p, radius, cutoff):
            calls.append(p)
            return circle_mixture(p, radius, cutoff)

        monkeypatch.setattr(ensembles, "circle_mixture", counting)
        cutoff = CutoffPolicy(max_radius=2.0, tail_budget=1e-12)
        phi_n(ChannelSpec(b=2.0, n_circles=320), cutoff)
        assert 0 < len(calls) <= cutoff.dim - 1


class TestEncrypt:
    def test_matches_displaced_projector_average(self):
        # the channel output D(beta) Phi_N D^dag(beta) against the mixture of
        # the displaced states alpha + beta
        b, n = 1.5, 4
        beta = 0.5 * np.exp(1j * math.pi / 3)
        spec = ChannelSpec(b=b, n_circles=n)
        cutoff = CutoffPolicy(max_radius=b + abs(beta), tail_budget=1e-12)
        alphas = np.concatenate(
            [circle_points(spec.radius(p), p) for p in range(1, n + 1)]
        )
        np.testing.assert_allclose(
            displacement_conjugate(phi_n(spec, cutoff), beta),
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
            np.sort(np.linalg.eigvalsh(circle_mixture(p, r, cutoff))),
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
            circle_mixture(p, r, cutoff),
            atol=1e-12,
        )
