"""Tests for the LDP baseline mechanisms (repro.crypto.ldp)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.ldp import LdpConfig, LdpMechanism, clip_by_norm, gaussian_sigma
from repro.exceptions import ValidationError
from repro.fl.model import ModelParameters
from repro.utils.rng import spawn_rng


class TestClipping:
    def test_short_vectors_are_unchanged(self):
        vector = np.array([0.3, -0.4])
        assert np.array_equal(clip_by_norm(vector, 1.0), vector)

    def test_long_vectors_are_scaled_to_the_bound(self):
        vector = np.array([3.0, 4.0])
        clipped = clip_by_norm(vector, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        # Direction is preserved.
        assert np.allclose(clipped / np.linalg.norm(clipped), vector / np.linalg.norm(vector))

    def test_zero_vector_is_unchanged(self):
        assert np.array_equal(clip_by_norm(np.zeros(3), 1.0), np.zeros(3))

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValidationError):
            clip_by_norm(np.ones(2), 0.0)


class TestCalibration:
    def test_gaussian_sigma_decreases_with_epsilon(self):
        assert gaussian_sigma(2.0, 1e-5, 1.0) < gaussian_sigma(0.5, 1e-5, 1.0)

    def test_gaussian_sigma_scales_with_sensitivity(self):
        assert gaussian_sigma(1.0, 1e-5, 2.0) == pytest.approx(2 * gaussian_sigma(1.0, 1e-5, 1.0))

    def test_gaussian_sigma_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            gaussian_sigma(0.0, 1e-5, 1.0)
        with pytest.raises(ValidationError):
            gaussian_sigma(1.0, 2.0, 1.0)

    @pytest.mark.parametrize("epsilon, delta, sensitivity", [
        (1.0, 1e-5, 0.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0),
    ])
    def test_gaussian_sigma_rejects_each_edge(self, epsilon, delta, sensitivity):
        with pytest.raises(ValidationError):
            gaussian_sigma(epsilon, delta, sensitivity)

    def test_gaussian_sigma_is_the_classic_bound(self):
        assert gaussian_sigma(0.5, 1e-5, 3.0) == pytest.approx(3.0 * np.sqrt(2 * np.log(1.25e5)) / 0.5)

    def test_laplace_scale_is_the_l1_sensitivity_over_epsilon(self):
        assert LdpConfig(mechanism="laplace", epsilon=2.0, clip_norm=3.0).noise_scale(16) == 6.0

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            LdpConfig(epsilon=0.0)
        with pytest.raises(ValidationError):
            LdpConfig(delta=1.5)
        with pytest.raises(ValidationError):
            LdpConfig(clip_norm=0.0)
        with pytest.raises(ValidationError):
            LdpConfig(mechanism="staircase")

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_config_rejects_delta_at_either_end(self, delta):
        with pytest.raises(ValidationError, match="delta"):
            LdpConfig(delta=delta)

    def test_noise_scale_shrinks_with_larger_epsilon(self):
        loose = LdpConfig(epsilon=8.0).noise_scale(100)
        tight = LdpConfig(epsilon=0.5).noise_scale(100)
        assert loose < tight

    def test_laplace_scale_grows_with_dimension(self):
        config = LdpConfig(mechanism="laplace", epsilon=1.0)
        assert config.noise_scale(400) > config.noise_scale(100)


class TestMechanism:
    @pytest.fixture()
    def update(self):
        return ModelParameters.from_mapping({"w": np.linspace(-0.5, 0.5, 20)})

    def test_privatized_update_differs_from_original(self, update):
        mechanism = LdpMechanism(LdpConfig(epsilon=1.0, clip_norm=1.0))
        noisy = mechanism.privatize(update, "owner-0", 0)
        assert not np.allclose(noisy.to_vector(), update.to_vector(), atol=1e-9)

    def test_privatization_is_deterministic_per_owner_and_round(self, update):
        mechanism = LdpMechanism(LdpConfig(epsilon=1.0))
        a = mechanism.privatize(update, "owner-0", 3)
        b = mechanism.privatize(update, "owner-0", 3)
        assert np.allclose(a.to_vector(), b.to_vector(), atol=1e-9)

    def test_noise_differs_across_owners_and_rounds(self, update):
        mechanism = LdpMechanism(LdpConfig(epsilon=1.0))
        base = mechanism.privatize(update, "owner-0", 0).to_vector()
        assert not np.allclose(base, mechanism.privatize(update, "owner-1", 0).to_vector(), atol=1e-9)
        assert not np.allclose(base, mechanism.privatize(update, "owner-0", 1).to_vector(), atol=1e-9)

    def test_structure_is_preserved(self, update):
        mechanism = LdpMechanism(LdpConfig(epsilon=1.0))
        assert mechanism.privatize(update, "o", 0).shapes() == update.shapes()

    def test_smaller_epsilon_means_more_noise(self, update):
        rng_free = update.to_vector()
        tight = LdpMechanism(LdpConfig(epsilon=0.1)).privatize_vector(rng_free, "o", 0)
        loose = LdpMechanism(LdpConfig(epsilon=10.0)).privatize_vector(rng_free, "o", 0)
        clipped = clip_by_norm(rng_free, 1.0)
        assert np.linalg.norm(tight - clipped) > np.linalg.norm(loose - clipped)

    def test_updates_are_clipped_in_the_l2_norm(self):
        nearly_noiseless = LdpMechanism(LdpConfig(epsilon=1e9, clip_norm=1.0))
        noisy = nearly_noiseless.privatize_vector(np.array([3.0, 4.0, 0.0]), "owner-1", 0)
        assert np.allclose(noisy, [0.6, 0.8, 0.0], atol=1e-6)

    @pytest.mark.parametrize("mechanism", ["gaussian", "laplace"])
    def test_noise_is_drawn_from_the_mechanisms_own_stream(self, mechanism):
        config = LdpConfig(mechanism=mechanism, epsilon=2.0)
        noise = LdpMechanism(config).privatize_vector(np.zeros(6), "owner-1", 3)
        rng = spawn_rng("ldp", "owner-1", 3, mechanism)
        draw = rng.normal if mechanism == "gaussian" else rng.laplace
        assert np.array_equal(noise, draw(0.0, config.noise_scale(6), size=6))

    def test_laplace_mechanism_runs(self, update):
        mechanism = LdpMechanism(LdpConfig(epsilon=1.0, mechanism="laplace"))
        noisy = mechanism.privatize(update, "o", 0)
        assert np.all(np.isfinite(noisy.to_vector()))

    def test_aggregate_of_ldp_updates_is_noisier_than_secure_aggregation(self, update):
        # The core point of Section II.B: averaging LDP updates leaves residual
        # noise of order sigma/sqrt(n), while secure aggregation is exact.
        n_owners = 10
        mechanism = LdpMechanism(LdpConfig(epsilon=1.0, clip_norm=1.0))
        clipped = clip_by_norm(update.to_vector(), 1.0)
        noisy_mean = np.mean(
            [mechanism.privatize_vector(update.to_vector(), f"o{i}", 0) for i in range(n_owners)], axis=0
        )
        residual = np.linalg.norm(noisy_mean - clipped)
        assert residual > 1e-3
