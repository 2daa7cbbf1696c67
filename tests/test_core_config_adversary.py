"""Tests for the protocol configuration and adversarial behaviours."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adversary import AdversaryBehavior, apply_adversary
from repro.core.config import ProtocolConfig
from repro.exceptions import ConfigurationError, ValidationError
from repro.fl.model import ModelParameters


class TestProtocolConfig:
    def test_defaults_are_valid(self):
        config = ProtocolConfig()
        assert config.n_owners == 9
        assert 1 <= config.n_groups <= config.n_owners

    def test_rejects_single_owner(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(n_owners=1)

    def test_rejects_group_count_above_owner_count(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(n_owners=4, n_groups=5)

    def test_rejects_non_positive_rounds_epochs_lr(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(n_rounds=0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(local_epochs=0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(learning_rate=0.0)

    def test_rejects_negative_reward_pool(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(reward_pool=-1.0)

    def test_on_chain_params_contains_required_keys(self):
        params = ProtocolConfig(n_owners=5, n_groups=2).on_chain_params(model_dimension=100)
        for key in ("n_owners", "n_groups", "n_rounds", "permutation_seed", "precision_bits", "field_bits", "model_dimension"):
            assert key in params
        assert params["model_dimension"] == 100

    def test_on_chain_params_reflect_config(self):
        config = ProtocolConfig(n_owners=7, n_groups=3, n_rounds=4, permutation_seed=99)
        params = config.on_chain_params(10)
        assert params["n_owners"] == 7
        assert params["n_groups"] == 3
        assert params["n_rounds"] == 4
        assert params["permutation_seed"] == 99


class TestAdversaryBehavior:
    @pytest.fixture()
    def honest_model(self):
        return ModelParameters.from_mapping({"w": np.linspace(-1, 1, 10)})

    def test_honest_behaviour_is_identity(self, honest_model):
        behaviour = AdversaryBehavior(kind="honest")
        assert apply_adversary(honest_model, behaviour) is honest_model

    def test_scale_attack_multiplies_update(self, honest_model):
        tampered = apply_adversary(honest_model, AdversaryBehavior(kind="scale", magnitude=10.0))
        assert np.allclose(tampered.to_vector(), honest_model.to_vector() * 10.0)

    def test_zero_attack_produces_zero_update(self, honest_model):
        tampered = apply_adversary(honest_model, AdversaryBehavior(kind="zero"))
        assert not tampered.to_vector().any()

    def test_sign_flip_negates_update(self, honest_model):
        tampered = apply_adversary(honest_model, AdversaryBehavior(kind="sign_flip"))
        assert np.allclose(tampered.to_vector(), -honest_model.to_vector())

    def test_noise_attack_replaces_update(self, honest_model):
        tampered = apply_adversary(honest_model, AdversaryBehavior(kind="noise", magnitude=1.0, seed=3))
        assert not np.allclose(tampered.to_vector(), honest_model.to_vector())

    def test_noise_attack_is_deterministic(self, honest_model):
        behaviour = AdversaryBehavior(kind="noise", magnitude=1.0, seed=3)
        a = apply_adversary(honest_model, behaviour)
        b = apply_adversary(honest_model, behaviour)
        assert np.allclose(a.to_vector(), b.to_vector(), atol=1e-9)

    def test_structure_is_preserved(self, honest_model):
        tampered = apply_adversary(honest_model, AdversaryBehavior(kind="noise", magnitude=2.0))
        assert tampered.shapes() == honest_model.shapes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            AdversaryBehavior(kind="explode")

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValidationError):
            AdversaryBehavior(kind="scale", magnitude=-1.0)
