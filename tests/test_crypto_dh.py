"""Tests for Diffie-Hellman key agreement (repro.crypto.dh)."""

from __future__ import annotations

import pytest

from repro.crypto.dh import DHKeyPair, DHParameters, shared_secret
from repro.exceptions import KeyExchangeError, ValidationError


@pytest.fixture(scope="module")
def params():
    return DHParameters.for_testing(bits=64, seed="dh-tests")


class TestDHKeyPair:
    def test_public_key_derived_from_private(self, params):
        keypair = DHKeyPair.generate(params, "alice")
        expected = params.group.power(params.group.generator, keypair.private_key)
        assert keypair.public_key == expected

    def test_generation_is_deterministic_per_owner(self, params):
        assert DHKeyPair.generate(params, "alice").private_key == DHKeyPair.generate(params, "alice").private_key

    def test_different_owners_get_different_keys(self, params):
        assert DHKeyPair.generate(params, "alice").public_key != DHKeyPair.generate(params, "bob").public_key

    def test_different_seeds_give_different_keys(self, params):
        assert (
            DHKeyPair.generate(params, "alice", seed=0).private_key
            != DHKeyPair.generate(params, "alice", seed=1).private_key
        )

    def test_mismatched_public_key_rejected(self, params):
        keypair = DHKeyPair.generate(params, "alice")
        with pytest.raises(KeyExchangeError):
            DHKeyPair(params=params, private_key=keypair.private_key, public_key=keypair.public_key + 1)

    def test_private_key_out_of_range_rejected(self, params):
        with pytest.raises(ValidationError):
            DHKeyPair(params=params, private_key=1)

    def test_default_params_use_2048_bit_group(self):
        assert DHParameters.default().group.bit_length == 2048


class TestSharedSecret:
    def test_symmetry(self, params):
        alice = DHKeyPair.generate(params, "alice")
        bob = DHKeyPair.generate(params, "bob")
        assert shared_secret(alice, bob.public_key) == shared_secret(bob, alice.public_key)

    def test_32_byte_output(self, params):
        alice = DHKeyPair.generate(params, "alice")
        bob = DHKeyPair.generate(params, "bob")
        assert len(shared_secret(alice, bob.public_key)) == 32

    def test_different_pairs_have_different_secrets(self, params):
        alice = DHKeyPair.generate(params, "alice")
        bob = DHKeyPair.generate(params, "bob")
        carol = DHKeyPair.generate(params, "carol")
        assert shared_secret(alice, bob.public_key) != shared_secret(alice, carol.public_key)

    def test_rejects_public_key_outside_group(self, params):
        alice = DHKeyPair.generate(params, "alice")
        with pytest.raises(KeyExchangeError):
            shared_secret(alice, params.group.prime + 5)

    def test_rejects_degenerate_public_key(self, params):
        alice = DHKeyPair.generate(params, "alice")
        with pytest.raises(KeyExchangeError):
            shared_secret(alice, 1)

    def test_works_on_production_size_group(self):
        big = DHParameters.default()
        alice = DHKeyPair.generate(big, "alice")
        bob = DHKeyPair.generate(big, "bob")
        assert shared_secret(alice, bob.public_key) == shared_secret(bob, alice.public_key)
