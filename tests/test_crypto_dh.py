"""Tests for Diffie-Hellman key agreement (repro.crypto.dh)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import dh
from repro.crypto.dh import DHKeyPair, DHParameters, shared_secret, shared_secrets
from repro.crypto.groups import GroupParameters
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


# (bits, seed) of ``for_testing`` groups; ``bits`` sets q, so p has bits + 1
# bits.  They cover one-limb primes (p < 2**25), the 65-bit harness group,
# p just under R / 4 (25, 52 and 79 bits against R = 2**27, 2**54, 2**81: the
# exit subtract fires there), 5 to 20 limbs, and 512 bits.
KERNEL_GROUPS = (
    (8, "pin"), (16, "pin"), (24, "pin"), (51, "pin"), (64, "pin"), (78, "pin"),
    (128, 2), (208, 0), (256, 10), (512, 0),
)


@pytest.fixture(scope="module")
def kernel_params():
    # Safe-prime search is slow at 512 bits (seed 0 finds one in ~0.6 s, "pin" in
    # ~3.4 s): once per module, as set-up.
    return {group: DHParameters.for_testing(bits=group[0], seed=group[1]) for group in KERNEL_GROUPS}


def scalar_outcome(private_keys, public_keys, params):
    """Each lane's scalar ``shared_secret``, or ``None`` when any lane is refused."""
    try:
        return [
            shared_secret(DHKeyPair(params=params, private_key=own), other)
            for own, other in zip(private_keys, public_keys)
        ]
    except KeyExchangeError:
        return None


def lane_outcome(private_keys, public_keys, params):
    try:
        return list(shared_secrets(private_keys, public_keys, params))
    except KeyExchangeError:
        return None


class TestLaneKernel:
    """``power_many`` and ``shared_secrets`` are pinned to ``pow`` and ``shared_secret``."""

    # 512 bits costs ~0.25 s a call, so its edges are pinned by the parametrized
    # test below rather than drawn here; that keeps this property under 3 s.
    @settings(max_examples=25, deadline=None)
    @given(group=st.sampled_from(KERNEL_GROUPS[:-1]), data=st.data())
    def test_property_lanes_equal_the_scalar_path(self, kernel_params, group, data):
        params = kernel_params[group]
        p = params.group.prime
        # Edge bases 2, p - 2, p - 1 against edge exponents 2, p - 2 and short
        # ones (leading zero windows next to a full-width lane), plus drawn lanes
        # whose bases may lie outside [0, p).
        short = data.draw(st.integers(0, 2 ** data.draw(st.integers(0, p.bit_length() - 1))))
        edge = [(b, e) for b in (2, p - 2, p - 1) for e in (2, p - 2, short)]
        drawn = data.draw(st.lists(st.tuples(st.integers(-p, 2 * p), st.integers(0, p)), max_size=6))
        bases, exponents = zip(*edge, *drawn)
        assert params.group.power_many(bases, exponents) == [
            pow(b, e, p) for b, e in zip(bases, exponents)
        ]
        keys = st.integers(2, p - 2)
        private_keys = [2, p - 2, max(2, short % (p - 2))] + data.draw(st.lists(keys, max_size=4))
        public_keys = [p - 2, 2] + data.draw(st.lists(keys, min_size=len(private_keys) - 2,
                                                      max_size=len(private_keys) - 2))
        assert lane_outcome(private_keys, public_keys, params) == scalar_outcome(
            private_keys, public_keys, params
        )

    @pytest.mark.parametrize("group", KERNEL_GROUPS, ids=lambda group: f"q{group[0]}")
    def test_power_many_equals_pow_on_random_lanes(self, kernel_params, group):
        group = kernel_params[group].group
        p = group.prime
        rng = random.Random(p)
        edge = [(b, e) for b in (2, p - 2, p - 1) for e in (2, p - 2, 5, 2**64 + 1)]
        bases = [b for b, _ in edge] + [rng.randrange(p) for _ in range(300)]
        exponents = [e for _, e in edge] + [rng.randrange(p) for _ in range(300)]
        assert group.power_many(bases, exponents) == [
            pow(b, e, p) for b, e in zip(bases, exponents)
        ]

    @pytest.mark.parametrize("lanes", [1, 2, 7, 8, 9, 17])
    def test_shared_secrets_across_the_chunk_boundary(self, params, lanes, monkeypatch):
        # ``shared_secrets`` reads the chunk size per call: 8 lanes a chunk puts
        # these counts at the chunk size, one either side of it and two chunks on.
        monkeypatch.setattr(dh, "SECRET_LANES", 8)
        rng = random.Random(lanes)
        p = params.group.prime
        private_keys = [rng.randrange(2, p - 1) for _ in range(lanes)]
        public_keys = [params.group.power(params.group.generator, rng.randrange(2, p - 1))
                       for _ in range(lanes)]
        assert params.group.power_many(public_keys, private_keys) == [
            pow(b, e, p) for b, e in zip(public_keys, private_keys)
        ]
        assert lane_outcome(private_keys, public_keys, params) == scalar_outcome(
            private_keys, public_keys, params
        )

    def test_all_ones_limbs(self):
        # Below the top, every limb of 2**521 - 1 and of these bases is 2**27 - 1:
        # the largest products a row takes (with 30-bit limbs and no carry
        # between steps, twenty such limbs overflow a uint64 row).
        p = 2**521 - 1
        bases, exponents = [p - 1, p - 2, p - 3, 2], [p - 2, p - 1, 2**522 - 1, p - 2]
        assert GroupParameters(prime=p, generator=3).power_many(bases, exponents) == [
            pow(b, e, p) for b, e in zip(bases, exponents)
        ]

    def test_power_many_edges(self, params):
        group = params.group
        p = group.prime
        assert group.power_many([], []) == []
        assert group.power_many([0, 0, 5], [0, 7, 0]) == [1, 0, 1]
        bases, exponents = [p, p + 5, -1, -3, 3 * p - 2], [1, 3, 3, 2, p - 2]
        assert group.power_many(bases, exponents) == [pow(b, e, p) for b, e in zip(bases, exponents)]
        huge = GroupParameters(prime=2**13795 + 1, generator=2)  # 512 limbs: a row could overflow
        for group_, bases, exponents in ((group, [2], [-1]), (group, [2, 3], [1]), (huge, [2], [3])):
            with pytest.raises(ValidationError):
                group_.power_many(bases, exponents)


class TestOrderTwoKey:
    """``p - 1`` as a peer key gives a public secret and leaks the key's parity."""

    def test_scalar_rejects_p_minus_one_for_either_parity(self, params):
        p = params.group.prime
        for private_key in (3, 4):  # element p - 1, then 1
            with pytest.raises(KeyExchangeError, match="degenerate"):
                shared_secret(DHKeyPair(params=params, private_key=private_key), p - 1)

    @pytest.mark.parametrize("bad", ["zero", "one", "p", "p+5", "p-1"])
    def test_lane_path_rejects_a_bad_key_at_a_later_lane(self, params, bad):
        p = params.group.prime
        key = {"zero": 0, "one": 1, "p": p, "p+5": p + 5, "p-1": p - 1}[bad]
        private_keys = [DHKeyPair.generate(params, owner).private_key for owner in "abcd"]
        private_keys[2] |= 1  # odd: p - 1 raised to it is p - 1 itself
        public_keys = [DHKeyPair.generate(params, owner).public_key for owner in "efgh"]
        assert lane_outcome(private_keys, public_keys, params) is not None
        public_keys[2] = key
        with pytest.raises(KeyExchangeError):
            list(shared_secrets(private_keys, public_keys, params))
