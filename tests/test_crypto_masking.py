"""Tests for pairwise masking and secure aggregation (repro.crypto.masking)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.dh import DHKeyPair, DHParameters, shared_secret
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.masking import MaskedUpdate, PairwiseMasker, SecureAggregator, net_masks
from repro.crypto.prng import expand_mask
from repro.exceptions import MaskingError, ValidationError


@pytest.fixture(scope="module")
def dh_params():
    return DHParameters.for_testing(bits=64, seed="masking-tests")


def _build_cohort(dh_params, owner_ids, dimension, seed=0):
    """Key pairs, public keys, and deterministic weight vectors for a cohort."""
    keypairs = {owner: DHKeyPair.generate(dh_params, owner, seed=seed) for owner in owner_ids}
    public_keys = {owner: keypair.public_key for owner, keypair in keypairs.items()}
    rng = np.random.default_rng(42)
    weights = {owner: rng.normal(scale=2.0, size=dimension) for owner in owner_ids}
    return keypairs, public_keys, weights


def _masked_updates(dh_params, owner_ids, dimension, round_number=0, codec=None):
    codec = codec or FixedPointCodec()
    keypairs, public_keys, weights = _build_cohort(dh_params, owner_ids, dimension)
    updates = []
    for owner in owner_ids:
        masker = PairwiseMasker(owner, keypairs[owner], public_keys, codec=codec)
        updates.append(masker.mask(weights[owner], round_number))
    return updates, weights, codec


class TestPairwiseMasker:
    def test_masks_cancel_in_the_sum(self, dh_params):
        owners = ["a", "b", "c"]
        updates, weights, codec = _masked_updates(dh_params, owners, dimension=50)
        aggregator = SecureAggregator(codec)
        total = aggregator.aggregate_sum(updates)
        expected = np.sum([weights[o] for o in owners], axis=0)
        assert np.allclose(total, expected, atol=len(owners) * 2.0 / codec.scale)

    def test_mean_matches_plain_fedavg(self, dh_params):
        owners = ["a", "b", "c", "d", "e"]
        updates, weights, codec = _masked_updates(dh_params, owners, dimension=30)
        mean = SecureAggregator(codec).aggregate_mean(updates)
        expected = np.mean([weights[o] for o in owners], axis=0)
        assert np.allclose(mean, expected, atol=2.0 / codec.scale)

    def test_single_masked_update_is_not_the_plain_encoding(self, dh_params):
        owners = ["a", "b", "c"]
        updates, weights, codec = _masked_updates(dh_params, owners, dimension=40)
        plain = codec.encode(weights["a"])
        masked = next(u for u in updates if u.owner_id == "a").payload
        assert not np.array_equal(masked, plain)

    def test_two_party_masking_works(self, dh_params):
        owners = ["a", "b"]
        updates, weights, codec = _masked_updates(dh_params, owners, dimension=10)
        total = SecureAggregator(codec).aggregate_sum(updates)
        assert np.allclose(total, weights["a"] + weights["b"], atol=4.0 / codec.scale)

    def test_masks_differ_per_round(self, dh_params):
        owners = ["a", "b"]
        keypairs, public_keys, weights = _build_cohort(dh_params, owners, 20)
        masker = PairwiseMasker("a", keypairs["a"], public_keys)
        round0 = masker.mask(weights["a"], 0).payload
        round1 = masker.mask(weights["a"], 1).payload
        assert not np.array_equal(round0, round1)

    def test_missing_participant_breaks_cancellation(self, dh_params):
        owners = ["a", "b", "c"]
        updates, weights, codec = _masked_updates(dh_params, owners, dimension=25)
        partial_sum = SecureAggregator(codec).aggregate_sum(updates[:2])
        expected = weights["a"] + weights["b"]
        assert not np.allclose(partial_sum, expected, atol=1e-3)

    def test_excludes_self_from_peer_keys(self, dh_params):
        owners = ["a", "b"]
        keypairs, public_keys, _ = _build_cohort(dh_params, owners, 5)
        masker = PairwiseMasker("a", keypairs["a"], public_keys)
        assert masker.peers == ["b"]

    def test_group_cohorts_are_independent(self, dh_params):
        # Masks shared within group {a, b} must cancel without involving group {c, d}.
        owners = ["a", "b", "c", "d"]
        keypairs, public_keys, weights = _build_cohort(dh_params, owners, 15)
        codec = FixedPointCodec()
        group_one = ["a", "b"]
        updates = []
        for owner in group_one:
            cohort = {peer: public_keys[peer] for peer in group_one}
            masker = PairwiseMasker(owner, keypairs[owner], cohort, codec=codec)
            updates.append(masker.mask(weights[owner], 0))
        total = SecureAggregator(codec).aggregate_sum(updates)
        assert np.allclose(total, weights["a"] + weights["b"], atol=4.0 / codec.scale)


class TestMaskedUpdateValidation:
    def test_payload_must_be_flat(self):
        with pytest.raises(ValidationError):
            MaskedUpdate(owner_id="a", round_number=0, payload=np.zeros((2, 2), dtype=np.uint64))

    def test_aggregator_rejects_empty_set(self):
        with pytest.raises(MaskingError):
            SecureAggregator().aggregate_sum([])

    def test_aggregator_rejects_mixed_rounds(self, dh_params):
        updates, _, codec = _masked_updates(dh_params, ["a", "b"], dimension=5, round_number=0)
        other, _, _ = _masked_updates(dh_params, ["a", "b"], dimension=5, round_number=1)
        with pytest.raises(MaskingError):
            SecureAggregator(codec).aggregate_sum([updates[0], other[1]])

    def test_aggregator_rejects_duplicate_owner(self, dh_params):
        updates, _, codec = _masked_updates(dh_params, ["a", "b"], dimension=5)
        with pytest.raises(MaskingError):
            SecureAggregator(codec).aggregate_sum([updates[0], updates[0]])

    def test_aggregator_rejects_mismatched_lengths(self, dh_params):
        updates_a, _, codec = _masked_updates(dh_params, ["a", "b"], dimension=5)
        updates_b, _, _ = _masked_updates(dh_params, ["c", "d"], dimension=7)
        with pytest.raises(MaskingError):
            SecureAggregator(codec).aggregate_sum([updates_a[0], updates_b[0]])


class TestMaskingProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=20),
    )
    def test_property_cancellation_for_any_cohort(self, n_owners, dimension, round_number):
        dh_params = DHParameters.for_testing(bits=48, seed="mask-prop")
        owners = [f"owner-{i}" for i in range(n_owners)]
        codec = FixedPointCodec()
        keypairs = {o: DHKeyPair.generate(dh_params, o) for o in owners}
        public_keys = {o: kp.public_key for o, kp in keypairs.items()}
        rng = np.random.default_rng(round_number)
        weights = {o: rng.normal(scale=5.0, size=dimension) for o in owners}
        updates = [
            PairwiseMasker(o, keypairs[o], public_keys, codec=codec).mask(weights[o], round_number)
            for o in owners
        ]
        total = SecureAggregator(codec).aggregate_sum(updates)
        expected = np.sum([weights[o] for o in owners], axis=0)
        assert np.allclose(total, expected, atol=(n_owners + 1) * 2.0 / codec.scale)


    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.text(min_size=1, max_size=6), min_size=2, max_size=33, unique=True),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=24),
        st.sampled_from([32, 48, 64]),
    )
    def test_property_net_masks_sum_to_zero_in_the_ring(self, owners, round_number, length, field_bits):
        dh_params = DHParameters.for_testing(bits=48, seed="mask-prop")
        codec = FixedPointCodec(precision_bits=16, field_bits=field_bits)
        keypairs = {o: DHKeyPair.generate(dh_params, o) for o in owners}
        public_keys = {o: kp.public_key for o, kp in keypairs.items()}
        net_masks = np.stack([
            PairwiseMasker(o, keypairs[o], public_keys, codec=codec).net_mask(round_number, length)
            for o in owners
        ])
        assert int(net_masks.max(initial=0)) < codec.modulus
        assert not codec.sum_encoded(net_masks).any()
        if length:
            assert net_masks.any()


class TestVectorizedParity:
    """The batched mask/aggregate paths must equal the scalar ring folds exactly."""

    def test_mask_payload_matches_sequential_reference(self, dh_params):
        # Reference: the pre-vectorization per-peer loop, folded one codec op
        # at a time in canonical peer order.
        owners = ["a", "b", "c", "d"]
        codec = FixedPointCodec()
        keypairs, public_keys, weights = _build_cohort(dh_params, owners, dimension=33)
        for owner in owners:
            masker = PairwiseMasker(owner, keypairs[owner], public_keys, codec=codec)
            expected = codec.encode(np.asarray(weights[owner]).ravel())
            for peer in masker.peers:
                secret = shared_secret(keypairs[owner], public_keys[peer])
                pair_mask = expand_mask(secret, 3, weights[owner].size, codec.modulus)
                if peer > owner:
                    expected = codec.add(expected, pair_mask)
                else:
                    expected = codec.subtract(expected, pair_mask)
            payload = masker.mask(weights[owner], round_number=3).payload
            assert np.array_equal(payload, expected)

    def test_mask_without_peers_is_plain_encoding(self, dh_params):
        codec = FixedPointCodec()
        keypairs, _, weights = _build_cohort(dh_params, ["a"], dimension=9)
        masker = PairwiseMasker("a", keypairs["a"], {}, codec=codec)
        payload = masker.mask(weights["a"], round_number=0).payload
        assert np.array_equal(payload, codec.encode(weights["a"]))

    def test_aggregate_sum_matches_sequential_codec_add(self, dh_params):
        owners = ["a", "b", "c", "d", "e"]
        updates, _, codec = _masked_updates(dh_params, owners, dimension=21)
        total = np.zeros(21, dtype=np.uint64)
        for update in updates:
            total = codec.add(total, update.payload)
        expected = codec.decode_sum(total, n_summands=len(updates))
        assert np.array_equal(SecureAggregator(codec).aggregate_sum(updates), expected)

    def test_sum_encoded_matches_fold_in_narrow_field(self):
        codec = FixedPointCodec(precision_bits=16, field_bits=32)
        rng = np.random.default_rng(8)
        stack = rng.integers(0, codec.modulus, size=(7, 15), dtype=np.uint64)
        expected = np.zeros(15, dtype=np.uint64)
        for row in stack:
            expected = codec.add(expected, row)
        assert np.array_equal(codec.sum_encoded(stack), expected)

    def test_sum_encoded_rejects_non_stack(self):
        with pytest.raises(ValidationError):
            FixedPointCodec().sum_encoded(np.zeros(4, dtype=np.uint64))


class TestNetMasks:
    """``net_masks`` over a block of owners equals each owner's signed sum on its own."""

    @staticmethod
    def _secrets(n):
        return [bytes([i]) * 32 for i in range(n)]

    def test_block_equals_one_owner_at_a_time(self):
        codec = FixedPointCodec()
        counts = [3, 1, 4, 2, 5]
        secrets = self._secrets(sum(counts))
        subtracted = np.arange(len(secrets)) % 3 == 0
        block = net_masks(secrets, subtracted, counts, 7, 11, codec)
        starts = np.cumsum(counts) - counts
        for row, start, count in zip(block, starts, counts):
            lanes = slice(start, start + count)
            alone = net_masks(secrets[lanes], subtracted[lanes], [count], 7, 11, codec)
            assert np.array_equal(row, alone[0])

    @pytest.mark.parametrize("empty", [0, 2, 4])
    def test_owner_without_peers_keeps_a_zero_row(self, empty):
        codec = FixedPointCodec()
        counts = [2, 3, 1, 2, 3]
        counts[empty] = 0
        secrets = self._secrets(sum(counts))
        block = net_masks(secrets, np.zeros(len(secrets), dtype=bool), counts, 0, 9, codec)
        assert block.shape == (5, 9)
        assert not block[empty].any()
        peers = [k for k in range(5) if k != empty]
        assert np.array_equal(block[peers], net_masks(secrets, np.zeros(len(secrets), dtype=bool),
                                                      [counts[k] for k in peers], 0, 9, codec))

    def test_subtracted_row_is_its_ring_negation(self):
        codec = FixedPointCodec(precision_bits=16, field_bits=32)
        secret = self._secrets(1)
        added = net_masks(secret, np.array([False]), [1], 2, 17, codec)[0]
        negated = net_masks(secret, np.array([True]), [1], 2, 17, codec)[0]
        assert added.any()
        assert not codec.add(added, negated).any()

    def test_rows_equal_the_signed_sum_in_python_ints(self):
        codec = FixedPointCodec(precision_bits=16, field_bits=32)
        secrets = self._secrets(4)
        subtracted = np.array([False, True, True, False])
        net = net_masks(secrets, subtracted, [4], 5, 13, codec)[0]
        expected = [0] * 13
        for secret, sign in zip(secrets, (1, -1, -1, 1)):
            mask = expand_mask(secret, 5, 13, codec.modulus)
            expected = [(e + sign * int(m)) % codec.modulus for e, m in zip(expected, mask)]
        assert [int(v) for v in net] == expected

    def test_orientation_follows_id_order_not_insertion_order(self, dh_params):
        # Ids whose sort order differs from the order the keys were published in.
        owners = ["m", "a10", "z", "a9", "b"]
        codec = FixedPointCodec()
        keypairs = {o: DHKeyPair.generate(dh_params, o) for o in owners}
        published = {o: keypairs[o].public_key for o in owners}
        ordered = {o: published[o] for o in sorted(owners)}
        nets = []
        for owner in owners:
            net = PairwiseMasker(owner, keypairs[owner], published, codec=codec).net_mask(1, 8)
            assert np.array_equal(net, PairwiseMasker(owner, keypairs[owner], ordered, codec=codec).net_mask(1, 8))
            nets.append(net)
        assert not codec.sum_encoded(np.stack(nets)).any()
