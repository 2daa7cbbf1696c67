"""Tests for dropout-resilient secure aggregation (repro.crypto.dropout)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.dh import DHKeyPair, DHParameters
from repro.crypto.dropout import (
    DoubleMaskedUpdate,
    DropoutRecoveryAggregator,
    DropoutResilientMasker,
    _self_mask_seed,
)
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.prng import expand_mask
from repro.exceptions import MaskingError, ValidationError

N_OWNERS = 5
THRESHOLD = 3
DIMENSION = 40
ROUND = 2


@pytest.fixture(scope="module")
def cohort():
    """Key pairs, public keys, weights, and double-masked updates for 5 owners."""
    dh_params = DHParameters.for_testing(bits=64, seed="dropout-tests")
    owners = [f"owner-{i}" for i in range(N_OWNERS)]
    keypairs = {o: DHKeyPair.generate(dh_params, o) for o in owners}
    public_keys = {o: kp.public_key for o, kp in keypairs.items()}
    rng = np.random.default_rng(9)
    weights = {o: rng.normal(scale=2.0, size=DIMENSION) for o in owners}
    codec = FixedPointCodec()
    updates = {}
    for owner in owners:
        masker = DropoutResilientMasker(owner, keypairs[owner], public_keys, THRESHOLD, codec=codec)
        updates[owner] = masker.mask(weights[owner], ROUND)
    return dh_params, owners, public_keys, weights, codec, updates


def collect_shares(updates, owners_needed, share_kind, n_shares=THRESHOLD):
    """Gather ``n_shares`` shares of each needed owner from the peers' update objects."""
    collected = {}
    for owner in owners_needed:
        shares = list(getattr(updates[owner], share_kind).values())
        collected[owner] = shares[:n_shares]
    return collected


class TestDoubleMasking:
    def test_update_carries_shares_for_every_peer(self, cohort):
        _, owners, _, _, _, updates = cohort
        update = updates[owners[0]]
        assert set(update.self_mask_shares) == set(owners) - {owners[0]}
        assert set(update.key_shares) == set(owners) - {owners[0]}

    def test_payload_is_not_the_plain_encoding(self, cohort):
        _, owners, _, weights, codec, updates = cohort
        plain = codec.encode(weights[owners[0]])
        assert not np.array_equal(updates[owners[0]].payload, plain)

    def test_naive_sum_without_recovery_is_garbage(self, cohort):
        # Unlike plain pairwise masking, the self masks do NOT cancel in the sum,
        # so summing payloads alone must not reveal the aggregate.
        _, owners, _, weights, codec, updates = cohort
        total = np.zeros(DIMENSION, dtype=np.uint64)
        for owner in owners:
            total = codec.add(total, updates[owner].payload)
        decoded = codec.decode_sum(total, n_summands=len(owners))
        expected = np.sum([weights[o] for o in owners], axis=0)
        assert not np.allclose(decoded, expected, atol=1e-2)

    def test_threshold_validation(self, cohort):
        dh_params, owners, public_keys, _, codec, _ = cohort
        keypair = DHKeyPair.generate(dh_params, owners[0])
        with pytest.raises(ValidationError):
            DropoutResilientMasker(owners[0], keypair, public_keys, threshold=0, codec=codec)
        with pytest.raises(ValidationError):
            DropoutResilientMasker(owners[0], keypair, public_keys, threshold=N_OWNERS + 1, codec=codec)


    def test_self_mask_differs_from_pair_mask_under_equal_key_bytes(self):
        # Domain separation: keyed by the very same bytes and round, the
        # self-mask family and the pair-mask family must not coincide.
        codec = FixedPointCodec()
        keypair = DHKeyPair.generate(DHParameters.for_testing(bits=64, seed="dropout-tests"), "solo")
        masker = DropoutResilientMasker("solo", keypair, {}, threshold=1, codec=codec, seed=5)
        weights = np.linspace(-1.0, 1.0, 12)
        self_mask = codec.subtract(masker.mask(weights, 4).payload, codec.encode(weights))
        pair_mask = expand_mask(_self_mask_seed("solo", 4, 5), 4, weights.size, codec.modulus)
        assert self_mask.any()
        assert not np.array_equal(self_mask, pair_mask)


class TestRecoveryAggregation:
    def test_no_dropout_recovers_full_sum(self, cohort):
        dh_params, owners, public_keys, weights, codec, updates = cohort
        aggregator = DropoutRecoveryAggregator(THRESHOLD, codec)
        total = aggregator.aggregate_sum(
            surviving_updates=[updates[o] for o in owners],
            all_owner_public_keys=public_keys,
            dropped_owner_ids=[],
            collected_self_shares=collect_shares(updates, owners, "self_mask_shares"),
            collected_key_shares={},
            dh_params=dh_params,
            round_number=ROUND,
        )
        expected = np.sum([weights[o] for o in owners], axis=0)
        assert np.allclose(total, expected, atol=len(owners) * 2.0 / codec.scale)

    def test_single_dropout_recovers_survivor_sum(self, cohort):
        dh_params, owners, public_keys, weights, codec, updates = cohort
        dropped = owners[2]
        survivors = [o for o in owners if o != dropped]
        aggregator = DropoutRecoveryAggregator(THRESHOLD, codec)
        total = aggregator.aggregate_sum(
            surviving_updates=[updates[o] for o in survivors],
            all_owner_public_keys=public_keys,
            dropped_owner_ids=[dropped],
            collected_self_shares=collect_shares(updates, survivors, "self_mask_shares"),
            collected_key_shares=collect_shares(updates, [dropped], "key_shares"),
            dh_params=dh_params,
            round_number=ROUND,
        )
        expected = np.sum([weights[o] for o in survivors], axis=0)
        assert np.allclose(total, expected, atol=len(survivors) * 2.0 / codec.scale)

    def test_two_dropouts_recover_survivor_mean(self, cohort):
        dh_params, owners, public_keys, weights, codec, updates = cohort
        dropped = [owners[0], owners[4]]
        survivors = [o for o in owners if o not in dropped]
        aggregator = DropoutRecoveryAggregator(THRESHOLD, codec)
        mean = aggregator.aggregate_mean(
            [updates[o] for o in survivors],
            all_owner_public_keys=public_keys,
            dropped_owner_ids=dropped,
            collected_self_shares=collect_shares(updates, survivors, "self_mask_shares"),
            collected_key_shares=collect_shares(updates, dropped, "key_shares"),
            dh_params=dh_params,
            round_number=ROUND,
        )
        expected = np.mean([weights[o] for o in survivors], axis=0)
        assert np.allclose(mean, expected, atol=2.0 / codec.scale)

    def test_missing_survivor_self_shares_fail(self, cohort):
        dh_params, owners, public_keys, _, codec, updates = cohort
        aggregator = DropoutRecoveryAggregator(THRESHOLD, codec)
        shares = collect_shares(updates, owners, "self_mask_shares")
        shares[owners[1]] = shares[owners[1]][:1]  # below threshold
        with pytest.raises(MaskingError):
            aggregator.aggregate_sum(
                surviving_updates=[updates[o] for o in owners],
                all_owner_public_keys=public_keys,
                dropped_owner_ids=[],
                collected_self_shares=shares,
                collected_key_shares={},
                dh_params=dh_params,
                round_number=ROUND,
            )

    def test_missing_dropped_key_shares_fail(self, cohort):
        dh_params, owners, public_keys, _, codec, updates = cohort
        dropped = owners[3]
        survivors = [o for o in owners if o != dropped]
        aggregator = DropoutRecoveryAggregator(THRESHOLD, codec)
        with pytest.raises(MaskingError):
            aggregator.aggregate_sum(
                surviving_updates=[updates[o] for o in survivors],
                all_owner_public_keys=public_keys,
                dropped_owner_ids=[dropped],
                collected_self_shares=collect_shares(updates, survivors, "self_mask_shares"),
                collected_key_shares={dropped: []},
                dh_params=dh_params,
                round_number=ROUND,
            )

    def test_owner_cannot_both_survive_and_drop(self, cohort):
        dh_params, owners, public_keys, _, codec, updates = cohort
        aggregator = DropoutRecoveryAggregator(THRESHOLD, codec)
        with pytest.raises(MaskingError):
            aggregator.aggregate_sum(
                surviving_updates=[updates[o] for o in owners],
                all_owner_public_keys=public_keys,
                dropped_owner_ids=[owners[0]],
                collected_self_shares=collect_shares(updates, owners, "self_mask_shares"),
                collected_key_shares=collect_shares(updates, [owners[0]], "key_shares"),
                dh_params=dh_params,
                round_number=ROUND,
            )

    def test_empty_survivor_set_rejected(self, cohort):
        dh_params, _, public_keys, _, codec, _ = cohort
        aggregator = DropoutRecoveryAggregator(THRESHOLD, codec)
        with pytest.raises(MaskingError):
            aggregator.aggregate_sum([], public_keys, [], {}, {}, dh_params, ROUND)

    def test_update_payload_coerced_to_uint64(self):
        update = DoubleMaskedUpdate(owner_id="x", round_number=0, payload=np.arange(3, dtype=np.int64))
        assert update.payload.dtype == np.uint64
