"""Shard-local dropout recovery.

A device dropping mid-round must be recoverable *within its own shard*: the
surviving shard members hold the Shamir shares needed to cancel the dropped
member's pairwise masks, and no other shard contributes (or even learns about)
anything.  At the protocol level, a dropout under the sharded topology must
leave the settled chain byte-identical to an undisturbed sharded run, with the
audit passing in both replay and incremental modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import DropoutScenario, RoundScheduler
from repro.core.protocol import BlockchainFLProtocol
from repro.crypto.dh import DHKeyPair, DHParameters
from repro.crypto.dropout import DropoutRecoveryAggregator, DropoutResilientMasker
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.masking import PairwiseMasker, SecureAggregator
from repro.crypto.sharding import shard_group
from repro.datasets.loader import make_owner_datasets
from repro.utils.rng import spawn_rng


class TestShardLocalRecovery:
    """Crypto-level: one shard recovers from a dropout using only its own shares."""

    def test_dropout_in_one_shard_recovers_without_touching_the_other(self):
        # Shards of 4 so that after one dropout the 3 survivors still hold
        # >= threshold shares of every secret that needs reconstructing.
        owners = [f"owner-{i}" for i in range(8)]
        shards = shard_group(owners, 4)
        assert len(shards) == 2
        rng = spawn_rng("shard-dropout", 31)
        vectors = {o: rng.normal(size=10) for o in owners}

        dh_params = DHParameters.for_testing(bits=64, seed=9)
        keypairs = {o: DHKeyPair.generate(dh_params, o, seed=9) for o in owners}
        public = {o: pair.public_key for o, pair in keypairs.items()}
        codec = FixedPointCodec()
        round_number = 2

        # Shard 0 runs the dropout-resilient protocol: double masking plus
        # Shamir shares distributed among the shard's members only.
        shard0 = shards[0]
        threshold = 2
        shard0_updates = {}
        for owner in shard0:
            peers = {p: public[p] for p in shard0 if p != owner}
            masker = DropoutResilientMasker(
                owner, keypairs[owner], peers, threshold=threshold, codec=codec, seed=9
            )
            shard0_updates[owner] = masker.mask(vectors[owner], round_number)

        dropped = shard0[1]
        survivors = [o for o in shard0 if o != dropped]
        surviving_updates = [shard0_updates[o] for o in survivors]
        # Survivors pool the shares they hold — all from within shard 0.
        collected_self_shares = {
            survivor: [
                shard0_updates[survivor].self_mask_shares[other]
                for other in survivors if other != survivor
            ]
            for survivor in survivors
        }
        collected_key_shares = {
            dropped: [shard0_updates[dropped].key_shares[survivor] for survivor in survivors]
        }
        shard0_public = {o: public[o] for o in shard0}
        recovered = DropoutRecoveryAggregator(threshold=threshold, codec=codec).aggregate_sum(
            surviving_updates,
            shard0_public,
            [dropped],
            collected_self_shares,
            collected_key_shares,
            dh_params,
            round_number,
        )
        expected = np.sum([vectors[o] for o in survivors], axis=0)
        assert np.allclose(recovered, expected, atol=1e-4)

        # Shard 1 is oblivious: plain pairwise masking among its own members
        # aggregates exactly as if the other shard never existed.
        shard1 = shards[1]
        shard1_updates = []
        for owner in shard1:
            peers = {p: public[p] for p in shard1 if p != owner}
            masker = PairwiseMasker(owner, keypairs[owner], peers, codec=codec)
            shard1_updates.append(masker.mask(vectors[owner], round_number))
        shard1_sum = SecureAggregator(codec=codec).aggregate_sum(shard1_updates)
        assert np.allclose(shard1_sum, np.sum([vectors[o] for o in shard1], axis=0), atol=1e-4)

    def test_recovery_needs_threshold_shares(self):
        owners = ["a", "b", "c"]
        rng = spawn_rng("shard-dropout-threshold", 37)
        vectors = {o: rng.normal(size=4) for o in owners}
        dh_params = DHParameters.for_testing(bits=64, seed=3)
        keypairs = {o: DHKeyPair.generate(dh_params, o, seed=3) for o in owners}
        public = {o: pair.public_key for o, pair in keypairs.items()}
        codec = FixedPointCodec()
        updates = {}
        for owner in owners:
            peers = {p: public[p] for p in owners if p != owner}
            masker = DropoutResilientMasker(
                owner, keypairs[owner], peers, threshold=2, codec=codec, seed=3
            )
            updates[owner] = masker.mask(vectors[owner], 0)
        from repro.exceptions import MaskingError

        with pytest.raises(MaskingError):
            DropoutRecoveryAggregator(threshold=2, codec=codec).aggregate_sum(
                [updates["a"], updates["b"]],
                public,
                ["c"],
                {"a": [updates["b"].self_mask_shares["a"]],
                 "b": [updates["a"].self_mask_shares["b"]]},
                {"c": [updates["c"].key_shares["a"]]},  # one share < threshold
                dh_params,
                0,
            )


@pytest.fixture(scope="module")
def six_setup():
    return make_owner_datasets(n_owners=6, sigma=0.1, n_samples=400, seed=7)


def _build(six_setup, **overrides):
    dataset, owners = six_setup
    settings = dict(
        n_owners=6, n_groups=2, n_rounds=2, local_epochs=2,
        learning_rate=2.0, permutation_seed=13,
        shard_size=2,
    )
    settings.update(overrides)
    return BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes,
        ProtocolConfig(**settings),
    )


def _fingerprint(protocol):
    chain = protocol.participants[protocol.owner_ids[0]].node.chain
    return [(b.height, b.block_hash, b.header.state_root) for b in chain.blocks]


class TestShardedDropoutProtocol:
    def test_dropout_in_a_sharded_round_commits_identical_blocks(self, six_setup):
        plain = _build(six_setup)
        plain_result = plain.run()

        disturbed = _build(six_setup)
        dropped = sorted(disturbed.owner_ids)[1]
        scheduler = RoundScheduler(
            disturbed, DropoutScenario(dropped, round_number=0, offline_ticks=2)
        )
        disturbed_result = scheduler.run()

        assert _fingerprint(disturbed) == _fingerprint(plain)
        assert disturbed_result.reward_balances == plain_result.reward_balances
        assert any(ctx.ticks_waited for ctx in scheduler.contexts)

        dataset, _ = six_setup
        chain = disturbed.participants[disturbed.owner_ids[0]].node.chain
        for mode in ("replay", "incremental"):
            report = audit_chain(
                chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
                mode=mode,
            )
            assert report.passed, report.mismatches

    def test_dropout_in_a_sharded_sampled_round_audits_clean(self, six_setup):
        protocol = _build(six_setup, sv_estimator="sampled", sv_samples=16)
        dropped = sorted(protocol.owner_ids)[2]
        scheduler = RoundScheduler(
            protocol, DropoutScenario(dropped, round_number=1, offline_ticks=1)
        )
        scheduler.run()

        dataset, _ = six_setup
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        for mode in ("replay", "incremental"):
            report = audit_chain(
                chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
                mode=mode,
            )
            assert report.passed, report.mismatches
            assert report.estimators_checked == [0, 1]
