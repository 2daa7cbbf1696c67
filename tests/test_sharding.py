"""Tests for hierarchical sharded secure aggregation.

Covers three layers: the pure shard-derivation functions, the crypto-level
equivalence (sum of shard sums == flat group sum, bit for bit), and the full
on-chain protocol under the sharded topology (``shard_size=K``) — identical
contribution receipts to the flat run, canonical shards recorded in the round
block, O(shard) per-client mask counts, rejected wrong-shard claims, and
passing audits in both replay and incremental modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.audit import AuditReport, _audit_sampled_round, audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import RoundScheduler, Scenario
from repro.core.protocol import BlockchainFLProtocol
from repro.crypto.dh import DHKeyPair, DHParameters
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.masking import PairwiseMasker, SecureAggregator
from repro.crypto.sharding import (
    round_assignment,
    shard_count,
    shard_group,
    shard_sizes,
)
from repro.datasets.loader import make_owner_datasets
from repro.exceptions import ConfigurationError, GroupingError
from repro.shapley.estimator import estimator_seed_for_round
from repro.utils.rng import spawn_rng


class TestShardDerivation:
    def test_shard_count_is_the_ceiling(self):
        assert shard_count(1, 2) == 1
        assert shard_count(4, 2) == 2
        assert shard_count(5, 2) == 3
        assert shard_count(32, 32) == 1
        assert shard_count(33, 32) == 2
        assert shard_count(10_000, 32) == 313

    def test_shard_count_rejects_bad_inputs(self):
        with pytest.raises(GroupingError):
            shard_count(0, 2)
        with pytest.raises(GroupingError):
            shard_count(4, 1)

    @pytest.mark.parametrize("n_members", range(2, 70))
    def test_shard_sizes_are_balanced_and_never_singletons(self, n_members):
        sizes = shard_sizes(n_members, 8)
        assert sum(sizes) == n_members
        assert all(size <= 8 for size in sizes)
        assert max(sizes) - min(sizes) <= 1
        # A singleton shard would submit an unmasked update.
        assert min(sizes) >= 2

    def test_shard_group_slices_are_contiguous(self):
        members = [f"o{i}" for i in range(7)]
        shards = shard_group(members, 3)
        assert shards == [["o0", "o1", "o2"], ["o3", "o4"], ["o5", "o6"]]
        assert [m for shard in shards for m in shard] == members

    def test_shard_group_rejects_duplicates(self):
        with pytest.raises(GroupingError):
            shard_group(["a", "b", "a"], 2)

    def test_shard_membership_inverts_the_assignment(self):
        assignment = round_assignment(["a", "b", "c", "d", "e"], 2, 13, 0, shard_size=2)
        for owner, (group_index, shard_index) in assignment.slots.items():
            assert owner in assignment.shards[group_index][shard_index]
            assert assignment.mask_cohort(owner) == assignment.shards[group_index][shard_index]
        assert set(assignment.slots) == {"a", "b", "c", "d", "e"}
        assert [list(shard) for shards in assignment.shards for shard in shards] == [
            shard for group in assignment.groups for shard in shard_group(group, 2)
        ]

    def test_shard_membership_rejects_duplicates(self):
        # An owner in two slots is unrepresentable: the dealing refuses the cohort.
        with pytest.raises(GroupingError):
            round_assignment(["a", "b", "a"], 1, 13, 0, shard_size=2)


class TestShardedAggregationEquivalence:
    """Ring arithmetic makes per-shard aggregation exact, not approximate."""

    def _masked_updates(self, owners, cohorts, vectors, round_number=3):
        params = DHParameters.for_testing(bits=64, seed=5)
        keypairs = {o: DHKeyPair.generate(params, o, seed=5) for o in owners}
        public = {o: pair.public_key for o, pair in keypairs.items()}
        codec = FixedPointCodec()
        updates = []
        for cohort in cohorts:
            for owner in cohort:
                peers = {p: public[p] for p in cohort if p != owner}
                masker = PairwiseMasker(owner, keypairs[owner], peers, codec=codec)
                updates.append(masker.mask(vectors[owner], round_number))
        return updates, codec

    def test_sum_of_shard_sums_equals_flat_group_sum(self):
        owners = [f"owner-{i}" for i in range(5)]
        rng = spawn_rng("shard-equivalence", 17)
        vectors = {o: rng.normal(size=12) for o in owners}
        shards = shard_group(owners, 2)

        flat_updates, codec = self._masked_updates(owners, [owners], vectors)
        flat_sum = SecureAggregator(codec=codec).aggregate_sum(flat_updates)

        shard_updates, codec = self._masked_updates(owners, shards, vectors)
        aggregator = SecureAggregator(codec=codec)
        by_owner = {u.owner_id: u for u in shard_updates}
        shard_sums = [
            aggregator.aggregate_sum([by_owner[o] for o in shard]) for shard in shards
        ]
        assert np.array_equal(flat_sum, np.sum(shard_sums, axis=0))

    def test_masks_do_not_cancel_across_shards(self):
        # A single shard's sum is still masked garbage relative to the plain
        # sum — privacy holds until the whole shard is present.
        owners = [f"owner-{i}" for i in range(4)]
        rng = spawn_rng("shard-privacy", 23)
        vectors = {o: rng.normal(size=6) for o in owners}
        shards = shard_group(owners, 2)
        updates, codec = self._masked_updates(owners, shards, vectors)
        partial = codec.decode_sum(updates[0].payload, n_summands=1)
        assert not np.allclose(partial, vectors[owners[0]], atol=1e-3)


@pytest.fixture(scope="module")
def six_setup():
    """Six owners so a 2-group round splits into two shards per group."""
    return make_owner_datasets(n_owners=6, sigma=0.1, n_samples=400, seed=7)


def _build(six_setup, **overrides):
    dataset, owners = six_setup
    settings = dict(
        n_owners=6, n_groups=2, n_rounds=2, local_epochs=2,
        learning_rate=2.0, permutation_seed=13,
    )
    settings.update(overrides)
    return BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes,
        ProtocolConfig(**settings),
    )


def _fingerprint(protocol):
    chain = protocol.participants[protocol.owner_ids[0]].node.chain
    return [(b.height, b.block_hash, b.header.state_root) for b in chain.blocks]


@pytest.fixture(scope="module")
def flat_run(six_setup):
    protocol = _build(six_setup)
    result = protocol.run()
    return protocol, result


@pytest.fixture(scope="module")
def sharded_run(six_setup):
    protocol = _build(six_setup, shard_size=2)
    result = protocol.run()
    return protocol, result


class TestShardedProtocol:
    def test_sharded_contributions_match_flat_exactly(self, flat_run, sharded_run):
        _, flat = flat_run
        _, shard = sharded_run
        for flat_round, shard_round in zip(flat.rounds, shard.rounds):
            assert shard_round.user_values == flat_round.user_values
            assert shard_round.global_utility == flat_round.global_utility

    def test_round_record_carries_the_canonical_shards(self, sharded_run):
        protocol, _ = sharded_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        for round_number in range(protocol.config.n_rounds):
            record = chain.state.get("fl_training", f"round/{round_number}")
            expected = [
                [list(shard) for shard in shard_group(list(group), 2)]
                for group in record["groups"]
            ]
            assert record["shards"] == expected
            for group_shards in record["shards"]:
                assert all(len(shard) <= 2 for shard in group_shards)

    def test_flat_round_record_has_no_shards_key(self, flat_run):
        protocol, _ = flat_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        record = chain.state.get("fl_training", "round/0")
        assert "shards" not in record

    def test_per_client_mask_count_is_o_shard(self, six_setup, monkeypatch):
        import repro.core.participant as participant_module

        peer_counts: list[int] = []

        class SpyMasker(PairwiseMasker):
            def __init__(self, owner_id, keypair, peer_public_keys, codec=None):
                peer_counts.append(len(peer_public_keys))
                super().__init__(owner_id, keypair, peer_public_keys, codec=codec)

        monkeypatch.setattr(participant_module, "PairwiseMasker", SpyMasker)
        protocol = _build(six_setup, shard_size=2)
        protocol.run()
        assert peer_counts, "no masked submissions were built"
        # Every shard has at most 2 members, so every client derives at most
        # one pairwise mask — never the O(group) = 2 of the flat topology.
        assert max(peer_counts) <= 1

    def test_flat_mask_count_is_o_group(self, six_setup, monkeypatch):
        import repro.core.participant as participant_module

        peer_counts: list[int] = []

        class SpyMasker(PairwiseMasker):
            def __init__(self, owner_id, keypair, peer_public_keys, codec=None):
                peer_counts.append(len(peer_public_keys))
                super().__init__(owner_id, keypair, peer_public_keys, codec=codec)

        monkeypatch.setattr(participant_module, "PairwiseMasker", SpyMasker)
        protocol = _build(six_setup)
        protocol.run()
        assert peer_counts and max(peer_counts) == 2  # group of 3, minus self

    def test_sharded_chain_passes_both_audit_modes(self, six_setup, sharded_run):
        dataset, _ = six_setup
        protocol, _ = sharded_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        for mode in ("replay", "incremental"):
            report = audit_chain(
                chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
                mode=mode,
            )
            assert report.passed, report.mismatches

    @pytest.mark.parametrize("shard_size", [None, 2], ids=["flat", "sharded"])
    def test_non_canonical_grouping_fails_the_incremental_audit(
        self, six_setup, shard_size, monkeypatch
    ):
        """A swarm that dealt the right cohort into groups of its own choosing
        commits a self-consistent chain — every header root verifies — and is
        caught only by re-deriving the assignment from chain state."""
        import repro.crypto.sharding as sharding

        dataset, _ = six_setup
        canonical = sharding.make_groups
        monkeypatch.setattr(
            sharding, "make_groups", lambda *args: list(reversed(canonical(*args)))
        )
        protocol = _build(six_setup, shard_size=shard_size, n_rounds=1)
        protocol.run()
        monkeypatch.undo()
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        report = audit_chain(
            chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
            mode="incremental",
        )
        assert report.chain_valid and not report.passed
        entries = ["groups"] if shard_size is None else ["groups", "shards"]
        assert [m.split(":")[1].split()[1] for m in report.mismatches] == entries
        assert all("canonical assignment" in m for m in report.mismatches)

    def test_wrong_shard_claim_is_rejected_and_chain_unchanged(self, six_setup, sharded_run):
        honest_protocol, _ = sharded_run

        class WrongShardClaim(Scenario):
            def __init__(self, owner_id):
                self.owner_id = owner_id

            def tamper_submission(self, ctx, owner_id, args):
                if owner_id != self.owner_id or "shard_id" not in args:
                    return args
                tampered = dict(args)
                tampered["shard_id"] = int(args["shard_id"]) + 1
                return tampered

        disturbed = _build(six_setup, shard_size=2)
        liar = sorted(disturbed.owner_ids)[0]
        scheduler = RoundScheduler(disturbed, WrongShardClaim(liar))
        scheduler.run()

        assert _fingerprint(disturbed) == _fingerprint(honest_protocol)
        rejections = [r for ctx in scheduler.contexts for r in ctx.rejections]
        assert len(rejections) == disturbed.config.n_rounds
        assert all(r.owner_id == liar for r in rejections)
        assert all("claims shard" in r.reason for r in rejections)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(shard_size=1)
        # The topology is derived from shard_size, not set beside it.
        assert ProtocolConfig().aggregation_topology == "flat"
        assert ProtocolConfig(shard_size=4).aggregation_topology == "sharded"
        with pytest.raises(TypeError):
            ProtocolConfig(aggregation_topology="sharded", shard_size=4)

    def test_on_chain_params_stay_identical_for_flat_exact_configs(self):
        # The new knobs only appear on chain when they deviate from the
        # defaults, so historical flat/exact chains keep their block hashes.
        params = ProtocolConfig().on_chain_params(model_dimension=10)
        assert "aggregation_topology" not in params
        assert "sv_estimator" not in params
        sharded = ProtocolConfig(shard_size=2)
        assert sharded.on_chain_params(model_dimension=10)["shard_size"] == 2
        assert sharded.on_chain_params(model_dimension=10)["aggregation_topology"] == "sharded"
        sampled = ProtocolConfig(sv_estimator="sampled", sv_samples=64)
        assert sampled.on_chain_params(model_dimension=10)["sv_samples"] == 64


class TestShardedSampledProtocol:
    @pytest.fixture(scope="class")
    def sampled_run(self, six_setup):
        protocol = _build(
            six_setup, shard_size=2,
            sv_estimator="sampled", sv_samples=16,
        )
        result = protocol.run()
        return protocol, result

    def test_receipts_carry_estimator_metadata_and_bounds(self, sampled_run):
        protocol, result = sampled_run
        for record in result.rounds:
            assert record.estimator is not None
            assert record.estimator["name"] == "sampled"
            assert record.estimator["seed"] == estimator_seed_for_round(
                protocol.config.permutation_seed, record.round_number
            )
            assert set(record.user_half_widths) == set(record.user_values)
            assert all(width >= 0.0 for width in record.user_half_widths.values())

    def test_sampled_chain_passes_both_audit_modes(self, six_setup, sampled_run):
        dataset, _ = six_setup
        protocol, _ = sampled_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        for mode in ("replay", "incremental"):
            report = audit_chain(
                chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
                mode=mode,
            )
            assert report.passed, report.mismatches
            assert report.estimators_checked == [0, 1]

    def test_audit_rejects_an_inflated_estimate(self, six_setup, sampled_run):
        dataset, _ = six_setup
        protocol, _ = sampled_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        round_record = chain.state.get("fl_training", "round/0")
        stored = dict(chain.state.get("contribution", "evaluation/0"))
        scorer_features = dataset.test_features
        from repro.shapley.utility import AccuracyUtility

        scorer = AccuracyUtility(scorer_features, dataset.test_labels, dataset.n_classes)
        report = AuditReport(chain_valid=True)
        assert _audit_sampled_round(
            scorer, round_record, stored,
            protocol.config.permutation_seed, protocol.config.sv_samples,
            report, tolerance=1e-9,
        )

        # Push one group's stored value far outside its recorded bound — the
        # kind of lie a proposer inflating its own contribution would tell.
        tampered = dict(stored)
        values = [float(v) for v in stored["group_values"]]
        values[0] += 10 * (float(stored["group_half_widths"][0]) + 0.01)
        tampered["group_values"] = values
        report = AuditReport(chain_valid=True)
        assert not _audit_sampled_round(
            scorer, round_record, tampered,
            protocol.config.permutation_seed, protocol.config.sv_samples,
            report, tolerance=1e-9,
        )
        assert any("outside the verified" in m for m in report.mismatches)

    def test_audit_rejects_an_inflated_bound(self, six_setup, sampled_run):
        dataset, _ = six_setup
        protocol, _ = sampled_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        round_record = chain.state.get("fl_training", "round/0")
        stored = dict(chain.state.get("contribution", "evaluation/0"))
        from repro.shapley.utility import AccuracyUtility

        scorer = AccuracyUtility(dataset.test_features, dataset.test_labels, dataset.n_classes)
        # Inflating the half-width (to make any value "verify") is caught by
        # the bound-verification layer.
        tampered = dict(stored)
        widths = [float(w) for w in stored["group_half_widths"]]
        widths[0] += 1.0
        tampered["group_half_widths"] = widths
        report = AuditReport(chain_valid=True)
        assert not _audit_sampled_round(
            scorer, round_record, tampered,
            protocol.config.permutation_seed, protocol.config.sv_samples,
            report, tolerance=1e-9,
        )
        assert any("half-width" in m for m in report.mismatches)
