"""Tests for the round assignment and the sampled-estimator protocol.

Covers the harness's committee count and sizes, the on-chain dealing (O(group)
per-client mask counts, a non-canonical grouping caught by the audit, no
topology key in the pinned parameters), and the full protocol under the
sampled GroupSV estimator — receipts, both audit modes, tampered estimates
and bounds, and a dropout.
"""

from __future__ import annotations

import pytest

from repro.core.audit import AuditReport, _audit_sampled_round, audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import RoundScheduler, RunSpec, Scenario, Withhold
from repro.core.protocol import BlockchainFLProtocol
from repro.crypto.masking import PairwiseMasker
from repro.crypto.sharding import round_assignment, shard_count
from repro.datasets.loader import make_owner_datasets
from repro.exceptions import GroupingError
from repro.shapley.estimator import estimator_seed_for_round


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
        # The cross-device harness deals its cohort into shard_count
        # committees with the round permutation (committees of at most 8 here).
        devices = [f"device-{i:02d}" for i in range(n_members)]
        shards = round_assignment(devices, shard_count(n_members, 8), 7, 0).groups
        sizes = [len(shard) for shard in shards]
        assert sorted(device for shard in shards for device in shard) == devices
        assert all(size <= 8 for size in sizes)
        assert max(sizes) - min(sizes) <= 1
        # A singleton committee would submit an unmasked update.
        assert min(sizes) >= 2

    def test_shard_membership_rejects_duplicates(self):
        # An owner in two slots is unrepresentable: the dealing refuses the cohort.
        with pytest.raises(GroupingError):
            round_assignment(["a", "b", "a"], 1, 13, 0)


@pytest.fixture(scope="module")
def six_setup():
    """Six owners dealt into two groups of three."""
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


@pytest.fixture(scope="module")
def flat_run(six_setup):
    protocol = _build(six_setup)
    result = protocol.run()
    return protocol, result


class TestFlatProtocol:
    def test_flat_round_record_has_no_shards_key(self, flat_run):
        protocol, _ = flat_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        record = chain.state.get("fl_training", "round/0")
        assert "shards" not in record

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

    def test_non_canonical_grouping_fails_the_incremental_audit(self, six_setup, monkeypatch):
        """A swarm that dealt the right cohort into groups of its own choosing
        commits a self-consistent chain — every header root verifies — and is
        caught only by re-deriving the assignment from chain state."""
        import repro.crypto.sharding as sharding

        dataset, _ = six_setup
        canonical = sharding.make_groups
        monkeypatch.setattr(
            sharding, "make_groups", lambda *args: list(reversed(canonical(*args)))
        )
        protocol = _build(six_setup, n_rounds=1)
        protocol.run()
        monkeypatch.undo()
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        report = audit_chain(
            chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
            mode="incremental",
        )
        assert report.chain_valid and not report.passed
        assert [m.split(":")[1].split()[1] for m in report.mismatches] == ["groups"]
        assert all("canonical assignment" in m for m in report.mismatches)

    def test_a_chain_pinning_the_retired_committee_split_fails_both_audit_modes(
        self, six_setup, monkeypatch
    ):
        pin = ProtocolConfig.on_chain_params
        monkeypatch.setattr(ProtocolConfig, "on_chain_params", lambda self, dim: {
            **pin(self, dim), "aggregation_topology": "sharded", "shard_size": 2,
        })
        protocol = _build(six_setup, n_rounds=1)
        protocol.run()
        dataset, _ = six_setup
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        for mode in ("replay", "incremental"):
            report = audit_chain(
                chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
                mode=mode,
            )
            assert report.chain_valid and report.mismatches == [
                "registry pins the retired committee split ['aggregation_topology', 'shard_size']"
            ]

    def test_on_chain_params_stay_identical_for_flat_exact_configs(self):
        # The estimator knobs only appear on chain when they deviate from the
        # defaults, so historical exact chains keep their block hashes; no
        # config pins a topology, and the committee size is no config field.
        params = ProtocolConfig().on_chain_params(model_dimension=10)
        assert not {"aggregation_topology", "shard_size", "sv_estimator"} & set(params)
        with pytest.raises(TypeError):
            ProtocolConfig(shard_size=2)
        sampled = ProtocolConfig(sv_estimator="sampled", sv_samples=64)
        assert sampled.on_chain_params(model_dimension=10)["sv_samples"] == 64


class TestSampledProtocol:
    @pytest.fixture(scope="class")
    def sampled_run(self, six_setup):
        protocol = _build(six_setup, sv_estimator="sampled", sv_samples=16)
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

    def test_dropout_in_a_sampled_round_audits_clean(self, six_setup):
        protocol = _build(six_setup, sv_estimator="sampled", sv_samples=16)
        dropped = sorted(protocol.owner_ids)[2]
        scheduler = RoundScheduler(protocol, Scenario(RunSpec(
            withhold=(Withhold(dropped, ticks=1, rounds=(1,)),)
        )))
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
