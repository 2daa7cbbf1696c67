"""Tests for the analysis package (privacy, throughput, trade-off sweeps)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.privacy import anonymity_set_sizes, assess_privacy, sv_resolution
from repro.analysis.throughput import ThroughputModel, measure_chain_overhead
from repro.analysis.tradeoff import sweep_group_counts
from repro.core.config import ProtocolConfig
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import OwnerDataset
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ValidationError
from repro.shapley.group import make_groups
from repro.shapley.native import native_shapley
from repro.shapley.utility import CoalitionModelUtility


class TestPrivacy:
    def test_anonymity_set_sizes_match_group_sizes(self):
        groups = make_groups([f"o{i}" for i in range(9)], 3, 13, 0)
        sizes = anonymity_set_sizes(groups)
        assert all(size == 3 for size in sizes.values())

    def test_resolution_bounds(self):
        assert sv_resolution(9, 9) == 1.0
        assert sv_resolution(9, 1) == pytest.approx(1 / 9)

    def test_resolution_rejects_bad_m(self):
        with pytest.raises(ValidationError):
            sv_resolution(9, 10)

    def test_more_groups_means_less_privacy(self):
        low_m = assess_privacy(9, 2)
        high_m = assess_privacy(9, 9)
        assert low_m.min_anonymity > high_m.min_anonymity
        assert low_m.revealed_fraction < high_m.revealed_fraction
        assert low_m.resolution < high_m.resolution

    def test_singleton_groups_fully_reveal_a_model(self):
        assert assess_privacy(6, 6).revealed_fraction == 1.0

    def test_single_group_maximum_privacy(self):
        assessment = assess_privacy(8, 1)
        assert assessment.min_anonymity == 8
        assert assessment.mean_anonymity == 8.0

    def test_uneven_groups_report_worst_case(self):
        # 9 owners into 4 groups -> smallest group has 2 members.
        assessment = assess_privacy(9, 4)
        assert assessment.min_anonymity == 2


class TestThroughputMeasurement:
    def test_measures_finished_protocol_run(self, protocol_run):
        protocol, result = protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        report = measure_chain_overhead(chain, result.network_stats, n_rounds=protocol.config.n_rounds)
        assert report.n_transactions == result.total_transactions
        assert report.n_blocks == result.chain_height
        assert report.transactions_per_round >= len(protocol.owner_ids)
        assert report.network_bytes > 0
        assert report.gas_per_round > 0

    def test_bytes_per_round_carry_every_masked_update(self):
        # Regression: gossip was sized by ``repr``, and numpy summarises arrays
        # above 1000 elements — a round of this model was accounted at a few kB.
        n_owners, n_features, n_classes = 3, 128, 10
        dimension = n_features * n_classes + n_classes
        assert dimension > 1000
        features, labels = make_blobs(390, n_features, n_classes, seed=3)
        owners = [
            OwnerDataset(f"owner-{i}", features[i * 100:(i + 1) * 100], labels[i * 100:(i + 1) * 100], 0.0)
            for i in range(n_owners)
        ]
        protocol = BlockchainFLProtocol(
            owners, features[300:], labels[300:], n_classes,
            ProtocolConfig(n_owners=n_owners, n_groups=1, n_rounds=2, local_epochs=1),
        )
        result = protocol.run()
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        report = measure_chain_overhead(chain, result.network_stats, n_rounds=2)
        assert report.bytes_per_round >= n_owners * dimension * 8

    def test_rejects_zero_rounds(self, protocol_run):
        protocol, result = protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        with pytest.raises(ValidationError):
            measure_chain_overhead(chain, result.network_stats, n_rounds=0)


class TestThroughputModel:
    def test_presets(self):
        assert ThroughputModel.ethereum_like().transactions_per_second < ThroughputModel.hyperledger_like().transactions_per_second

    def test_transactions_per_update_is_ceiling_division(self):
        model = ThroughputModel(10, max_tx_payload_bytes=1000, block_interval_seconds=1.0)
        assert model.transactions_per_update(999) == 1
        assert model.transactions_per_update(1000) == 1
        assert model.transactions_per_update(1001) == 2

    def test_round_latency_bounded_by_block_interval(self):
        model = ThroughputModel(1e9, max_tx_payload_bytes=10**9, block_interval_seconds=13.0)
        assert model.round_latency_seconds(9, 1000) == 13.0

    def test_round_latency_bounded_by_throughput(self):
        model = ThroughputModel(1.0, max_tx_payload_bytes=10**9, block_interval_seconds=0.001)
        assert model.round_latency_seconds(9, 1000) == pytest.approx(11.0)

    def test_rounds_per_hour_decreases_with_more_owners(self):
        # Large enough updates that the throughput limit (not the block
        # interval) is binding for the big cohort.
        model = ThroughputModel.ethereum_like()
        update_bytes = 512 * 1024
        assert model.rounds_per_hour(100, update_bytes) < model.rounds_per_hour(5, update_bytes)

    def test_bottleneck_identification(self):
        eth = ThroughputModel.ethereum_like()
        fabric = ThroughputModel.hyperledger_like()
        big_update = 10 * 1024 * 1024
        assert eth.bottleneck(50, big_update) == "throughput"
        assert fabric.bottleneck(3, 1000) == "block-interval"

    def test_invalid_inputs_rejected(self):
        model = ThroughputModel.ethereum_like()
        with pytest.raises(ValidationError):
            model.transactions_per_update(0)
        with pytest.raises(ValidationError):
            model.round_latency_seconds(0, 100)


class TestTradeoffSweep:
    def test_sweep_produces_one_point_per_group_count(self, scorer, local_models):
        ground_truth = native_shapley(sorted(local_models), CoalitionModelUtility(local_models, scorer))
        points = sweep_group_counts(local_models, ground_truth, scorer, group_counts=[2, 4])
        assert [p.n_groups for p in points] == [2, 4]

    def test_full_resolution_point_matches_ground_truth(self, scorer, local_models):
        n = len(local_models)
        ground_truth = native_shapley(sorted(local_models), CoalitionModelUtility(local_models, scorer))
        points = sweep_group_counts(local_models, ground_truth, scorer, group_counts=[n])
        assert points[0].cosine_to_ground_truth == pytest.approx(1.0, abs=1e-9)
        assert points[0].resolution == 1.0

    def test_coalition_evaluations_grow_with_m(self, scorer, local_models):
        ground_truth = {owner: 0.1 for owner in local_models}
        points = sweep_group_counts(local_models, ground_truth, scorer, group_counts=[2, 4])
        assert points[0].coalition_evaluations < points[1].coalition_evaluations

    def test_ground_truth_owner_mismatch_rejected(self, scorer, local_models):
        with pytest.raises(ValidationError):
            sweep_group_counts(local_models, {"ghost": 1.0}, scorer, group_counts=[2])

    def test_default_group_counts_cover_two_to_n(self, scorer, local_models):
        ground_truth = {owner: 0.1 for owner in local_models}
        points = sweep_group_counts(local_models, ground_truth, scorer)
        assert [p.n_groups for p in points] == list(range(2, len(local_models) + 1))
