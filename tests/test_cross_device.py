"""Tests for the cross-device simulation harness.

The acceptance criteria this file pins: a 1 000-device sharded round completes
where flat aggregation is infeasible, every device derives O(shard_size)
pairwise masks, and the exact estimator refuses once committees outnumber the
exact engine's player cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.crossdevice import (
    DISTRIBUTIONS,
    CrossDeviceConfig,
    CrossDeviceResult,
    quality_weights,
    simulate_cross_device,
)
from repro.crypto import masking
from repro.crypto.dh import DHKeyPair, DHParameters
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.masking import PairwiseMasker
from repro.crypto.sharding import round_assignment, shard_count
from repro.exceptions import ShapleyError, ValidationError
from repro.shapley.engine import MAX_PLAYERS


class TestQualityWeights:
    def test_uniform_is_all_ones(self):
        assert np.array_equal(quality_weights(5, "uniform"), np.ones(5))

    def test_linear_decays_from_one_to_zero(self):
        weights = quality_weights(5, "linear")
        assert weights[0] == 1.0
        assert weights[-1] == 0.0
        assert np.all(np.diff(weights) < 0)

    def test_quadratic_is_below_linear_in_the_interior(self):
        linear = quality_weights(10, "linear")
        quadratic = quality_weights(10, "quadratic")
        assert np.all(quadratic[1:-1] < linear[1:-1])
        assert quadratic[0] == 1.0 and quadratic[-1] == 0.0

    def test_single_device_edge(self):
        for distribution in DISTRIBUTIONS:
            assert np.array_equal(quality_weights(1, distribution), np.ones(1))

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValidationError):
            quality_weights(5, "bimodal")
        with pytest.raises(ValidationError):
            quality_weights(0, "uniform")


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValidationError):
            CrossDeviceConfig(n_devices=1)
        with pytest.raises(ValidationError):
            CrossDeviceConfig(shard_size=1)
        with pytest.raises(ValidationError):
            CrossDeviceConfig(distribution="bimodal")
        with pytest.raises(ValidationError):
            CrossDeviceConfig(sv_estimator="bayesian")
        with pytest.raises(ValidationError):
            CrossDeviceConfig(sv_samples=1)
        with pytest.raises(ValidationError):
            CrossDeviceConfig(n_rounds=0)

    @pytest.mark.parametrize("n_devices", [3, 5, 801])
    def test_rejects_an_odd_cohort_in_pairs(self, n_devices):
        # Pairs deal an odd cohort a committee of one, whose update no mask hides.
        with pytest.raises(ValidationError, match="every committee needs at least 2 devices"):
            CrossDeviceConfig(n_devices=n_devices, shard_size=2)
        sizes = {len(group) for group in round_assignment(
            [f"d{i}" for i in range(n_devices)], shard_count(n_devices, 2), 7, 0).groups}
        assert 1 in sizes
        CrossDeviceConfig(n_devices=n_devices + 1, shard_size=2)
        CrossDeviceConfig(n_devices=n_devices, shard_size=3)


@pytest.fixture(scope="module")
def thousand_device_run() -> CrossDeviceResult:
    """The headline scale point: 1k devices, committees of 32, sampled SV."""
    return simulate_cross_device(
        CrossDeviceConfig(
            n_devices=1000, shard_size=32, distribution="linear",
            sv_estimator="sampled", sv_samples=32,
        )
    )


class TestCrossDeviceScale:
    def test_thousand_device_round_completes(self, thousand_device_run):
        result = thousand_device_run
        record = result.rounds[0]
        assert len(record.shards) == 32  # ceil(1000 / 32)
        assert sum(len(shard) for shard in record.shards) == 1000
        assert len(record.user_values) == 1000
        assert record.estimator is not None
        assert record.estimator["name"] == "sampled"

    def test_per_device_mask_count_is_o_shard_size(self, thousand_device_run):
        result = thousand_device_run
        record = result.rounds[0]
        sizes = {device: len(shard) for shard in record.shards for device in shard}
        for device, count in record.mask_counts.items():
            assert count == sizes[device] - 1
        # O(shard_size), never O(cohort): flat masking would need 999.
        assert result.max_mask_count <= 31
        assert min(record.mask_counts.values()) >= 2

    def test_committee_values_carry_confidence_bounds(self, thousand_device_run):
        record = thousand_device_run.rounds[0]
        assert set(record.user_half_widths) == set(record.user_values)
        assert all(width >= 0.0 for width in record.user_half_widths.values())

    def test_exact_estimator_refuses_past_the_engine_cap(self):
        config = CrossDeviceConfig(n_devices=100, shard_size=2, sv_estimator="exact")
        with pytest.raises(ShapleyError, match="exact GroupSV"):
            simulate_cross_device(config)

    def test_exact_estimator_works_under_the_cap(self):
        config = CrossDeviceConfig(
            n_devices=12, shard_size=3, sv_estimator="exact", n_train=128, n_test=64
        )
        result = simulate_cross_device(config)
        record = result.rounds[0]
        assert len(record.shards) <= MAX_PLAYERS
        # Exact SV is efficient: committee values sum to the grand utility.
        assert sum(record.shard_values) == pytest.approx(record.global_utility)

    def test_committees_past_the_default_codec_capacity_aggregate(self):
        # 260 summands per committee: the default codec (256) used to refuse
        # the decode after all the masking was done.  The harness sizes its
        # codec from the largest committee, as the on-chain protocol does.
        config = CrossDeviceConfig(
            n_devices=520, shard_size=260, sv_samples=4, n_features=2, n_classes=2,
            n_train=64, n_test=32, dh_bits=16,
        )
        record = simulate_cross_device(config).rounds[0]
        assert [len(shard) for shard in record.shards] == [260, 260]
        assert set(record.mask_counts.values()) == {259}

    def test_deterministic_in_the_config(self):
        config = CrossDeviceConfig(n_devices=64, shard_size=8, sv_samples=16, n_train=128, n_test=64)
        first = simulate_cross_device(config)
        second = simulate_cross_device(config)
        assert first.rounds[0].user_values == second.rounds[0].user_values
        assert first.rounds[0].user_half_widths == second.rounds[0].user_half_widths

    def test_masks_cancel_exactly_end_to_end(self, monkeypatch):
        # Which bits the mask PRNG produces must not reach any result: with
        # every mask forced to zero the run is bit-equal to the masked one.
        config = CrossDeviceConfig(
            n_devices=48, shard_size=6, sv_samples=8, n_rounds=2, n_train=128, n_test=64
        )
        masked = simulate_cross_device(config)

        real_expand = masking.expand_masks
        stacks = []

        def zero_masks(secrets, round_number, length, modulus):
            stacks.append(real_expand(secrets, round_number, length, modulus))
            return np.zeros_like(stacks[-1])

        monkeypatch.setattr(masking, "expand_masks", zero_masks)
        unmasked = simulate_cross_device(config)

        expanded = sum(len(stack) for stack in stacks)
        assert expanded == sum(sum(r.mask_counts.values()) for r in masked.rounds)
        assert all(stack.any() for stack in stacks)
        assert unmasked.total_contributions == masked.total_contributions
        for plain, hidden in zip(unmasked.rounds, masked.rounds):
            assert plain.shard_values == hidden.shard_values
            assert plain.global_utility == hidden.global_utility

    @pytest.mark.parametrize("n_devices, shard_size", [(50, 6), (40, 20)])
    def test_payloads_equal_the_per_device_masker_across_blocks(self, monkeypatch, n_devices, shard_size):
        # A round's lanes run in kernel blocks of whole devices (SECRET_LANES),
        # expanded in sub-blocks of whole devices (EXPANSION_LANES).  At 16 and
        # 10, committees of 6 and 5 cross both kinds of boundary, and committees
        # of 20 (19 lanes a device) give each device a block and a sub-block of
        # its own; every payload must still be the bytes a per-device
        # PairwiseMasker builds on the scalar path.
        from repro.core import crossdevice

        monkeypatch.setattr(crossdevice, "SECRET_LANES", 16)
        monkeypatch.setattr(crossdevice, "EXPANSION_LANES", 10)
        config = CrossDeviceConfig(
            n_devices=n_devices, shard_size=shard_size, sv_samples=8, n_rounds=2, n_train=128, n_test=64
        )
        vectors, rounds = [], []
        real_encode, real_aggregate = FixedPointCodec.encode, crossdevice.aggregate_groups

        def encode(codec, weights):
            vectors.append(np.array(weights))
            return real_encode(codec, weights)

        def aggregate(payloads, shards, codec):
            rounds.append((dict(payloads), codec))
            return real_aggregate(payloads, shards, codec)

        monkeypatch.setattr(FixedPointCodec, "encode", encode)
        monkeypatch.setattr(crossdevice, "aggregate_groups", aggregate)
        result = simulate_cross_device(config)
        monkeypatch.undo()

        params = DHParameters.for_testing(bits=config.dh_bits, seed=config.seed)
        devices = sorted(rounds[0][0])
        keypairs = {d: DHKeyPair.generate(params, d, seed=config.seed) for d in devices}
        # One encode a round, of every device's vector in device order.
        assert [stack.shape[0] for stack in vectors] == [len(devices)] * 2
        for round_number, ((payloads, codec), record) in enumerate(zip(rounds, result.rounds)):
            cohort = {device: shard for shard in record.shards for device in shard}
            for index, device in enumerate(devices):
                peer_keys = {peer: keypairs[peer].public_key for peer in cohort[device]}
                masker = PairwiseMasker(device, keypairs[device], peer_keys, codec=codec)
                expected = masker.mask(vectors[round_number][index], round_number).payload
                assert payloads[device].tobytes() == expected.tobytes()

    def test_uniform_quality_gives_symmetric_committees(self):
        # Under uniform quality every device model equals the base model, so
        # every committee model is identical and the stratified estimator
        # resolves every committee to the same value.
        result = simulate_cross_device(
            CrossDeviceConfig(
                n_devices=64, shard_size=8, distribution="uniform",
                sv_samples=16, n_train=128, n_test=64,
            )
        )
        values = result.rounds[0].shard_values
        assert max(values) - min(values) == pytest.approx(0.0, abs=1e-12)


class TestCrossDeviceCli:
    def test_cross_device_scenario_runs(self, capsys):
        code = main([
            "cross-device", "--distribution", "uniform", "--owners", "64",
            "--shard-size", "8", "--sv-samples", "16", "--rounds", "1", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cross-device simulation" in out
        assert "per-device pairwise masks: 7 max" in out

    def test_cross_device_exact_refusal_is_a_clean_error(self, capsys):
        code = main([
            "cross-device", "--distribution", "linear", "--owners", "100",
            "--shard-size", "2", "--sv-estimator", "exact", "--rounds", "1",
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "error:" in out
