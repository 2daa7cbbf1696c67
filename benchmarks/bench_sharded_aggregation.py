"""Benchmark — sharded secure aggregation and the sampled GroupSV estimator.

Two costs changed in the cross-device PR:

* per-client mask setup: under the flat topology a client derives one DH
  shared secret and one PRNG mask per *cohort* member; under the sharded
  topology only per *shard* member.  Measured as one client's end-to-end
  submission cost (secret derivation + mask expansion + ring fold) at cohort
  sizes up to 10k against shard sizes 16/32/64.
* contribution resolution: exact GroupSV is 2^m in the number of aggregation
  groups; the stratified+truncated permutation estimator replaces it with a
  chosen sample budget.  Measured as estimate-vs-exact error at m = 12 (where
  exact is still computable) with the estimator's own confidence interval as
  the acceptance bar.

The batched-estimator PR then made committee scoring itself the target: the
scalar permutation walk re-folds and re-scores every prefix, while the batched
pipeline builds prefix rows incrementally, dedups coalitions through a bitmask
cache, and scores each block in one GEMM.  Measured here as scalar-vs-batched
wall time on the cross-device game shape (m = ceil(devices / shard) groups,
68-dim models), with bit-identical estimates asserted and a >= 2.5x speedup
floor pinned at committee sizes of 128+ groups (measured 3.7x at 128 and 8.5x
at 313 once the scalar oracle's cache stopped deduplicating each block's keys
quadratically — most of the 66x this bench used to report at 313 was that).

The recorded ``extra_info`` rides in the pytest-benchmark JSON CI uploads; the
asserts pin the acceptance floors.  Reduced-size CI runs shrink the workload
through REPRO_BENCH_* without touching the correctness bars.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.common import format_table
from repro.core.crossdevice import CrossDeviceConfig, simulate_cross_device
from repro.crypto.dh import DHKeyPair, DHParameters
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.masking import PairwiseMasker
from repro.datasets.synthetic import make_blobs
from repro.shapley.engine import coalition_utility_vector, exact_shapley_from_utility_vector
from repro.shapley.estimator import sampled_group_shapley, stratified_permutation_shapley
from repro.shapley.utility import AccuracyUtility, CoalitionModelUtility
from repro.utils.rng import spawn_rng

# CI smoke runs shrink the workload through the environment (see the
# benchmark-artifacts job in .github/workflows/ci.yml); defaults are the
# full measurement sizes reported in docs/performance.md.
COHORT_SIZES = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_COHORT_SIZES", "1000,10000").split(",")
)
SHARD_SIZES = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_SHARD_SIZES", "16,32,64").split(",")
)
MC_GROUPS = int(os.environ.get("REPRO_BENCH_MC_GROUPS", "12"))
MC_SAMPLES = int(os.environ.get("REPRO_BENCH_MC_SAMPLES", "256"))
SV_GROUPS = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_SV_GROUPS", "32,313").split(",")
)
SV_SAMPLES = int(os.environ.get("REPRO_BENCH_SV_SAMPLES", "64"))
MODEL_DIMENSION = 68  # 16 features x 4 classes + 4 biases, the harness default


def _client_submission_seconds(n_peers: int, repetitions: int = 3) -> float:
    """One client's cost to join a cohort of ``n_peers + 1``: derive every
    pairwise shared secret and produce one masked submission."""
    params = DHParameters.for_testing(bits=64, seed=11)
    keypair = DHKeyPair.generate(params, "client", seed=11)
    peer_keys = {
        f"peer-{i:05d}": DHKeyPair.generate(params, f"peer-{i:05d}", seed=11).public_key
        for i in range(n_peers)
    }
    codec = FixedPointCodec()
    weights = spawn_rng("bench-shard-weights", 11).normal(size=MODEL_DIMENSION)
    start = time.perf_counter()
    for _ in range(repetitions):
        masker = PairwiseMasker("client", keypair, peer_keys, codec=codec)
        masker.mask(weights, 0)
    return (time.perf_counter() - start) / repetitions


def _measure_mask_setup():
    """Per-client submission cost: flat cohort vs one shard, per cohort size."""
    results = {}
    for cohort in COHORT_SIZES:
        flat_s = _client_submission_seconds(cohort - 1, repetitions=1)
        per_shard = {}
        for shard_size in SHARD_SIZES:
            per_shard[shard_size] = _client_submission_seconds(shard_size - 1)
        results[cohort] = {
            "flat_s": flat_s,
            "sharded_s": per_shard,
            "speedup": {size: flat_s / seconds for size, seconds in per_shard.items()},
        }
    return results


def _measure_round_throughput():
    """Full simulated rounds: every device masks, every shard aggregates."""
    results = {}
    for cohort in COHORT_SIZES:
        config = CrossDeviceConfig(
            n_devices=cohort, shard_size=32, distribution="linear",
            sv_estimator="sampled", sv_samples=32,
        )
        start = time.perf_counter()
        result = simulate_cross_device(config)
        total = time.perf_counter() - start
        record = result.rounds[0]
        results[cohort] = {
            "total_s": total,
            "masking_s": record.seconds_masking,
            "aggregation_s": record.seconds_aggregation,
            "shapley_s": record.seconds_shapley,
            "committees": len(record.shards),
            "max_masks": result.max_mask_count,
        }
    return results


def _measure_estimator_error():
    """Sampled-vs-exact GroupSV at a size where exact is still computable."""
    features, labels = make_blobs(400, 8, 3, seed=21)
    scorer = AccuracyUtility(features[200:], labels[200:], 3)
    rng = spawn_rng("bench-mc-models", 3)
    base = rng.normal(size=(8 + 1) * 3)
    vectors = {
        f"g{i:02d}": base + 0.4 * rng.normal(size=base.size) for i in range(MC_GROUPS)
    }
    group_labels = sorted(vectors)

    start = time.perf_counter()
    exact_values = exact_shapley_from_utility_vector(
        coalition_utility_vector(np.stack([vectors[label] for label in group_labels]), scorer)
    )
    exact_s = time.perf_counter() - start
    exact = {label: float(v) for label, v in zip(group_labels, exact_values)}

    start = time.perf_counter()
    estimate = sampled_group_shapley(
        group_labels, vectors, scorer, n_permutations=MC_SAMPLES, seed=5
    )
    sampled_s = time.perf_counter() - start

    errors = {label: abs(estimate.values[label] - exact[label]) for label in group_labels}
    return {
        "groups": MC_GROUPS,
        "n_samples": estimate.n_permutations,
        "exact_s": exact_s,
        "sampled_s": sampled_s,
        "exact_evaluations": (1 << MC_GROUPS) - 1,
        "sampled_evaluations": estimate.evaluations,
        "max_abs_error": max(errors.values()),
        "max_half_width": max(estimate.half_widths.values()),
        "covered": estimate.within_bounds(exact),
    }


def _measure_estimator_scoring():
    """Scalar vs batched committee scoring at committee sizes where the
    estimator dominates round wall time (m = ceil(devices / shard))."""
    results = {}
    for m in SV_GROUPS:
        rng = spawn_rng(f"bench-sv-scoring-{m}", 17)
        group_labels = [f"g{i:03d}" for i in range(m)]
        base = rng.normal(size=MODEL_DIMENSION)
        vectors = {
            label: base + 0.4 * rng.normal(size=MODEL_DIMENSION)
            for label in group_labels
        }
        features, targets = make_blobs(256, 16, 4, seed=29)
        scorer = AccuracyUtility(features, targets, 4)

        start = time.perf_counter()
        # The oracle: the generic scalar walk over the same group game.
        scalar = stratified_permutation_shapley(
            group_labels, CoalitionModelUtility(vectors, scorer),
            n_permutations=SV_SAMPLES, seed=11,
        )
        scalar_s = time.perf_counter() - start

        start = time.perf_counter()
        batched = sampled_group_shapley(
            group_labels, vectors, scorer,
            n_permutations=SV_SAMPLES, seed=11,
        )
        batched_s = time.perf_counter() - start
        assert batched == scalar  # the consensus contract: bit-identical receipts

        telemetry = batched.telemetry or {}
        results[m] = {
            "n_samples": scalar.n_permutations,
            "coalitions": telemetry.get("coalitions"),
            "cache_hits": telemetry.get("cache_hits"),
            "batches": telemetry.get("batches"),
            "scalar_s": scalar_s,
            "batched_s": batched_s,
            "speedup": scalar_s / batched_s,
        }
    return results


def _run_all():
    return (
        _measure_mask_setup(),
        _measure_round_throughput(),
        _measure_estimator_error(),
        _measure_estimator_scoring(),
    )


def bench_sharded_aggregation(benchmark):
    """Mask-setup scaling, round throughput, and estimator error/speed floors."""
    mask_setup, rounds, estimator, scoring = benchmark.pedantic(
        _run_all, rounds=1, iterations=1, warmup_rounds=0
    )

    rows = []
    for cohort, entry in mask_setup.items():
        for shard_size in SHARD_SIZES:
            rows.append([
                cohort, shard_size,
                f"{entry['flat_s'] * 1e3:.1f}",
                f"{entry['sharded_s'][shard_size] * 1e3:.2f}",
                f"{entry['speedup'][shard_size]:.0f}x",
            ])
    print("\nPer-client submission cost — flat cohort vs one shard")
    print(format_table(["cohort", "shard", "flat / ms", "sharded / ms", "speedup"], rows))

    rows = [
        [cohort, entry["committees"], entry["max_masks"],
         f"{entry['masking_s']:.2f}", f"{entry['aggregation_s']:.2f}",
         f"{entry['shapley_s']:.2f}", f"{entry['total_s']:.2f}"]
        for cohort, entry in rounds.items()
    ]
    print("\nFull sharded round (shard 32, sampled SV with 32 permutations)")
    print(format_table(
        ["devices", "committees", "max masks", "mask s", "agg s", "sv s", "total s"], rows
    ))

    rows = [
        [m, entry["n_samples"], entry["coalitions"], entry["cache_hits"],
         f"{entry['scalar_s']:.2f}", f"{entry['batched_s']:.2f}",
         f"{entry['speedup']:.1f}x"]
        for m, entry in scoring.items()
    ]
    print("\nCommittee scoring — scalar walk vs batched GEMM pipeline")
    print(format_table(
        ["groups", "samples", "coalitions", "cache hits",
         "scalar s", "batched s", "speedup"], rows
    ))

    print(
        f"\nsampled vs exact GroupSV at m={estimator['groups']}: "
        f"max |error| {estimator['max_abs_error']:.2e} vs CI half-width "
        f"{estimator['max_half_width']:.2e} over {estimator['n_samples']} permutations "
        f"({estimator['sampled_evaluations']} vs {estimator['exact_evaluations']} "
        f"coalition evaluations, covered={estimator['covered']})"
    )

    benchmark.extra_info["mask_setup"] = {
        str(cohort): {
            "flat_s": float(entry["flat_s"]),
            "sharded_s": {str(k): float(v) for k, v in entry["sharded_s"].items()},
            "speedup": {str(k): float(v) for k, v in entry["speedup"].items()},
        }
        for cohort, entry in mask_setup.items()
    }
    benchmark.extra_info["rounds"] = {
        str(cohort): {key: float(value) for key, value in entry.items()}
        for cohort, entry in rounds.items()
    }
    benchmark.extra_info["estimator"] = {
        key: (float(value) if not isinstance(value, bool) else value)
        for key, value in estimator.items()
    }
    benchmark.extra_info["estimator_scoring"] = {
        str(m): {
            key: (None if value is None else float(value))
            for key, value in entry.items()
        }
        for m, entry in scoring.items()
    }

    # Acceptance floors.  Mask-setup speedup scales with cohort/shard, so the
    # floor only binds at full measurement sizes — reduced CI cohorts skip it.
    for cohort, entry in mask_setup.items():
        if cohort >= 1000:
            assert entry["speedup"][max(SHARD_SIZES)] >= 5.0
    for cohort, entry in rounds.items():
        # O(shard) masks per device, never O(cohort).
        assert entry["max_masks"] <= 32 - 1
    # The estimator's own receipts must cover the exact values at n <= 14.
    assert estimator["covered"]
    assert estimator["sampled_evaluations"] < estimator["exact_evaluations"]
    # Batched scoring must stay clearly ahead of the scalar walk once the
    # committee is big enough that dedup + one-GEMM batching pay off; the
    # 128-group gate keeps the floor live at the reduced CI size (128 groups)
    # without binding on small committees, where the walk is ~2x behind.
    for m, entry in scoring.items():
        if m >= 128:
            assert entry["speedup"] >= 2.5, (m, entry["speedup"])
