"""``xdev-wide`` / ``xdev-narrow``: the chain-less cross-device harness.

One call to ``simulate_cross_device`` is the whole timed region.  The harness
times its own three phases per round (``CrossDeviceRound.seconds_*``), so
``round_s`` is their sum — valid only while ``crossdevice.timer_cover`` shows
they account for the call — and everything else in the call is set-up.
"""

from __future__ import annotations

import math
import time
from typing import Any

from roundbench import probes
from roundbench.measure import Ops, Yardstick, charged, median


def run(size: dict[str, Any], seed: int, trace: bool, workdir: str,
        entry: float, yardstick: Yardstick) -> dict[str, Any]:
    import hashlib

    from repro.core.crossdevice import CrossDeviceConfig, simulate_cross_device
    from repro.crypto.sharding import shard_count
    from repro.utils.serialization import canonical_dumps

    rounds = size["rounds"]
    config = CrossDeviceConfig(
        n_devices=size["devices"], shard_size=size["shard_size"],
        sv_samples=size["sv_samples"], n_rounds=rounds, seed=seed,
    )
    call_start = time.perf_counter()
    result = simulate_cross_device(config)
    call_end = time.perf_counter()
    wall_s = call_end - call_start
    round_seconds = [
        r.seconds_masking + r.seconds_aggregation + r.seconds_shapley for r in result.rounds
    ]
    # The harness reports durations, not instants.  Its rounds run back to back
    # up to the return (``timer_cover`` checks that), so counting back from the
    # call's end places each of them on the clock the yardstick stamps.
    round_starts = [call_end - sum(round_seconds[i:]) for i in range(rounds)]
    steady_rounds = [
        yardstick.steady(start, start + seconds)
        for start, seconds in zip(round_starts, round_seconds)
    ]
    steady_call_s = charged(yardstick.steady(call_start, call_end), steady_rounds)

    ops = Ops()
    for _ in result.rounds:
        ops.done()

    cover = sum(round_seconds) / wall_s
    committees = shard_count(config.n_devices, config.shard_size)
    ops.check("mask_count_bounded", result.max_mask_count <= config.shard_size - 1)
    ops.check("global_utility_finite", all(math.isfinite(r.global_utility) for r in result.rounds))
    ops.check("committee_count", all(len(r.shards) == committees for r in result.rounds))
    ops.check("timer_cover", cover >= size["min_timer_cover"])

    out: dict[str, Any] = {
        "digest": hashlib.sha256(
            canonical_dumps(result.total_contributions).encode()
        ).hexdigest(),
        "e2e": {
            # Whatever the call spends before its first timed round (data, base
            # model, key generation, the backend) is set-up: the harness has no
            # entry point that stops before its loop.
            "setup_s": yardstick.steady(entry, round_starts[0]),
            "round_s": median(steady_rounds),
            "updates_per_s": config.n_devices * rounds / steady_call_s,
            # No chain, so no audit short of running the seeded simulation
            # again and comparing totals: the audit costs what the run cost.
            "audit_s": steady_call_s,
        },
    }
    if trace:
        telemetry = [r.estimator["telemetry"] for r in result.rounds]
        mask_s = median([r.seconds_masking for r in result.rounds])
        score_s = median([r.seconds_shapley for r in result.rounds])
        backend_s = median([t["backend_seconds"] for t in telemetry])
        pair_masks = sum(sum(r.mask_counts.values()) for r in result.rounds) / rounds
        dimension = config.n_features * config.n_classes + config.n_classes
        out["layers"] = {
            "masking.mask_s": mask_s,
            "masking.aggregate_s": median([r.seconds_aggregation for r in result.rounds]),
            "masking.pair_masks_per_round": pair_masks,
            "masking.pair_mask_us": mask_s / pair_masks * 1e6,
            **probes.crypto_layers(config.dh_bits, seed, dimension),
            "estimator.score_s": score_s,
            "backend.score_s": backend_s,
            "estimator.overhead_s": median(
                [r.seconds_shapley - t["backend_seconds"] for r, t in zip(result.rounds, telemetry)]
            ),
            "estimator.coalitions_per_round": sum(t["coalitions"] for t in telemetry) / rounds,
            "estimator.cache_hits_per_round": sum(t["cache_hits"] for t in telemetry) / rounds,
            "estimator.batches_per_round": sum(t["batches"] for t in telemetry) / rounds,
            # No ``bench.trace_overhead``: the traced pass adds nothing inside
            # the timed call (the probes above run after it).
            "bench.round_median_s": median(round_seconds),
            "crossdevice.timer_cover": cover,
        }
    return {**out, "ops": ops}
