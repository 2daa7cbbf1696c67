"""The benchmark's fixed vocabulary: workloads, their sizes, and the contract file.

Metric names, units, directions and bounds are read from ``BENCHMARK.json``
(the single source of truth); this module only adds what that file's schema
has no room for — how a workload's size follows from ``--seconds`` and which
per-layer counts must repeat bit for bit under one seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Audit passes per run; ``audit_s`` is their median.
AUDIT_PASSES = 7
#: ``round_s`` on ``xdev-*`` comes from the harness's own timers, which is only
#: sound while they cover (nearly) the whole call.
MIN_TIMER_COVER = 0.97


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a deployment, its inputs, and its size rule.

    ``full_rounds`` rounds take about ``full_seconds`` on the box ISSUE 11 was
    sized on, so ``--seconds S`` runs ``full_rounds * S / full_seconds`` rounds
    — a pure function of the argument, never of the clock, so the committed
    chain (and every exact count) is reproducible.  ``warmup_rounds`` more
    rounds run first, committed and counted as operations but charged to
    ``setup_s``: the first rounds of a process pay lazy imports, allocator
    growth and cold caches.
    """

    name: str
    deployment: str
    full_rounds: int
    full_seconds: float
    smoke_rounds: int
    params: dict[str, Any] = field(default_factory=dict)
    smoke_params: dict[str, Any] = field(default_factory=dict)

    def size(self, seconds: float, smoke: bool = False) -> dict[str, Any]:
        """The concrete inputs of one run (everything but the seed)."""
        if smoke:
            return {**self.params, **self.smoke_params, "rounds": self.smoke_rounds}
        # At least four timed rounds: the traced pass alternates plain and
        # instrumented rounds and needs two of each for a median.
        rounds = max(4, round(self.full_rounds * seconds / self.full_seconds))
        return {**self.params, "rounds": rounds + self.params.get("warmup_rounds", 0)}


# ``min_timer_cover`` is 0 at smoke size: there the harness's fixed set-up
# outweighs its rounds, so the threshold that validates ``round_s`` at full
# size does not apply.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "silo9", "silo", full_rounds=100, full_seconds=30.0, smoke_rounds=5,
            params={"owners": 9, "groups": 3, "samples": 1500, "warmup_rounds": 3},
            smoke_params={"samples": 600, "warmup_rounds": 1},
        ),
        Workload(
            "xdev-wide", "xdev", full_rounds=14, full_seconds=28.0, smoke_rounds=2,
            params={"devices": 1000, "shard_size": 32, "sv_samples": 64,
                    "min_timer_cover": MIN_TIMER_COVER},
            smoke_params={"devices": 128, "sv_samples": 16, "min_timer_cover": 0.0},
        ),
        Workload(
            "xdev-narrow", "xdev", full_rounds=20, full_seconds=28.0, smoke_rounds=2,
            params={"devices": 800, "shard_size": 4, "sv_samples": 200,
                    "min_timer_cover": MIN_TIMER_COVER},
            smoke_params={"devices": 80, "sv_samples": 40, "min_timer_cover": 0.0},
        ),
        Workload(
            "swarm4", "swarm", full_rounds=600, full_seconds=28.0, smoke_rounds=30,
            params={"peers": 4, "txs_per_round": 8, "warmup_rounds": 10},
            smoke_params={"warmup_rounds": 4},
        ),
    )
}

#: Per-layer counts that are pure functions of (workload, size, seed):
#: ``compare`` requires them equal between two result files.
EXACT = frozenset(
    {
        "contracts.gas_per_round",
        "contracts.txs_per_round",
        "state.keys",
        "serialization.block_bytes",
        "network.messages_per_round",
        "network.bytes_per_round",
        "audit.rounds_checked",
        "masking.pair_masks_per_round",
        "estimator.coalitions_per_round",
        "estimator.cache_hits_per_round",
        "estimator.batches_per_round",
    }
)


@dataclass(frozen=True)
class Contract:
    """``BENCHMARK.json`` parsed: metric name -> its declared attributes."""

    run_seconds: int
    workloads: tuple[str, ...]
    end_to_end: dict[str, dict[str, Any]]
    per_layer: dict[str, dict[str, Any]]

    def unit(self, name: str) -> str:
        return (self.end_to_end.get(name) or self.per_layer[name])["unit"]


def load_contract(path: Path = BENCHMARK_JSON) -> Contract:
    """Read ``BENCHMARK.json``; a missing file is a broken checkout, so it raises."""
    document = json.loads(path.read_text())
    return Contract(
        run_seconds=int(document["run_seconds"]),
        workloads=tuple(entry["name"] for entry in document["workloads"]),
        end_to_end={entry["name"]: entry for entry in document["end_to_end"]},
        per_layer={entry["name"]: entry for entry in document["per_layer"]},
    )
