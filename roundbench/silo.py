"""``silo9``: the paper's own deployment — nine owners, every round on chain.

Driven through ``BlockchainFLProtocol`` / ``RoundScheduler`` / ``SettlementStage``
with the reference replica on a SQLite store; the audit is a third party's:
a replica rebuilt from that store alone, then ``audit_chain``.
"""

from __future__ import annotations

import os
import time
from typing import Any

from roundbench import probes
from roundbench.measure import Ops, Yardstick, charged, median, percentile, timed
from roundbench.spec import AUDIT_PASSES

#: The five stages ISSUE 11 names; sharding and membership (no-ops on this
#: config) fall into ``pipeline.other_s`` with the context build.
STAGE_METRICS = {
    "local-training": "pipeline.local_training_s",
    "masking-submission": "pipeline.masking_submission_s",
    "secure-aggregation": "pipeline.secure_aggregation_s",
    "evaluation": "pipeline.evaluation_s",
    "block-proposal": "pipeline.block_proposal_s",
}


def _timed_stages(stages, sink: dict[str, list[float]]):
    """Wrap each round stage so its wall time lands in ``sink[stage.name]``."""
    from repro.core.pipeline import RoundStage

    class TimedStage(RoundStage):
        def __init__(self, inner: RoundStage) -> None:
            self.inner = inner
            self.name = inner.name

        def run(self, protocol, ctx, scenario) -> None:
            start = time.perf_counter()
            try:
                self.inner.run(protocol, ctx, scenario)
            finally:
                sink.setdefault(self.name, []).append(time.perf_counter() - start)

    return tuple(TimedStage(stage) for stage in stages)


def run(size: dict[str, Any], seed: int, trace: bool, workdir: str,
        entry: float, yardstick: Yardstick) -> dict[str, Any]:
    from repro.blockchain.contracts.base import ContractRuntime
    from repro.blockchain.contracts.contribution import ContributionContract
    from repro.blockchain.contracts.fl_training import FLTrainingContract
    from repro.blockchain.contracts.registry import ParticipantRegistryContract
    from repro.blockchain.contracts.reward import RewardContract
    from repro.core.audit import audit_chain
    from repro.core.config import ProtocolConfig
    from repro.core.pipeline import (
        DEFAULT_ROUND_STAGES,
        ProtocolResult,
        RoundScheduler,
        SettlementStage,
        SetupStage,
    )
    from repro.core.protocol import BlockchainFLProtocol
    from repro.datasets.loader import make_owner_datasets
    from repro.fl.logistic_regression import LogisticRegressionModel

    rounds, owners, warmup = size["rounds"], size["owners"], size["warmup_rounds"]
    dataset, owner_data = make_owner_datasets(
        n_owners=owners, sigma=0.1, n_samples=size["samples"], seed=seed
    )
    validation = (dataset.test_features, dataset.test_labels, dataset.n_classes)
    config = ProtocolConfig(
        n_owners=owners, n_groups=size["groups"], n_rounds=rounds, local_epochs=5,
        learning_rate=2.0, sv_assembly_version=2, state_root_version=3,
        permutation_seed=seed,
    )
    store_path = os.path.join(workdir, "chain.db")
    protocol = BlockchainFLProtocol(owner_data, *validation, config, store=f"sqlite:{store_path}")
    ops = Ops()
    try:
        plain = RoundScheduler(protocol)
        setup_stage_s, _ = timed(SetupStage().run, protocol, plain.scenario)

        stage_seconds: dict[str, list[float]] = {}
        traced = RoundScheduler(
            protocol, round_stages=_timed_stages(DEFAULT_ROUND_STAGES, stage_seconds)
        )
        result = ProtocolResult()
        parameters = LogisticRegressionModel(
            protocol.n_features, protocol.n_classes, l2=config.l2
        ).parameters
        # Traced pass: odd rounds run through the timing wrappers, even rounds
        # through the bare stages, so one run yields both arms of the overhead.
        arm_seconds: dict[bool, list[float]] = {False: [], True: []}
        round_spans = []
        for round_number in range(rounds):
            if round_number == warmup:
                stage_seconds.clear()
                region_start = time.perf_counter()
            instrumented = trace and round_number % 2 == 1
            scheduler = traced if instrumented else plain
            attempts_before = len(scheduler.contexts)
            round_start = time.perf_counter()
            elapsed, round_result = timed(scheduler.run_round, round_number, parameters)
            if round_number >= warmup:
                arm_seconds[instrumented].append(elapsed)
                round_spans.append((round_start, round_start + elapsed))
            ops.done(len(scheduler.contexts) - attempts_before == 1)
            parameters = round_result.global_parameters
            result.rounds.append(round_result)
        result.final_parameters = parameters
        settlement_s, result = timed(SettlementStage().run, protocol, result, plain.scenario)
        region_end = time.perf_counter()
        ops.done()
        heads = {p.node.chain.head.block_hash for p in protocol.participants.values()}
    finally:
        protocol.close()

    def runtime_factory() -> ContractRuntime:
        # What an outside auditor registers: the four public contract classes
        # over the public validation set (cf. ``python -m repro audit``).
        runtime = ContractRuntime()
        runtime.register(ParticipantRegistryContract())
        runtime.register(FLTrainingContract())
        runtime.register(ContributionContract(*validation))
        runtime.register(RewardContract())
        return runtime

    audit_spans, restore_seconds, replay_seconds = [], [], []
    for _ in range(AUDIT_PASSES):
        audit_start = time.perf_counter()
        restore_s, chain = probes.restore_seconds(store_path, runtime_factory)
        replay_s, report = timed(audit_chain, chain, *validation, mode="replay")
        audit_spans.append((audit_start, time.perf_counter()))
        restore_seconds.append(restore_s)
        replay_seconds.append(replay_s)
        ops.done(report.passed)
    incremental_s, incremental = timed(audit_chain, chain, *validation, mode="incremental")

    ops.check("replicas_on_one_head", heads == {chain.head.block_hash})
    ops.check("audit_replay_passed", report.passed)
    ops.check("audit_incremental_passed", incremental.passed)
    ops.check("rounds_checked", len(report.rounds_checked) == rounds
              and len(incremental.rounds_checked) == rounds)

    round_seconds = arm_seconds[False] + arm_seconds[True]
    steady_rounds = [yardstick.steady(*span) for span in round_spans]
    out: dict[str, Any] = {
        "digest": chain.head.block_hash,
        "e2e": {
            "setup_s": yardstick.steady(entry, region_start),
            "round_s": median(steady_rounds),
            "updates_per_s": owners * (rounds - warmup)
            / charged(yardstick.steady(region_start, region_end), steady_rounds),
            "audit_s": median([yardstick.steady(*span) for span in audit_spans]),
        },
    }
    if trace:
        stages = {metric: median(stage_seconds[name]) for name, metric in STAGE_METRICS.items()}
        delivery = result.delivery_report["totals"]
        out["layers"] = {
            **stages,
            "pipeline.other_s": median(arm_seconds[True]) - sum(stages.values()),
            "pipeline.setup_stage_s": setup_stage_s,
            "pipeline.settlement_s": settlement_s,
            "bench.round_median_s": median(round_seconds),
            "pipeline.round_p90_s": percentile(round_seconds, 0.90),
            # Round blocks sit between the setup block and the settlement block.
            **probes.chain_layers(chain, runtime_factory, slice(1, -1), workdir),
            "storage.restore_s": median(restore_seconds),
            "storage.bytes_per_block": probes.store_bytes(store_path) / chain.height,
            "network.messages_per_round": result.network_stats["messages_sent"] / rounds,
            "network.bytes_per_round": result.network_stats["bytes_sent"] / rounds,
            "network.delivered_share": delivery["delivered"] / delivery["attempted"],
            "audit.replay_s": median(replay_seconds),
            "audit.incremental_s": incremental_s,
            "audit.rounds_checked": float(len(report.rounds_checked)),
            "bench.trace_overhead": median(arm_seconds[True]) / median(arm_seconds[False]) - 1.0,
        }
    return {**out, "ops": ops}
