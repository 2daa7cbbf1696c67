"""``swarm4``: four miner processes over Unix sockets, a SQLite commit per peer per block.

Driven through ``SwarmSupervisor`` with rounds timed around ``run_round``; the
audit is ``fetch_chain`` + ``audit_swarm_chain``; ``run_reference_workload`` is
both the correctness oracle (same head) and the single-process baseline.
"""

from __future__ import annotations

import time
from typing import Any

from roundbench import probes
from roundbench.measure import Ops, Yardstick, charged, median, percentile, timed
from roundbench.spec import AUDIT_PASSES

CTRL_PINGS = 50
#: Rounds between two yardstick samples (~0.25 s).
ROUNDS_PER_SAMPLE = 8
#: Supervisor -> peer commands one round is made of, and the metric each feeds.
CTRL_METRICS = {"tick": "swarm.tick_ms", "submit": "swarm.submit_ms", "round": "swarm.propose_ms"}


def _timed_ctrl(inner, sink: dict[str, list[float]]):
    """A drop-in for ``SwarmSupervisor.ctrl`` that times every control round trip."""

    def ctrl(peer_id, command, args=None, timeout=None):
        start = time.perf_counter()
        try:
            return inner(peer_id, command, args, timeout)
        finally:
            sink.setdefault(command, []).append(time.perf_counter() - start)

    return ctrl


def run(size: dict[str, Any], seed: int, trace: bool, workdir: str,
        entry: float, yardstick: Yardstick) -> dict[str, Any]:
    from repro.blockchain.swarm import (
        SwarmConfig,
        SwarmSupervisor,
        audit_swarm_chain,
        run_reference_workload,
        swarm_runtime_factory,
    )

    rounds, peers, txs = size["rounds"], size["peers"], size["txs_per_round"]
    warmup = size["warmup_rounds"]
    config = SwarmConfig(
        peers=peers, rounds=rounds, txs_per_round=txs, seed=seed,
        state_root_version=3, use_storage=True,
    )
    ops = Ops()
    # ``workdir`` is a short relative path: Unix socket addresses are capped
    # near 108 bytes and the checkout may sit arbitrarily deep.
    supervisor = SwarmSupervisor(config, workdir=workdir)
    # A kernel fired by the timer while peers run would compete with them for
    # the two cores, so until the audits the yardstick is read between rounds
    # instead, when every peer is idle.
    yardstick.stop()
    try:
        yardstick.sample()
        spawn_ready_s, _ = timed(supervisor.start)

        # Traced pass: odd rounds go through the timing ``ctrl``, even rounds
        # through the supervisor's own, so one run yields both overhead arms.
        ctrl_seconds: dict[str, list[float]] = {}
        plain_ctrl = supervisor.ctrl
        timed_ctrl = _timed_ctrl(plain_ctrl, ctrl_seconds)
        arm_seconds: dict[bool, list[float]] = {False: [], True: []}
        round_spans = []
        for round_index in range(rounds):
            if round_index == warmup:
                ctrl_seconds.clear()
                region_start = time.perf_counter()
            if round_index % ROUNDS_PER_SAMPLE == 0:
                yardstick.sample()
            instrumented = trace and round_index % 2 == 1
            supervisor.ctrl = timed_ctrl if instrumented else plain_ctrl
            round_start = time.perf_counter()
            elapsed, _ = timed(supervisor.run_round, round_index)
            if round_index >= warmup:
                arm_seconds[instrumented].append(elapsed)
                round_spans.append((round_start, round_start + elapsed))
            ops.done(supervisor.round_log[-1]["attempts"] == 1)
        yardstick.sample()
        region_end = time.perf_counter()
        supervisor.ctrl = plain_ctrl
        yardstick.start()

        heads = supervisor.converge()
        first_peer = sorted(heads)[0]
        audit_spans = []
        for _ in range(AUDIT_PASSES):
            start = time.perf_counter()
            chain = supervisor.fetch_chain(first_peer)
            summary = audit_swarm_chain(chain)
            audit_spans.append((start, time.perf_counter()))
            ops.done(summary["head"] == heads[first_peer])
        yardstick.stop()
        reports = supervisor.collect_reports()
        pings = [timed(supervisor.ctrl, first_peer, "ping")[0] for _ in range(CTRL_PINGS)]
        attempts = [log["attempts"] for log in supervisor.round_log]
    finally:
        supervisor.stop()

    reference_s, reference = timed(run_reference_workload, config)
    # A peer that failed to answer comes back as the exception it raised.
    reports = {peer: report for peer, report in reports.items() if isinstance(report, dict)}
    ops.check("all_peers_reported", len(reports) == peers)
    deliveries = [report["delivery"]["totals"] for report in reports.values()]
    ops.check("heads_equal_reference", set(heads.values()) == {reference["head"]}
              and len(heads) == peers)
    ops.check("audit_passed", summary["height"] == rounds)
    ops.check("all_attempted_delivered",
              all(d["attempted"] == d["delivered"] for d in deliveries))

    round_seconds = arm_seconds[False] + arm_seconds[True]
    steady_rounds = [yardstick.steady(*span) for span in round_spans]
    out: dict[str, Any] = {
        "digest": chain.head.block_hash,
        "e2e": {
            "setup_s": yardstick.steady(entry, region_start),
            "round_s": median(steady_rounds),
            "updates_per_s": txs * (rounds - warmup)
            / charged(yardstick.steady(region_start, region_end), steady_rounds),
            "audit_s": median([yardstick.steady(*span) for span in audit_spans]),
        },
    }
    if trace:
        transports = [report["transport"] for report in reports.values()]
        # Each peer's ``stats`` report holds only its own sender bucket.
        stats = [bucket for report in reports.values() for bucket in report["stats"].values()]
        store_path = supervisor.handles[first_peer].store_path
        restore_s, _ = probes.restore_seconds(store_path, swarm_runtime_factory)
        out["layers"] = {
            **probes.chain_layers(chain, swarm_runtime_factory, slice(None), workdir),
            "storage.restore_s": restore_s,
            "storage.bytes_per_block": probes.store_bytes(store_path) / chain.height,
            "network.messages_per_round": sum(s["messages_sent"] for s in stats) / rounds,
            "network.bytes_per_round": sum(s["bytes_sent"] for s in stats) / rounds,
            "network.delivered_share": sum(d["delivered"] for d in deliveries)
            / sum(d["attempted"] for d in deliveries),
            "transport.frames_per_round": sum(t["frames_sent"] for t in transports) / rounds,
            "transport.lost_frames": float(
                sum(t["timeouts"] + t["backpressure_drops"] for t in transports)
            ),
            "transport.reconnects": float(sum(t["reconnects"] for t in transports)),
            "swarm.ctrl_rtt_ms": median(pings) * 1e3,
            "swarm.spawn_ready_s": spawn_ready_s,
            "swarm.round_attempts": sum(attempts) / len(attempts),
            "bench.round_median_s": median(round_seconds),
            "swarm.round_p98_s": percentile(round_seconds, 0.98),
            "swarm.reference_round_ms": reference_s / rounds * 1e3,
            **{metric: median(ctrl_seconds[command]) * 1e3
               for command, metric in CTRL_METRICS.items()},
            "bench.trace_overhead": median(arm_seconds[True]) / median(arm_seconds[False]) - 1.0,
        }
    return {**out, "ops": ops}
