"""Concurrency-determinism harness for the socket miner swarm.

The acceptance criterion of the socket transport is brutal and simple: a swarm
of N miner OS processes gossiping pickled frames over Unix sockets must end on
a head *byte-identical* to the single-process :class:`DeterministicTransport`
run of the same config — clean, repeatedly, at 8/16/64 peers, and under a
seeded partition-heal ``FaultPlan``.  Every test carries a hard timeout: a
hung swarm must fail loudly, not wedge the suite.
"""

from __future__ import annotations

import pytest

from repro.blockchain.swarm import (
    SwarmConfig,
    run_reference_workload,
    run_swarm_workload,
)
from repro.blockchain.transport import FaultPlan, LinkFault, PartitionSpec

# Pinned head hashes of the deterministic reference workload.  They depend
# only on (rounds, txs_per_round, seed) — never on the
# peer count or the transport — so every swarm size below pins to one of
# these two literals.
PIN_HEAD_ROUNDS2 = "ac2c74016a255d2eb4322bda134e28985b7be0340599bff0216e5c97fbae86d3"
PIN_HEAD_ROUNDS3 = "5fb810d54e4290ece18a5ee4c439b46c10f9a28876f5701f2f9cd47b7217f28d"


def _assert_parity(config: SwarmConfig, pin: str, **run_kwargs) -> dict:
    reference = run_reference_workload(config)
    assert reference["head"] == pin, "reference workload drifted off its pin"
    result = run_swarm_workload(config, **run_kwargs)
    assert result["head"] == reference["head"]
    assert result["height"] == reference["height"] == config.rounds
    # Convergence is global: every surviving replica reports the same head.
    assert set(result["heads"].values()) == {reference["head"]}
    # And the swarm chain itself audits clean (replay + version roots).
    assert result["audit"]["height"] == config.rounds
    return result


@pytest.mark.timeout(120)
@pytest.mark.parametrize("rep", range(3))
def test_swarm_parity_8_peers(rep: int) -> None:
    """8 miner processes land byte-for-byte on the deterministic head, 3x."""
    config = SwarmConfig(peers=8, rounds=3, use_storage=False)
    _assert_parity(config, PIN_HEAD_ROUNDS3)


@pytest.mark.timeout(180)
@pytest.mark.parametrize("rep", range(3))
def test_swarm_parity_16_peers(rep: int) -> None:
    """16 miner processes land byte-for-byte on the deterministic head, 3x."""
    config = SwarmConfig(peers=16, rounds=2, use_storage=False)
    _assert_parity(config, PIN_HEAD_ROUNDS2)


@pytest.mark.timeout(420)
def test_swarm_parity_64_peers() -> None:
    """Acceptance: a 64-process swarm matches the single-process reference."""
    config = SwarmConfig(peers=64, rounds=2, use_storage=False)
    result = _assert_parity(config, PIN_HEAD_ROUNDS2)
    assert len(result["heads"]) == 64


@pytest.mark.timeout(420)
def test_swarm_parity_64_peers_under_fault_plan() -> None:
    """Acceptance: same head under a seeded FaultPlan with partition-heal.

    A minority cell of 8 miners is cut off mid-run and healed; one link gets
    deterministic latency and another deterministically drops tx gossip.
    Retries re-propose identical blocks and the healed minority resyncs, so
    the final head must still be byte-identical to the clean reference.
    """
    cell = tuple(f"miner-{i:03d}" for i in range(40, 48))
    plan = FaultPlan(
        seed=11,
        timeout_ticks=2,
        partitions=(
            PartitionSpec(name="minority-cut", cells=(cell,), start_tick=2, heal_tick=4),
        ),
        links=(
            ("miner-010->*", LinkFault(latency_ticks=1)),
            ("*->miner-020", LinkFault(drop_probability=0.3, topics=("tx",))),
        ),
    )
    config = SwarmConfig(peers=64, rounds=2, use_storage=False, fault_plan=plan)
    result = _assert_parity(config, PIN_HEAD_ROUNDS2)
    # The plan must have actually bitten: the transports saw fault activity.
    reports = [r for r in result["reports"].values() if not isinstance(r, Exception)]
    assert reports, "no per-peer delivery reports collected"
    faults_seen = sum(
        r["transport"].get("partitioned", 0) + r["transport"].get("fault_drops", 0)
        for r in reports
    )
    assert faults_seen > 0, "fault plan never fired — the test is vacuous"


@pytest.mark.timeout(180)
def test_swarm_kill_restart_resyncs_from_storage() -> None:
    """A killed miner restarted from its SQLite store rejoins and converges.

    The victims are taken from the top of the id range so neither is a
    scheduled leader — the committed blocks stay identical to the reference
    while the drill exercises the crash/restart/resync path for real.
    """
    config = SwarmConfig(peers=8, rounds=3)
    kill_schedule = {1: ("miner-006", "miner-007")}
    result = _assert_parity(config, PIN_HEAD_ROUNDS3, kill_schedule=kill_schedule)
    reports = result["reports"]
    for victim in ("miner-006", "miner-007"):
        report = reports[victim]
        assert not isinstance(report, Exception)
        assert report["resyncs"], f"{victim} restarted without resyncing"
        assert report["restored"], f"{victim} did not restore from its store"


@pytest.mark.timeout(120)
def test_swarm_delivery_reports_balance() -> None:
    """Per-peer delivery accounting must balance across real concurrency.

    Every peer's merged NetworkStats must satisfy, per topic::

        attempted == delivered + dropped + partitioned + timed_out + errors

    which is exactly the invariant the per-peer counter buckets exist to
    protect (a racy shared ``dict += 1`` loses counts under the thread pool).
    """
    config = SwarmConfig(peers=8, rounds=2, use_storage=False)
    result = run_swarm_workload(config)
    assert result["head"] == PIN_HEAD_ROUNDS2
    checked = 0
    for peer_id, report in sorted(result["reports"].items()):
        assert not isinstance(report, Exception), f"{peer_id}: {report}"
        for topic, counters in report["delivery"]["by_topic"].items():
            outcomes = (
                counters["delivered"]
                + counters["dropped"]
                + counters["partitioned"]
                + counters["timed_out"]
                + counters["errors"]
            )
            assert counters["attempted"] == outcomes, (
                f"{peer_id}/{topic}: attempted {counters['attempted']} != "
                f"sum of outcomes {outcomes}"
            )
            checked += 1
    assert checked > 0
