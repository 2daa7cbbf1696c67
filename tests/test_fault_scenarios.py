"""End-to-end fault scenarios: the swarm must heal back onto the pinned chain.

These tests run the full protocol over the fault-injecting transport and pin
the acceptance criteria: partition-heal and eclipse converge to the exact head
hash of an undisturbed run, audits pass in both replay and incremental modes,
a resynced victim is byte-identical to the replicas that never left, and every
faulty run is deterministic under a fixed FaultPlan seed.
"""

from __future__ import annotations

import pytest

from repro.blockchain.transport import FaultPlan, LinkFault
from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import (
    DuplicateStormScenario,
    EclipseScenario,
    FaultScenario,
    LossyGossipScenario,
    PartitionAndHealScenario,
    RoundScheduler,
)
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets
from repro.exceptions import ProtocolError, RoundError

# Head hashes of the undisturbed 4-owner/2-round reference runs (the plain one
# is also pinned in tests/test_transport_faults.py) — healed fault runs must
# land exactly here.
PIN_HEAD_PLAIN = "7cb91f4c1370af1fc67b2794b0f480771e50c0352bc94cd3211cbca59ea9e049"
PIN_HEAD_ROTATION = "279fc820ddd12648aab231eb74332d5168096a0791f3f73054cf057b1a99adcd"


@pytest.fixture(scope="module")
def cohort():
    return make_owner_datasets(n_owners=4, sigma=0.1, n_samples=400, seed=7)


def build_protocol(cohort, authority_rotation: bool) -> BlockchainFLProtocol:
    dataset, owners = cohort
    config = ProtocolConfig(
        n_owners=4, n_groups=2, n_rounds=2, local_epochs=2, permutation_seed=7,
        learning_rate=2.0, authority_rotation=authority_rotation,
    )
    return BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config
    )


def all_heads(protocol) -> dict[str, str]:
    return {
        owner: protocol.participants[owner].node.chain.head.block_hash
        for owner in protocol.owner_ids
    }


class TestPartitionAndHeal:
    def test_partitioned_round_heals_onto_the_pinned_chain(self, cohort):
        protocol = build_protocol(cohort, authority_rotation=True)
        scenario = PartitionAndHealScenario(round_number=1, heal_after_attempts=1)
        scheduler = RoundScheduler(protocol, scenario)
        result = scheduler.run()

        heads = all_heads(protocol)
        assert set(heads.values()) == {PIN_HEAD_ROTATION}

        # Round 1's first attempt ran split and aborted; the retry committed.
        attempts = [
            (ctx.round_number, ctx.metadata.get("attempt"), ctx.consensus is not None)
            for ctx in scheduler.contexts
        ]
        assert attempts == [(0, 0, True), (1, 0, False), (1, 1, True)]

        # The aborted attempt's delivery delta records the partitioned traffic.
        aborted = scheduler.contexts[1].metadata["delivery"]
        assert aborted["totals"]["partitioned"] > 0

        chain = protocol.participants["owner-0"].node.chain
        for mode in ("replay", "incremental"):
            dataset, _ = cohort
            report = audit_chain(
                chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
                mode=mode,
            )
            assert report.passed, f"{mode} audit failed: {report.mismatches}"

        totals = result.delivery_report["totals"]
        assert totals["partitioned"] > 0
        assert totals["delivered"] > 0

    def test_requires_authority_rotation(self, cohort):
        protocol = build_protocol(cohort, authority_rotation=False)
        with pytest.raises(ProtocolError, match="authority rotation"):
            RoundScheduler(protocol, PartitionAndHealScenario())


class TestEclipse:
    def test_eclipsed_victim_resyncs_byte_identical(self, cohort):
        protocol = build_protocol(cohort, authority_rotation=True)
        scenario = EclipseScenario(victim="owner-2", rounds=(1,))
        protocol.run(scenario)

        heads = all_heads(protocol)
        assert set(heads.values()) == {PIN_HEAD_ROTATION}

        # The victim fell behind during the eclipse and recovered via the
        # chain's fast-sync path from an honest peer.
        victim = protocol.participants["owner-2"].node
        assert victim.resyncs == [
            {"peer": "owner-0", "from_height": 2, "to_height": 3, "blocks": 1}
        ]

        # Byte-identical to the reference replica, block by block.
        reference = protocol.participants["owner-0"].node.chain
        assert [b.block_hash for b in victim.chain.blocks] == [
            b.block_hash for b in reference.blocks
        ]
        # ... and equivalent to a full replay of the same ledger: the replay
        # audit recomputes every state transition from the transactions alone.
        dataset, _ = cohort
        report = audit_chain(
            victim.chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
            mode="replay",
        )
        assert report.passed

    def test_victim_cannot_be_the_reference_replica(self, cohort):
        protocol = build_protocol(cohort, authority_rotation=True)
        with pytest.raises(ProtocolError, match="reference replica"):
            protocol.run(EclipseScenario(victim="owner-0"))


class TestLossyGossip:
    def test_seeded_lossy_runs_are_fully_deterministic(self, cohort):
        outcomes = []
        for _ in range(2):
            protocol = build_protocol(cohort, authority_rotation=False)
            result = protocol.run(LossyGossipScenario(drop_probability=0.08, seed=1))
            outcomes.append((
                all_heads(protocol),
                result.delivery_report,
                result.reward_balances,
            ))
        assert outcomes[0] == outcomes[1]
        heads, report, _ = outcomes[0]
        assert len(set(heads.values())) == 1
        assert report["totals"]["dropped"] > 0
        assert report["totals"]["retries"] > 0


class TestDuplicateStorm:
    def test_duplicates_are_benign_and_chain_is_pinned(self, cohort):
        protocol = build_protocol(cohort, authority_rotation=False)
        result = protocol.run(DuplicateStormScenario(duplicate_probability=0.5, seed=1))
        heads = all_heads(protocol)
        assert set(heads.values()) == {PIN_HEAD_PLAIN}
        assert result.delivery_report["totals"]["duplicated"] > 0


class _RoundOneLinkFault(FaultScenario):
    """Injects a link fault on round 1's scheduled view-0 proposer."""

    requires_authority_rotation = True

    def __init__(self, fault: LinkFault) -> None:
        super().__init__(plan=FaultPlan(), round_retries=1)
        self.fault = fault

    def on_round_start(self, ctx) -> None:
        if ctx.round_number != 1:
            return
        leader = self.protocol.round_proposers(1)[0]
        self.transport.add_link_fault(f"{leader}->*", self.fault)


class TestViewChangeUnderFaults:
    """Satellite: a silent leader and a vote-starved leader must resolve the
    same way — the view changes and the SAME next scheduled proposer commits,
    deterministically."""

    @pytest.mark.parametrize("fault", [
        # Case A: the leader's proposal never reaches the voters.
        LinkFault(drop_probability=1.0, topics=("proposal",)),
        # Case B: the proposal arrives and the voters vote, but every vote
        # response is lost — timeouts must count as abstains, not hangs.
        LinkFault(response_timeout=True, topics=("proposal",)),
    ], ids=["proposal-dropped", "votes-timed-out"])
    def test_lost_proposal_and_lost_votes_resolve_identically(self, cohort, fault):
        protocol = build_protocol(cohort, authority_rotation=True)
        scheduler = RoundScheduler(protocol, _RoundOneLinkFault(fault))
        scheduler.run()

        round_ctx = next(c for c in scheduler.contexts if c.round_number == 1)
        assert round_ctx.metadata["view"] == 1
        (change,) = round_ctx.metadata["view_changes"]
        assert change["leader"] == protocol.round_proposers(1)[0]

        # Both fault shapes hand round 1 to the same scheduled backup.
        expected_backup = protocol.round_proposers(1)[1]
        round_block = protocol.participants["owner-0"].node.chain.blocks[3]
        assert round_block.header.proposer == expected_backup
        assert len(set(all_heads(protocol).values())) == 1


class _FailingLeaders(FaultScenario):
    """Fails round 0's first ``how_many`` candidate proposers in one ``mode``."""

    def __init__(self, mode: str, how_many: int) -> None:
        super().__init__(plan=FaultPlan())
        self.mode = mode
        self.how_many = how_many
        self.victims: list[str] = []

    def candidates(self) -> list[str]:
        """Round 0's failover order: the epoch schedule's views, or the round-robin slots."""
        protocol = self.protocol
        if protocol.config.authority_rotation:
            return protocol.round_proposers(0)
        start, owners = protocol.consensus.round_index, sorted(protocol.owner_ids)
        return [owners[(start + k) % len(owners)] for k in range(len(owners))]

    def _faults(self) -> dict[str, LinkFault]:
        if self.mode == "missing":  # no round transaction ever reaches the leader
            return {f"*->{v}": LinkFault(drop_probability=1.0, topics=("tx",)) for v in self.victims}
        if self.mode == "rejected":  # the leader's proposal reaches no voter
            return {f"{v}->*": LinkFault(drop_probability=1.0, topics=("proposal",)) for v in self.victims}
        return {}

    def on_round_start(self, ctx) -> None:
        if ctx.round_number == 0:
            self.victims = self.candidates()[: self.how_many]
            for key, fault in self._faults().items():
                self.transport.add_link_fault(key, fault)

    def leader_offline(self, ctx, leader_id) -> bool:
        return self.mode == "silent" and ctx.round_number == 0 and leader_id in self.victims

    def on_round_end(self, ctx) -> None:
        for key in self._faults():
            self.transport.remove_link_fault(key)


class TestCommitFailover:
    """One failover walk commits every block: the same three ways to lose a
    leader leave the same log on rotation and round-robin chains, and an
    exhausted walk withdraws what it gossiped."""

    REASONS = {"silent": "silent", "missing": "required transaction(s)",
               "rejected": "was rejected by"}

    @pytest.mark.parametrize("mode", ["silent", "missing", "rejected"])
    @pytest.mark.parametrize("rotation", [True, False], ids=["rotation", "round-robin"])
    def test_lost_leader_fails_over_and_exhaustion_leaves_nothing(self, cohort, rotation, mode):
        protocol = build_protocol(cohort, authority_rotation=rotation)
        scenario = _FailingLeaders(mode, how_many=1)
        scheduler = RoundScheduler(protocol, scenario)
        scheduler.run()
        ctx = scheduler.contexts[0]
        (entry,) = ctx.metadata["view_changes"]
        assert entry["leader"] == scenario.victims[0]
        assert entry["view"] == (0 if rotation else None)
        assert self.REASONS[mode] in entry["reason"]
        assert ctx.metadata["view"] == (1 if rotation else None)
        round_block = protocol.participants["owner-0"].node.chain.blocks[2]
        assert round_block.header.proposer != scenario.victims[0]
        assert len(set(all_heads(protocol).values())) == 1

        doomed = build_protocol(cohort, authority_rotation=rotation)
        with pytest.raises(RoundError, match="every scheduled proposer failed"):
            RoundScheduler(doomed, _FailingLeaders(mode, how_many=4)).run()
        assert doomed.participants["owner-0"].node.chain.height == 1  # setup only
        assert all(len(p.node.mempool.peek()) == 0 for p in doomed.participants.values())
        assert set(doomed._nonces.values()) <= {1, 2}  # setup's only: the abort rewound the round's


class TestAsyncSwarmSoak:
    """Satellite: randomized crash soak over the socket swarm.

    A seeded schedule hard-kills up to a third of the miner processes
    mid-round and restarts them from their SQLite stores a round later.  The
    scheduled leader may be among the dead — the supervisor falls back to the
    next alive peer — so the head is not pinned to the reference here; the
    contract is *convergence*: after healing, every replica reports one single
    head and that chain passes the full replay + version-root audit.
    """

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("soak_seed", [3, 17])
    def test_seeded_kill_restart_soak_converges(self, soak_seed):
        import random

        from repro.blockchain.swarm import SwarmConfig, run_swarm_workload

        config = SwarmConfig(peers=9, rounds=4)
        rng = random.Random(soak_seed)
        victims = tuple(sorted(rng.sample(config.peer_ids(), k=config.peers // 3)))
        kill_round = rng.randrange(1, config.rounds - 1)
        result = run_swarm_workload(config, kill_schedule={kill_round: victims})

        # One audit-clean head across every replica, dead-and-restarted included.
        assert len(result["heads"]) == config.peers
        assert set(result["heads"].values()) == {result["head"]}
        assert result["height"] == config.rounds
        assert result["audit"]["head"] == result["head"]
        assert result["audit"]["height"] == config.rounds

        # The restarted victims came back through storage restore + resync.
        restarted = [
            pid for pid, report in result["reports"].items()
            if not isinstance(report, Exception) and report["restored"]
        ]
        assert set(restarted) == set(victims)
