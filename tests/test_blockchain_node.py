"""Tests for miner nodes (repro.blockchain.node)."""

from __future__ import annotations

import pytest

from repro.blockchain.consensus import ConsensusEngine
from repro.blockchain.network import Network
from repro.blockchain.node import MinerNode
from repro.blockchain.storage import InMemoryBackend
from repro.exceptions import ConsensusError

from tests.helpers import count_executions, counter_runtime_factory, counter_tx


def build_cluster(n_nodes=4, byzantine=()):
    network = Network()
    nodes = {}
    for i in range(n_nodes):
        node_id = f"node-{i}"
        nodes[node_id] = MinerNode(
            node_id, network, counter_runtime_factory, byzantine=node_id in byzantine
        )
    return network, nodes


class TestGossip:
    def test_submitted_transaction_reaches_every_mempool(self):
        _, nodes = build_cluster(3)
        tx = counter_tx("node-0", 0)
        nodes["node-0"].submit_transaction(tx)
        assert all(tx.tx_hash in node.mempool for node in nodes.values())

    def test_duplicate_gossip_is_deduplicated(self):
        _, nodes = build_cluster(3)
        tx = counter_tx("node-0", 0)
        nodes["node-0"].submit_transaction(tx)
        nodes["node-1"].submit_transaction(tx)
        assert all(len(node.mempool) == 1 for node in nodes.values())


class TestConsensusRound:
    def test_honest_cluster_commits_block_everywhere(self):
        _, nodes = build_cluster(4)
        nodes["node-0"].submit_transaction(counter_tx("node-0", 0, amount=5))
        engine = ConsensusEngine()
        leader = nodes[engine.select_leader(sorted(nodes))]
        result = leader.run_consensus_round(engine)
        assert result.accepted
        # The leader committed and broadcast; every replica holds the new block.
        assert all(node.chain.height == 1 for node in nodes.values())
        assert all(node.chain.state.get("counter", "value") == 5 for node in nodes.values())

    def test_mempools_are_cleared_after_commit(self):
        _, nodes = build_cluster(3)
        nodes["node-1"].submit_transaction(counter_tx("node-1", 0))
        engine = ConsensusEngine()
        nodes["node-0"].run_consensus_round(engine)
        assert all(len(node.mempool) == 0 for node in nodes.values())

    def test_replicas_stay_in_sync_over_multiple_blocks(self):
        _, nodes = build_cluster(4)
        engine = ConsensusEngine()
        order = sorted(nodes)
        for height in range(3):
            sender = order[height % len(order)]
            nodes[sender].submit_transaction(counter_tx(sender, nodes[sender].chain.next_nonce(sender), amount=height + 1))
            leader = nodes[engine.select_leader(order)]
            leader.run_consensus_round(engine)
        roots = {node.chain.state.state_root() for node in nodes.values()}
        assert len(roots) == 1
        assert list(nodes.values())[0].chain.state.get("counter", "value") == 6

    def test_minority_byzantine_does_not_block_progress(self):
        _, nodes = build_cluster(5, byzantine=("node-4",))
        nodes["node-0"].submit_transaction(counter_tx("node-0", 0, amount=2))
        engine = ConsensusEngine()
        result = nodes["node-0"].run_consensus_round(engine)
        assert result.accepted
        assert result.votes["node-4"] is False

    def test_majority_byzantine_blocks_progress(self):
        _, nodes = build_cluster(5, byzantine=("node-2", "node-3", "node-4"))
        nodes["node-0"].submit_transaction(counter_tx("node-0", 0))
        engine = ConsensusEngine()
        with pytest.raises(ConsensusError):
            nodes["node-0"].run_consensus_round(engine)
        # No honest replica advanced past genesis.
        assert all(node.chain.height == 0 for node in nodes.values())

    def test_verification_votes_record_rejection_reason(self):
        _, nodes = build_cluster(3, byzantine=("node-2",))
        nodes["node-0"].submit_transaction(counter_tx("node-0", 0))
        block = nodes["node-0"].propose_block()
        votes, rejections, unreachable = nodes["node-0"].collect_votes(block)
        assert votes["node-1"] is True
        assert votes["node-2"] is False
        assert "node-2" in rejections
        assert unreachable == {}

    def test_proposal_does_not_mutate_leader_state_before_commit(self):
        _, nodes = build_cluster(3)
        nodes["node-0"].submit_transaction(counter_tx("node-0", 0, amount=9))
        nodes["node-0"].propose_block()
        assert nodes["node-0"].chain.height == 0
        assert nodes["node-0"].chain.state.get("counter", "value") is None


def build_faulty_cluster(plan, n_nodes=4):
    from repro.blockchain.transport import FaultInjectingTransport

    network = Network(FaultInjectingTransport(plan))
    nodes = {}
    for i in range(n_nodes):
        node_id = f"node-{i}"
        nodes[node_id] = MinerNode(node_id, network, counter_runtime_factory)
    return network, nodes


class TestGossipRetry:
    def test_dropped_gossip_is_recovered_by_retry(self):
        from repro.blockchain.transport import FaultPlan, LinkFault

        # Seed 1 drops node-0 -> node-1 on the first attempt and delivers on
        # the first retry (the draws are deterministic under the plan seed).
        plan = FaultPlan(seed=1, links={
            "node-0->node-1": LinkFault(drop_probability=0.6, topics=("tx",)),
        })
        network, nodes = build_faulty_cluster(plan, n_nodes=3)
        tx = counter_tx("node-0", 0)
        report = nodes["node-0"].submit_transaction(tx)
        delivery = report.deliveries["node-1"]
        assert delivery.delivered
        assert delivery.attempts == 2
        assert network.stats.delivery_by_topic["tx"]["retries"] == 1
        assert report.retry_backoffs == [2]
        assert tx.tx_hash in nodes["node-1"].mempool

    def test_retry_budget_is_bounded(self):
        from repro.blockchain.transport import FaultPlan, LinkFault

        plan = FaultPlan(links={
            "node-0->node-1": LinkFault(drop_probability=1.0, topics=("tx",)),
        })
        network, nodes = build_faulty_cluster(plan, n_nodes=3)
        tx = counter_tx("node-0", 0)
        report = nodes["node-0"].submit_transaction(tx)
        delivery = report.deliveries["node-1"]
        assert not delivery.delivered
        assert delivery.attempts == 3  # initial broadcast + max_retries (2)
        assert report.retry_backoffs == [2, 4]  # exponential backoff schedule
        assert tx.tx_hash not in nodes["node-1"].mempool
        assert tx.tx_hash in nodes["node-2"].mempool  # unaffected link delivered


class TestQuorumUnderFaults:
    def test_unreachable_voter_counts_as_abstain_not_hang(self):
        from repro.blockchain.transport import FaultPlan, PartitionSpec

        network, nodes = build_faulty_cluster(FaultPlan())
        network.transport.set_partition(
            PartitionSpec("eclipse", (("node-3",),), direction="inbound")
        )
        nodes["node-0"].submit_transaction(counter_tx("node-0", 0))
        block = nodes["node-0"].propose_block()
        votes, rejections, unreachable = nodes["node-0"].collect_votes(block)
        assert votes == {
            "node-0": True, "node-1": True, "node-2": True, "node-3": False,
        }
        assert unreachable == {"node-3": "partitioned"}
        assert "no vote received" in rejections["node-3"]
        # 3 of 4 accepts: the abstain does not block the majority.
        engine = ConsensusEngine()
        result = nodes["node-0"].run_consensus_round(engine)
        assert result.accepted
        assert result.unreachable == {"node-3": "partitioned"}

    def test_majority_unreachable_rejects_the_round(self):
        from repro.blockchain.transport import FaultPlan, PartitionSpec

        network, nodes = build_faulty_cluster(FaultPlan())
        network.transport.set_partition(
            PartitionSpec("split", (("node-0", "node-1"), ("node-2", "node-3")))
        )
        nodes["node-0"].submit_transaction(counter_tx("node-0", 0))
        engine = ConsensusEngine()
        with pytest.raises(ConsensusError):
            nodes["node-0"].run_consensus_round(engine)
        assert all(node.chain.height == 0 for node in nodes.values())


class TestResync:
    def commit_block(self, nodes, nonce, amount):
        nodes["node-0"].submit_transaction(counter_tx("node-0", nonce, amount=amount))
        return nodes["node-0"].run_consensus_round(ConsensusEngine())

    def test_explicit_resync_after_heal(self):
        from repro.blockchain.transport import FaultPlan, PartitionSpec

        network, nodes = build_faulty_cluster(FaultPlan())
        network.transport.set_partition(
            PartitionSpec("eclipse", (("node-3",),), direction="inbound")
        )
        self.commit_block(nodes, nonce=0, amount=5)
        assert nodes["node-3"].chain.height == 0  # missed the commit entirely
        network.transport.heal_all()
        assert nodes["node-3"].try_resync() is True
        assert nodes["node-3"].chain.height == 1
        assert nodes["node-3"].chain.head.block_hash == nodes["node-0"].chain.head.block_hash
        assert nodes["node-3"].chain.state.get("counter", "value") == 5
        assert nodes["node-3"].resyncs == [
            {"peer": "node-0", "from_height": 0, "to_height": 1, "blocks": 1}
        ]

    def test_gapped_commit_triggers_automatic_resync(self):
        from repro.blockchain.transport import FaultPlan, PartitionSpec

        network, nodes = build_faulty_cluster(FaultPlan())
        network.transport.set_partition(
            PartitionSpec("eclipse", (("node-3",),), direction="inbound")
        )
        self.commit_block(nodes, nonce=0, amount=5)
        network.transport.heal_all()
        # The next commit arrives above node-3's height: it must fill the gap
        # from its peers instead of rejecting the block.
        self.commit_block(nodes, nonce=1, amount=2)
        assert nodes["node-3"].chain.height == 2
        assert nodes["node-3"].chain.head.block_hash == nodes["node-0"].chain.head.block_hash
        assert nodes["node-3"].resyncs and nodes["node-3"].resyncs[0]["peer"] == "node-0"

    def test_resync_without_ahead_peer_reports_failure(self):
        from repro.blockchain.transport import FaultPlan

        _, nodes = build_faulty_cluster(FaultPlan())
        assert nodes["node-0"].try_resync() is False
        assert nodes["node-0"].resyncs == []


class _CountingBackend(InMemoryBackend):
    """Records which persistence calls a replica makes."""

    def __init__(self):
        self.calls = []

    def commit_block(self, block, touched, delta, nonces):
        self.calls.append(("commit_block", block.height))

    def rewrite(self, chain):
        self.calls.append(("rewrite", chain.height))


class TestSyncBoundary:
    """TOPIC_SYNC carries blocks, and catch-up is verify-and-append over them."""

    def lagging_cluster(self, length, behind):
        """Four nodes on a chain of ``length`` blocks; node-3 missed the last ``behind``."""
        from repro.blockchain.transport import FaultPlan, PartitionSpec

        network, nodes = build_faulty_cluster(FaultPlan())
        for nonce in range(length):
            if nonce == length - behind:
                network.transport.set_partition(
                    PartitionSpec("eclipse", (("node-3",),), direction="inbound")
                )
            nodes["node-0"].submit_transaction(counter_tx("node-0", nonce, amount=nonce + 1))
            nodes["node-0"].run_consensus_round(ConsensusEngine())
        network.transport.heal_all()
        assert nodes["node-3"].chain.height == length - behind
        return network, nodes

    def test_the_sync_answer_is_a_list_of_blocks(self):
        from repro.blockchain.block import Block
        from repro.blockchain.node import TOPIC_SYNC

        network, nodes = self.lagging_cluster(length=4, behind=2)
        delivery = network.send("node-3", "node-0", TOPIC_SYNC, {"height": 2})
        assert delivery.status == "delivered"
        assert type(delivery.result) is list
        assert [type(block) for block in delivery.result] == [Block, Block]
        assert [block.height for block in delivery.result] == [3, 4]
        # At or above the server's height there is nothing to serve.
        for height in (4, 5, 10 ** 6):
            assert network.send("node-3", "node-0", TOPIC_SYNC, {"height": height}).result == []

    @pytest.mark.parametrize(
        "request_payload",
        [None, 3, "height", [("height", 1)], {}, {"heigth": 1}, {"height": -1},
         {"height": True}, {"height": 1.0}, {"height": "1"}, {"height": None}],
    )
    def test_a_malformed_sync_request_is_an_error_delivery(self, request_payload):
        from repro.blockchain.node import TOPIC_SYNC

        network, _ = build_cluster(2)
        delivery = network.send("node-1", "node-0", TOPIC_SYNC, request_payload)
        assert delivery.status == "error" and delivery.result is None
        assert "non-negative integer height" in delivery.error

    @pytest.mark.parametrize("length", [4, 40])
    def test_k_blocks_behind_is_k_appends_k_commits_and_no_rewrite(self, length):
        behind = 3
        _, nodes = self.lagging_cluster(length, behind)
        laggard = nodes["node-3"]
        backend = _CountingBackend()
        laggard.chain.storage = backend  # attached mid-flight: only the calls matter
        appended = []
        append = laggard.chain.verify_and_append
        laggard.chain.verify_and_append = lambda block: (appended.append(block.height), append(block))
        assert laggard.try_resync() is True
        expected = list(range(length - behind + 1, length + 1))
        assert appended == expected
        assert backend.calls == [("commit_block", height) for height in expected]
        assert laggard.chain.head.block_hash == nodes["node-0"].chain.head.block_hash
        assert laggard.resyncs == [
            {"peer": "node-0", "from_height": length - behind, "to_height": length,
             "blocks": behind}
        ]

    def test_nothing_past_a_tampered_block_is_adopted_and_the_next_peer_is_tried(self):
        import dataclasses

        from repro.blockchain.node import TOPIC_SYNC

        network, nodes = self.lagging_cluster(length=3, behind=3)
        honest = nodes["node-0"].chain.blocks
        forged = dataclasses.replace(
            honest[2], header=dataclasses.replace(honest[2].header, state_root="11" * 32)
        )
        network.subscribe("node-0", TOPIC_SYNC, lambda sender, request: [honest[1], forged, honest[3]])
        laggard = nodes["node-3"]
        assert laggard.try_resync() is True
        assert [b.block_hash for b in laggard.chain.blocks] == [b.block_hash for b in honest]
        assert laggard.resyncs == [
            {"peer": "node-0", "from_height": 0, "to_height": 1, "blocks": 1},
            {"peer": "node-1", "from_height": 1, "to_height": 3, "blocks": 2},
        ]

    def test_a_lone_tampering_peer_leaves_the_replica_at_the_last_good_block(self):
        import dataclasses

        from repro.blockchain.node import TOPIC_SYNC

        network, nodes = self.lagging_cluster(length=3, behind=3)
        honest = nodes["node-0"].chain.blocks
        forged = dataclasses.replace(
            honest[2], header=dataclasses.replace(honest[2].header, state_root="11" * 32)
        )
        for peer in ("node-0", "node-1", "node-2"):
            network.subscribe(peer, TOPIC_SYNC, lambda sender, request: [forged, honest[3]])
        laggard = nodes["node-3"]
        root = laggard.chain.state.state_root()
        assert laggard.try_resync() is False
        assert laggard.chain.height == 0 and laggard.chain.state.state_root() == root
        assert laggard.resyncs == []

    def test_a_diverged_prefix_adopts_nothing(self):
        _, nodes = self.lagging_cluster(length=3, behind=3)
        laggard = nodes["node-3"]
        laggard.chain.propose_block("node-3", [counter_tx("node-3", 0, amount=99)])
        own_head = laggard.chain.head.block_hash
        assert laggard.try_resync() is False
        assert (laggard.chain.height, laggard.chain.head.block_hash) == (1, own_head)
        assert laggard.chain.state.get("counter", "value") == 99
        assert laggard.resyncs == []

    def test_the_mempool_holds_no_transaction_of_an_adopted_block(self):
        _, nodes = self.lagging_cluster(length=3, behind=2)
        laggard = nodes["node-3"]
        missed = [tx for block in nodes["node-0"].chain.blocks[2:] for tx in block.transactions]
        pending = counter_tx("node-1", 0, amount=7)
        for tx in missed + [pending]:
            assert laggard.mempool.add(tx)
        assert laggard.try_resync() is True
        assert [tx.tx_hash for tx in laggard.mempool.peek()] == [pending.tx_hash]


class TestOneExecutionPerReplica:
    """Every miner executes every block — once: at its vote, or at the commit it did not vote on."""

    N_TXS = 3

    def executions(self, nodes):
        """Per-node ``execute_transaction`` calls, live."""
        return {node_id: count_executions(node.chain) for node_id, node in nodes.items()}

    def counts(self, calls):
        return {node_id: len(executed) for node_id, executed in calls.items()}

    def submit_round(self, nodes, first_nonce=0):
        for offset in range(self.N_TXS):
            nodes["node-0"].submit_transaction(counter_tx("node-0", first_nonce + offset))

    def test_a_nine_replica_round_executes_each_transaction_nine_times(self):
        _, nodes = build_cluster(9)
        calls = self.executions(nodes)
        self.submit_round(nodes)
        assert nodes["node-0"].run_consensus_round(ConsensusEngine()).accepted
        assert self.counts(calls) == {node_id: self.N_TXS for node_id in nodes}
        assert len({node.chain.state.state_root() for node in nodes.values()}) == 1
        assert all(node.chain._verified is None for node in nodes.values())

    def test_a_replica_that_missed_the_proposal_executes_at_the_commit(self):
        from repro.blockchain.transport import FaultPlan, LinkFault

        plan = FaultPlan(links={
            "node-0->node-3": LinkFault(drop_probability=1.0, topics=("proposal",)),
        })
        _, nodes = build_faulty_cluster(plan)
        calls = self.executions(nodes)
        self.submit_round(nodes)
        result = nodes["node-0"].run_consensus_round(ConsensusEngine())
        assert result.accepted and result.votes["node-3"] is False
        assert self.counts(calls) == {node_id: self.N_TXS for node_id in nodes}
        assert len({node.chain.head.block_hash for node in nodes.values()}) == 1

    def test_a_replica_catching_up_executes_every_block_it_takes(self):
        from repro.blockchain.transport import FaultPlan, PartitionSpec

        network, nodes = build_faulty_cluster(FaultPlan())
        calls = self.executions(nodes)
        network.transport.set_partition(
            PartitionSpec("eclipse", (("node-3",),), direction="inbound")
        )
        self.submit_round(nodes)
        nodes["node-0"].run_consensus_round(ConsensusEngine())
        assert calls["node-3"] == []
        network.transport.heal_all()
        # Round 2's proposal finds node-3 a block behind: it takes block 1 by
        # re-execution, then votes on (executes) block 2 and adopts it.
        self.submit_round(nodes, first_nonce=self.N_TXS)
        nodes["node-0"].run_consensus_round(ConsensusEngine())
        assert self.counts(calls) == {node_id: 2 * self.N_TXS for node_id in nodes}
        assert {node.chain.height for node in nodes.values()} == {2}

    def test_a_redelivered_proposal_and_commit_are_idempotent(self):
        _, nodes = build_cluster(3)
        calls = self.executions(nodes)
        self.submit_round(nodes)
        block = nodes["node-0"].propose_block()
        miner = nodes["node-1"]
        root = miner.chain.state.state_root()
        for _ in range(3):
            assert miner._on_proposal("node-0", block) == {"vote": True, "error": ""}
            assert (miner.chain.height, miner.chain.state.state_root()) == (0, root)
        assert len(calls["node-1"]) == 3 * self.N_TXS  # every vote is an execution
        for _ in range(3):
            assert miner._on_commit("node-0", block) is True
        assert len(calls["node-1"]) == 3 * self.N_TXS  # the commit adopted; duplicates acked
        assert miner._on_proposal("node-0", block)["vote"] is False  # a stale proposal
        assert miner.chain.height == 1 and miner.chain.head.block_hash == block.block_hash
        assert miner.chain.state.get("counter", "value") == self.N_TXS
