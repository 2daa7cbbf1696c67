"""Tests for miner nodes (repro.blockchain.node)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.blockchain.consensus import ConsensusEngine
from repro.blockchain.network import Network
from repro.blockchain.node import TOPIC_TRANSACTIONS, MinerNode
from repro.blockchain.storage import StorageBackend
from repro.blockchain.transaction import Transaction
from repro.exceptions import ConsensusError, InvalidTransactionError

from tests.helpers import CANONICAL_VALUES, count_executions, counter_runtime_factory, counter_tx


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
        assert all(len(node.mempool.peek()) == 1 for node in nodes.values())


    def test_an_own_transaction_whose_nonce_is_consumed_is_not_queued(self):
        # A retried round re-submits what may already have committed: the
        # submitter's own mempool admits it like a peer's would, or not at all.
        _, nodes = build_cluster(3)
        tx = counter_tx("node-0", 0)
        nodes["node-0"].submit_transaction(tx)
        nodes["node-0"].run_consensus_round(ConsensusEngine())
        nodes["node-0"].submit_transaction(tx)
        nodes["node-0"].submit_transactions([tx])
        assert all(tx.tx_hash not in node.mempool for node in nodes.values())

    @pytest.mark.parametrize("batch", [False, True], ids=["one", "batch"])
    def test_an_own_invalid_transaction_raises_at_the_submit_call(self, batch):
        network, nodes = build_cluster(3)
        forged = dataclasses.replace(counter_tx("node-0", 0), signature="00" * 32)
        sent = network.stats.messages_sent
        with pytest.raises(InvalidTransactionError, match="bad signature"):
            if batch:
                nodes["node-0"].submit_transactions([forged])
            else:
                nodes["node-0"].submit_transaction(forged)
        assert network.stats.messages_sent == sent  # nothing was gossiped
        assert all(not node.mempool.peek() for node in nodes.values())


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
        assert all(len(node.mempool.peek()) == 0 for node in nodes.values())

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
        assert delivery.status == "delivered"
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
        assert delivery.status != "delivered"
        assert delivery.attempts == 3  # initial broadcast + max_retries (2)
        assert report.retry_backoffs == [2, 4]  # exponential backoff schedule
        assert tx.tx_hash not in nodes["node-1"].mempool
        assert tx.tx_hash in nodes["node-2"].mempool  # unaffected link delivered


def _forged_tx(**overrides):
    """A ``Transaction`` as a hostile pickle delivers it: fields set, ``__post_init__`` never run."""
    fields = {"sender": "alice", "contract": "counter", "method": "increment",
              "args": {"amount": 1}, "nonce": 2, "signature": "", **overrides}
    tx = object.__new__(Transaction)
    tx.__setstate__(fields)
    return tx


# alice has two committed transactions (nonces 0 and 1 are stale), bob none.
_WELL_FORMED = st.builds(
    counter_tx, st.sampled_from(["alice", "bob"]), st.integers(0, 4), amount=st.integers(0, 2)
)
_JUNK = st.one_of(
    CANONICAL_VALUES,
    st.lists(_WELL_FORMED, max_size=2),  # a nested list is junk, not a batch within a batch
    st.builds(_forged_tx, nonce=st.one_of(st.none(), st.text(max_size=2), st.floats())),
    st.builds(_forged_tx, sender=st.one_of(st.none(), st.just(["alice"]))),
    st.builds(_forged_tx, args=st.just({"amount": object()})),
)
# (whether the element is a well-formed, correctly signed transaction, the element)
_ELEMENTS = st.one_of(
    _WELL_FORMED.map(lambda tx: (True, tx)),
    _WELL_FORMED.map(lambda tx: (False, dataclasses.replace(tx, signature="00" * 32))),
    _JUNK.map(lambda junk: (False, junk)),
)


class TestBatchedGossip:
    """The ``tx`` topic carries a transaction or a list of them; it is a trust boundary."""

    def receiver(self):
        """node-1 of a two-node cluster with two of alice's transactions committed."""
        network, nodes = build_cluster(2)
        nodes["node-0"].submit_transactions([counter_tx("alice", 0), counter_tx("alice", 1)])
        nodes["node-0"].run_consensus_round(ConsensusEngine())
        return nodes["node-1"], network.handler_for("node-1", TOPIC_TRANSACTIONS)

    @settings(max_examples=200, deadline=None)
    @given(single=st.booleans(), elements=st.lists(_ELEMENTS, min_size=1, max_size=8),
           pending=st.lists(_WELL_FORMED, max_size=2))
    def test_the_handler_answers_elementwise_and_admits_exactly_the_valid_fresh(
        self, single, elements, pending
    ):
        node, handler = self.receiver()
        handler("node-0", pending)
        held = [tx.tx_hash for tx in node.mempool.peek()]
        if single:  # one element travels bare
            elements = elements[:1]
            payload = elements[0][1]
            assume(not isinstance(payload, list))
        else:
            payload = [element for _, element in elements]
        expected = []
        for well_formed, element in elements:
            expected.append(
                well_formed and element.nonce >= node.chain.next_nonce(element.sender)
                and element.tx_hash not in held
            )
            if expected[-1]:
                held.append(element.tx_hash)
        answer = handler("node-0", payload)  # never raises
        if isinstance(payload, list):
            assert type(answer) is list and answer == expected
        else:
            assert answer is expected[0]
        assert [tx.tx_hash for tx in node.mempool.peek()] == held

    def test_one_bad_element_never_poisons_its_neighbours(self):
        node, handler = self.receiver()
        good = [counter_tx("alice", 2), counter_tx("bob", 0), counter_tx("alice", 3)]
        batch = [
            good[0],
            dataclasses.replace(counter_tx("bob", 1), signature="00" * 32),
            None,
            good[1],
            [counter_tx("bob", 2)],
            counter_tx("alice", 1),  # stale
            _forged_tx(nonce="2"),
            good[0],  # duplicate
            good[2],
        ]
        assert handler("node-0", batch) == [True, False, False, True, False, False, False, False, True]
        assert [tx.tx_hash for tx in node.mempool.peek()] == [tx.tx_hash for tx in good]
        assert handler("node-0", []) == []

    @pytest.mark.parametrize("n_txs", [1, 2, 8])
    def test_a_batch_and_one_by_one_leave_the_same_mempools_and_the_same_next_block(self, n_txs):
        txs = [counter_tx(f"owner-{i % 3}", i // 3, amount=i) for i in range(n_txs)]
        (batch_net, batched), (single_net, singly) = build_cluster(4), build_cluster(4)
        report = batched["node-0"].submit_transactions(txs)
        for tx in txs:
            singly["node-0"].submit_transaction(tx)
        assert all(delivery.result == [True] * n_txs for delivery in report.deliveries.values())
        for node_id in batched:
            assert [tx.tx_hash for tx in batched[node_id].mempool.peek()] == [tx.tx_hash for tx in txs]
            assert [tx.tx_hash for tx in singly[node_id].mempool.peek()] == [tx.tx_hash for tx in txs]
        # One message per recipient instead of one per transaction per recipient.
        assert batch_net.stats.messages_by_topic == {"tx": 3}
        assert single_net.stats.messages_by_topic == {"tx": 3 * n_txs}
        heads = []
        for nodes in (batched, singly):
            assert nodes["node-0"].run_consensus_round(ConsensusEngine()).accepted
            heads.append({node.chain.head.block_hash for node in nodes.values()})
        assert heads[0] == heads[1] and len(heads[0]) == 1

    def test_a_retried_batch_is_deduplicated_and_the_rounds_commit_the_reference_head(self):
        from repro.blockchain.swarm import (
            SwarmConfig,
            make_round_transactions,
            run_reference_workload,
            swarm_runtime_factory,
        )
        from repro.blockchain.transport import FaultInjectingTransport, FaultPlan, LinkFault

        config = SwarmConfig(peers=4, rounds=3, txs_per_round=8, seed=7)
        # miner-001 never sees a `tx` frame on the first try; miner-002 runs the
        # handler but its answer is lost, so every sweep redelivers the batch.
        plan = FaultPlan(seed=1, links={
            "miner-000->miner-001": LinkFault(drop_probability=0.6, topics=("tx",)),
            "miner-000->miner-002": LinkFault(response_timeout=True, topics=("tx",)),
        })
        network = Network(FaultInjectingTransport(plan))
        nodes = {
            peer_id: MinerNode(peer_id, network, swarm_runtime_factory)
            for peer_id in config.peer_ids()
        }
        seen = []
        admit = nodes["miner-002"]._on_transaction
        network.subscribe(
            "miner-002", TOPIC_TRANSACTIONS,
            lambda sender, payload: (seen.append(admit(sender, payload)), seen[-1])[1],
        )
        leader = nodes["miner-000"]
        txs = make_round_transactions(config, 0)
        report = leader.submit_transactions(txs)
        delivery = report.deliveries["miner-001"]
        assert delivery.status == "delivered" and delivery.attempts == 2
        assert report.undelivered() == ["miner-002"]
        assert seen == [[True] * 8, [False] * 8, [False] * 8]  # 1 + MAX_RETRIES deliveries, one admission
        for node in nodes.values():
            assert [tx.tx_hash for tx in node.mempool.peek()] == [tx.tx_hash for tx in txs]
        leader.run_consensus_round(ConsensusEngine())
        for round_index in range(1, config.rounds):
            network.begin_round()
            leader = nodes[config.leader_for(round_index)]
            leader.submit_transactions(make_round_transactions(config, round_index))
            leader.run_consensus_round(ConsensusEngine())
        assert {node.chain.head.block_hash for node in nodes.values()} == {
            run_reference_workload(config)["head"]
        }
        assert all(len(node.mempool.peek()) == 0 for node in nodes.values())


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


class _CountingBackend(StorageBackend):
    """Records which persistence calls a replica makes."""

    def __init__(self):
        self.calls = []

    def commit_block(self, block, state):
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
