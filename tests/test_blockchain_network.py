"""Tests for the simulated P2P network (repro.blockchain.network)."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.network import Network, NetworkStats, wire_record
from repro.blockchain.node import TOPIC_COMMIT, TOPIC_PROPOSAL
from repro.blockchain.storage import block_from_record, block_to_record
from repro.blockchain.swarm import SwarmConfig, run_reference_workload
from repro.blockchain.transaction import Transaction
from repro.core.config import ProtocolConfig
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets
from repro.exceptions import BlockchainError
from repro.utils.hashing import hash_payload
from repro.utils.serialization import canonical_dumps, canonical_loads
from tests.helpers import CANONICAL_VALUES


class TestMembership:
    def test_join_and_peers(self):
        net = Network()
        net.join("b")
        net.join("a")
        assert net.peers() == ["a", "b"]

    def test_double_join_rejected(self):
        net = Network()
        net.join("a")
        with pytest.raises(BlockchainError):
            net.join("a")

    def test_subscribe_requires_join(self):
        net = Network()
        with pytest.raises(BlockchainError):
            net.subscribe("ghost", "topic", lambda s, p: None)


class TestBroadcast:
    def test_broadcast_reaches_all_other_subscribers(self):
        net = Network()
        received = {}
        for node in ("a", "b", "c"):
            net.join(node)
            net.subscribe(node, "tx", lambda sender, payload, node=node: received.setdefault(node, payload))
        net.broadcast("a", "tx", {"v": 1})
        assert set(received) == {"b", "c"}

    def test_broadcast_returns_handler_results(self):
        net = Network()
        for node in ("a", "b", "c"):
            net.join(node)
            net.subscribe(node, "vote", lambda sender, payload, node=node: f"ack-{node}")
        report = net.broadcast("a", "vote", "ping")
        assert {r: d.result for r, d in report.deliveries.items()} == {"b": "ack-b", "c": "ack-c"}
        assert all(delivery.delivered for delivery in report.deliveries.values())

    def test_broadcast_order_is_deterministic(self):
        net = Network()
        order = []
        for node in ("c", "a", "b"):
            net.join(node)
            net.subscribe(node, "t", lambda sender, payload, node=node: order.append(node))
        net.broadcast("c", "t", None)
        assert order == ["a", "b"]

    def test_unknown_sender_rejected(self):
        net = Network()
        net.join("a")
        with pytest.raises(BlockchainError):
            net.broadcast("ghost", "t", None)

    def test_broadcast_without_subscribers_is_fine(self):
        net = Network()
        net.join("a")
        assert net.broadcast("a", "unknown-topic", 1).deliveries == {}


class TestSend:
    def test_point_to_point_delivery(self):
        net = Network()
        net.join("a")
        net.join("b")
        net.subscribe("b", "dm", lambda sender, payload: (sender, payload))
        delivery = net.send("a", "b", "dm", 42)
        assert delivery.delivered and delivery.result == ("a", 42)

    def test_send_to_unsubscribed_recipient_rejected(self):
        net = Network()
        net.join("a")
        net.join("b")
        with pytest.raises(BlockchainError):
            net.send("a", "b", "dm", 42)


class TestStats:
    def test_stats_accumulate(self):
        net = Network()
        for node in ("a", "b", "c"):
            net.join(node)
            net.subscribe(node, "tx", lambda sender, payload: None)
        net.broadcast("a", "tx", {"k": "v"})
        assert net.stats.messages_sent == 2
        assert net.stats.bytes_sent > 0
        assert net.stats.messages_by_topic["tx"] == 2

    def test_stats_as_dict(self):
        stats = NetworkStats()
        stats.record("tx", payload_bytes=10, recipients=3)
        payload = stats.as_dict()
        assert payload["messages_sent"] == 3
        assert payload["bytes_sent"] == 30
        assert payload["bytes_by_topic"] == {"tx": 30}


def two_node_network(handler=lambda sender, payload: None):
    net = Network()
    for node in ("a", "b"):
        net.join(node)
        net.subscribe(node, "tx", handler)
    return net


def masked_update_tx(n_elements):
    payload = np.arange(n_elements, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return Transaction(
        sender="a", contract="fl_training", method="submit_masked_update",
        args={"round_number": 0, "payload": payload},
    )


class TestAccountedBytes:
    """A message is sized by its canonical wire record, never by a ``repr``."""

    def test_accounted_bytes_grow_with_the_model(self):
        # Regression: numpy summarises an array above 1000 elements, so the old
        # ``len(repr(tx))`` accounted a 1001-parameter update at under 400 bytes.
        sizes = []
        for n_elements in (650, 1000, 1001, 7850):
            tx = masked_update_tx(n_elements)
            net = two_node_network()
            net.broadcast("a", "tx", tx)
            assert net.stats.bytes_sent == len(canonical_dumps(tx.to_record()))
            assert net.stats.bytes_sent >= 8 * n_elements * 4 / 3  # base64 of the raw words
            sizes.append(net.stats.bytes_sent)
        assert sizes == sorted(set(sizes))

    def test_every_gossiped_block_is_accounted_at_its_record(self, monkeypatch):
        recorded = []
        record = NetworkStats.record

        def spy(self, topic, payload_bytes, recipients, peer=""):
            recorded.append((topic, payload_bytes))
            record(self, topic, payload_bytes, recipients, peer=peer)

        monkeypatch.setattr(NetworkStats, "record", spy)
        dataset, owners = make_owner_datasets(n_owners=9, sigma=0.1, n_samples=450, seed=7)
        protocol = BlockchainFLProtocol(
            owners, dataset.test_features, dataset.test_labels, dataset.n_classes,
            ProtocolConfig(n_owners=9, n_groups=3, n_rounds=2, local_epochs=2, permutation_seed=7),
        )
        protocol.run()
        fl_chain = protocol.participants[protocol.owner_ids[0]].node.chain
        fl_sizes, recorded[:] = list(recorded), []
        swarm_chain = run_reference_workload(SwarmConfig(peers=4, rounds=3, txs_per_round=2, seed=7))["chain"]
        for chain, sizes in ((fl_chain, fl_sizes), (swarm_chain, recorded)):
            blocks = chain.blocks[1:]
            assert len(blocks) >= 3
            expected = [len(canonical_dumps(block_to_record(block))) for block in blocks]
            for topic in (TOPIC_PROPOSAL, TOPIC_COMMIT):  # each block is gossiped once per topic
                assert [size for seen, size in sizes if seen == topic] == expected
            for block in blocks:
                rebuilt = block_from_record(canonical_loads(canonical_dumps(block_to_record(block))))
                assert rebuilt.block_hash == block.block_hash
                assert all(hash_payload(tx.to_record()) == tx.tx_hash for tx in block.transactions)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(CANONICAL_VALUES, max_size=3), as_transactions=st.booleans())
    def test_sizing_is_a_pure_function_of_the_payload(self, values, as_transactions):
        if as_transactions:
            payload = [
                Transaction(sender="a", contract="c", method="m", args={"value": value}, nonce=i)
                for i, value in enumerate(values)
            ]
            record = [tx.to_record() for tx in payload]
        else:
            payload = record = values
        assert canonical_dumps(wire_record(payload)) == canonical_dumps(record)
        before = copy.deepcopy(record)
        sizes = []
        for options in ({}, {"threshold": 2, "precision": 1}):
            with np.printoptions(**options):
                net = two_node_network()
                net.broadcast("a", "tx", payload)
                sizes.append(net.stats.bytes_sent)
        assert sizes == [len(canonical_dumps(record))] * 2  # a list sizes as its canonical dump
        assert canonical_dumps(record) == canonical_dumps(before)  # and is never mutated

    @pytest.mark.parametrize("payload", [object(), {1: "int key"}, [{"ok": 1}, object()]])
    def test_a_payload_with_no_canonical_form_is_refused_before_delivery(self, payload):
        handled = []
        net = two_node_network(lambda sender, payload: handled.append(payload))
        net.broadcast("a", "tx", {"ok": 1})
        before = net.stats.as_dict()
        for deliver in (lambda: net.broadcast("a", "tx", payload), lambda: net.send("a", "b", "tx", payload)):
            with pytest.raises(BlockchainError, match=f"'tx' payload of type {type(payload).__name__}"):
                deliver()
        assert net.stats.as_dict() == before
        assert handled == [{"ok": 1}]


class TestStatsConcurrency:
    """Regression: delivery accounting must balance under real concurrency.

    The async transport records outcomes from a thread pool; the historical
    single-dict counters lost increments under that load, breaking the
    ``attempted == delivered + dropped + partitioned + timed_out + errors``
    invariant every delivery report is trusted for.  Per-peer buckets merged
    at report time (plus the recording lock) are the fix — this hammers the
    recording surface from many threads and asserts the books balance.
    """

    @pytest.mark.timeout(60)
    def test_accounting_balances_across_threads(self):
        import threading

        from repro.blockchain.transport import (
            DELIVERED,
            DROPPED,
            PARTITIONED,
            TIMEOUT,
            Delivery,
        )

        stats = NetworkStats()
        statuses = (DELIVERED, DROPPED, PARTITIONED, TIMEOUT)
        topics = ("tx", "proposal", "commit")
        per_thread = 200
        threads = 8
        start = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            peer = f"peer-{worker}"
            start.wait()
            for i in range(per_thread):
                topic = topics[i % len(topics)]
                stats.record(topic, payload_bytes=7, recipients=1, peer=peer)
                outcome = Delivery("r", statuses[i % len(statuses)], duplicates=i % 2)
                stats.record_outcome(topic, outcome, peer=peer)
                if i % 5 == 0:
                    # A retry is itself re-attempted through record(); the
                    # retry counter is bookkeeping on the side.
                    stats.record_retries(topic, 1, peer=peer)

        workers = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()

        report = stats.delivery_report()
        assert report["totals"]["attempted"] == threads * per_thread
        for topic, counters in report["by_topic"].items():
            outcomes = (
                counters["delivered"]
                + counters["dropped"]
                + counters["partitioned"]
                + counters["timed_out"]
                + counters["errors"]
            )
            assert counters["attempted"] == outcomes, f"{topic} books do not balance"

        # The per-peer view must partition the totals exactly.
        per_peer = stats.per_peer_report()
        assert len(per_peer) == threads
        assert (
            sum(p["messages_sent"] for p in per_peer.values())
            == stats.messages_sent
            == threads * per_thread
        )
