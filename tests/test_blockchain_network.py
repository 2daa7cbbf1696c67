"""Tests for the simulated P2P network (repro.blockchain.network)."""

from __future__ import annotations

import pytest

from repro.blockchain.network import Network, NetworkStats
from repro.exceptions import BlockchainError


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
