"""Tests for the pluggable transport layer (repro.blockchain.transport).

Covers the deterministic-transport parity pins (chains byte-identical to the
pre-transport runs), the FaultPlan's declarative surface (JSON round-trip,
link wildcards, partition direction semantics), and the seeded determinism of
the fault-injecting transport itself.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.blockchain.network import Network, NetworkStats
from repro.blockchain.transport import (
    DELIVERED,
    DROPPED,
    ERROR,
    PARTITIONED,
    TIMEOUT,
    DeterministicTransport,
    FaultInjectingTransport,
    FaultPlan,
    LinkFault,
    PartitionSpec,
    SocketTransport,
)
from repro.core.config import ProtocolConfig
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets
from repro.exceptions import BlockchainError
from tests.helpers import SocketPeers, echo_handler, send_one

# Head hash of the 4-owner/2-round reference run.  The default
# DeterministicTransport must reproduce it byte for byte.
PIN_HEAD = "7cb91f4c1370af1fc67b2794b0f480771e50c0352bc94cd3211cbca59ea9e049"


def reference_run():
    dataset, owners = make_owner_datasets(n_owners=4, sigma=0.1, n_samples=400, seed=7)
    config = ProtocolConfig(
        n_owners=4, n_groups=2, n_rounds=2, local_epochs=2, permutation_seed=7,
        learning_rate=2.0,
    )
    protocol = BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config
    )
    protocol.run()
    return protocol


class TestDeterministicTransportParity:
    def test_default_network_uses_deterministic_transport(self):
        net = Network()
        assert isinstance(net.transport, DeterministicTransport)
        assert net.faulty is False

    def test_full_run_head_hash_matches_pre_transport_pin(self):
        protocol = reference_run()
        head = protocol.participants["owner-0"].node.chain.head.block_hash
        assert head == PIN_HEAD


class TestFaultPlanDeclaration:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=11,
            drop_probability=0.1,
            duplicate_probability=0.05,
            latency_ticks=3,
            timeout_ticks=2,
            partitions=(
                PartitionSpec("split", (("a", "b"), ("c",)), direction="both",
                              start_tick=1, heal_tick=4),
            ),
            links={"a->b": LinkFault(drop_probability=1.0, topics=("tx",))},
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_probabilities_are_validated(self):
        with pytest.raises(BlockchainError):
            FaultPlan(drop_probability=1.5)
        with pytest.raises(BlockchainError):
            LinkFault(duplicate_probability=-0.1)

    def test_partition_rejects_overlapping_cells_and_bad_direction(self):
        with pytest.raises(BlockchainError):
            PartitionSpec("bad", (("a",), ("a", "b")))
        with pytest.raises(BlockchainError):
            PartitionSpec("bad", (("a",),), direction="sideways")

    def test_link_fault_resolution_prefers_most_specific_key(self):
        plan = FaultPlan(links={
            "a->b": LinkFault(drop_probability=0.9),
            "a->*": LinkFault(drop_probability=0.5),
            "*->c": LinkFault(drop_probability=0.1),
        })
        assert plan.link_fault("a", "b", "tx").drop_probability == 0.9
        assert plan.link_fault("a", "c", "tx").drop_probability == 0.5
        assert plan.link_fault("x", "c", "tx").drop_probability == 0.1
        assert plan.link_fault("x", "y", "tx") is None

    def test_topic_scoped_link_fault_ignores_other_topics(self):
        plan = FaultPlan(links={"a->b": LinkFault(drop_probability=1.0, topics=("proposal",))})
        assert plan.link_fault("a", "b", "proposal") is not None
        assert plan.link_fault("a", "b", "tx") is None


def fanout_network(transport, nodes=("a", "b", "c", "d")):
    """A network of trivial echo subscribers on one topic."""
    net = Network(transport)
    log = []
    for node in nodes:
        net.join(node)
        net.subscribe(node, "t", lambda sender, payload, node=node: log.append(node) or f"ack-{node}")
    return net, log


class TestPartitionSemantics:
    def test_both_direction_blocks_cross_cell_traffic_only(self):
        spec = PartitionSpec("split", (("a", "b"), ("c",)))
        assert spec.blocks("a", "c") and spec.blocks("c", "a")
        assert not spec.blocks("a", "b")
        # d is in the implicit cell: cut off from both explicit cells.
        assert spec.blocks("a", "d") and spec.blocks("d", "c")

    def test_inbound_eclipse_lets_victim_talk_out(self):
        spec = PartitionSpec("eclipse", (("v",),), direction="inbound")
        assert spec.blocks("a", "v")
        assert not spec.blocks("v", "a")

    def test_outbound_partition_blocks_only_egress(self):
        spec = PartitionSpec("mute", (("v",),), direction="outbound")
        assert spec.blocks("v", "a")
        assert not spec.blocks("a", "v")

    def test_scheduled_partition_window_and_heal(self):
        transport = FaultInjectingTransport(FaultPlan(partitions=(
            PartitionSpec("split", (("a",), ("b",)), start_tick=1, heal_tick=2),
        )))
        net, _ = fanout_network(transport, nodes=("a", "b"))
        report = net.broadcast("a", "t", 1)  # tick 0: not yet active
        assert report.deliveries["b"].status == DELIVERED
        net.begin_round()  # tick 1: active
        report = net.broadcast("a", "t", 2)
        assert report.deliveries["b"].status == PARTITIONED
        net.begin_round()  # tick 2: healed by schedule
        report = net.broadcast("a", "t", 3)
        assert report.deliveries["b"].status == DELIVERED

    def test_dynamic_partition_and_heal(self):
        transport = FaultInjectingTransport(FaultPlan())
        net, _ = fanout_network(transport, nodes=("a", "b"))
        transport.set_partition(PartitionSpec("split", (("a",), ("b",))))
        assert net.broadcast("a", "t", 1).deliveries["b"].status == PARTITIONED
        transport.heal("split")
        assert net.broadcast("a", "t", 2).deliveries["b"].status == DELIVERED


class TestFaultInjection:
    def test_seeded_runs_are_identical(self):
        outcomes = []
        for _ in range(2):
            transport = FaultInjectingTransport(FaultPlan(
                seed=3, drop_probability=0.3, duplicate_probability=0.2, latency_ticks=2,
            ))
            net, log = fanout_network(transport)
            trace = []
            for i in range(20):
                report = net.broadcast("a", "t", i)
                trace.append({r: (d.status, d.duplicates, d.latency)
                              for r, d in report.deliveries.items()})
            outcomes.append((trace, log))
        assert outcomes[0] == outcomes[1]

    def test_different_seeds_diverge(self):
        traces = []
        for seed in (1, 2):
            transport = FaultInjectingTransport(FaultPlan(seed=seed, drop_probability=0.5))
            net, _ = fanout_network(transport)
            traces.append([
                {r: d.status for r, d in net.broadcast("a", "t", i).deliveries.items()}
                for i in range(20)
            ])
        assert traces[0] != traces[1]

    def test_latency_reorders_deliveries_within_a_broadcast(self):
        transport = FaultInjectingTransport(FaultPlan(
            timeout_ticks=10,
            links={"a->b": LinkFault(latency_ticks=5), "a->c": LinkFault(), "a->d": LinkFault()},
        ))
        net, log = fanout_network(transport)
        reordered = False
        for i in range(30):
            del log[:]
            report = net.broadcast("a", "t", i)
            assert all(d.status == DELIVERED for d in report.deliveries.values())
            if log != sorted(log):
                reordered = True
        assert reordered, "a latency draw never pushed b behind c/d in 30 broadcasts"

    def test_latency_beyond_timeout_is_recorded_as_timeout_but_handler_ran(self):
        transport = FaultInjectingTransport(FaultPlan(
            timeout_ticks=0, links={"a->b": LinkFault(latency_ticks=1)},
        ))
        net, log = fanout_network(transport, nodes=("a", "b"))
        saw_timeout = False
        for i in range(30):
            del log[:]
            report = net.broadcast("a", "t", i)
            delivery = report.deliveries["b"]
            assert log == ["b"], "the handler must run even when the response is lost"
            if delivery.status == TIMEOUT:
                saw_timeout = True
                assert delivery.result is None
        assert saw_timeout

    def test_forced_response_timeout_runs_handler_without_result(self):
        transport = FaultInjectingTransport(FaultPlan(
            links={"a->b": LinkFault(response_timeout=True)},
        ))
        net, log = fanout_network(transport, nodes=("a", "b"))
        report = net.broadcast("a", "t", 0)
        assert report.deliveries["b"].status == TIMEOUT
        assert log == ["b"]

    def test_duplicates_invoke_handler_twice_and_are_counted(self):
        transport = FaultInjectingTransport(FaultPlan(
            links={"a->b": LinkFault(duplicate_probability=1.0)},
        ))
        net, log = fanout_network(transport, nodes=("a", "b"))
        report = net.broadcast("a", "t", 0)
        assert report.deliveries["b"].status == DELIVERED
        assert report.deliveries["b"].duplicates == 1
        assert log == ["b", "b"]
        assert net.stats.delivery_by_topic["t"]["duplicated"] == 1

    def test_certain_drop_is_reported_and_counted(self):
        transport = FaultInjectingTransport(FaultPlan(drop_probability=1.0))
        net, log = fanout_network(transport, nodes=("a", "b"))
        report = net.broadcast("a", "t", 0)
        assert report.deliveries["b"].status == DROPPED
        assert report.undelivered() == ["b"]
        assert log == []
        assert net.stats.delivery_by_topic["t"]["dropped"] == 1


class TestNetworkDeliveryAccounting:
    def test_broadcast_captures_handler_errors_per_recipient(self):
        # Regression: a raising handler used to abort the delivery loop,
        # leaving later recipients skipped with no record of the failure.
        net = Network()
        received = []
        for node in ("a", "b", "c", "d"):
            net.join(node)
        net.subscribe("b", "t", lambda s, p: received.append("b") or "ack-b")
        net.subscribe("c", "t", lambda s, p: (_ for _ in ()).throw(RuntimeError("boom")))
        net.subscribe("d", "t", lambda s, p: received.append("d") or "ack-d")
        deliveries = net.broadcast("a", "t", 1).deliveries
        assert received == ["b", "d"], "recipients after the failing handler must still deliver"
        assert deliveries["b"].result == "ack-b" and deliveries["d"].result == "ack-d"
        failure = deliveries["c"]
        assert failure.status == ERROR
        assert failure.recipient == "c" and "boom" in failure.error
        assert net.stats.delivery_by_topic["t"]["errors"] == 1

    def test_send_captures_handler_exceptions(self):
        net = Network()
        net.join("a")
        net.join("b")
        net.subscribe("b", "t", lambda s, p: (_ for _ in ()).throw(ValueError("bad")))
        delivery = net.send("a", "b", "t", 1)
        assert delivery.status == ERROR and "bad" in delivery.error

    def test_send_reports_an_undelivered_message(self):
        net = Network(FaultInjectingTransport(FaultPlan(drop_probability=1.0)))
        net.join("a")
        net.join("b")
        net.subscribe("b", "t", lambda s, p: "ack")
        delivery = net.send("a", "b", "t", 1)
        assert delivery.status == DROPPED

    def test_stats_distinguish_attempted_and_delivered(self):
        net = Network(FaultInjectingTransport(FaultPlan(seed=1, drop_probability=0.5)))
        for node in ("a", "b", "c"):
            net.join(node)
            net.subscribe(node, "t", lambda s, p: None)
        for i in range(10):
            net.broadcast("a", "t", i)
        counters = net.stats.delivery_report()["by_topic"]["t"]
        assert counters["attempted"] == 20
        assert counters["delivered"] + counters["dropped"] == 20
        assert 0 < counters["dropped"] < 20
        assert net.stats.as_dict()["delivery"]["totals"]["attempted"] == 20

    def test_legacy_stats_record_shape_is_preserved(self):
        stats = NetworkStats()
        stats.record("tx", payload_bytes=10, recipients=3)
        payload = stats.as_dict()
        assert payload["messages_sent"] == 3
        assert payload["bytes_sent"] == 30
        assert payload["bytes_by_topic"] == {"tx": 30}
        assert payload["delivery"]["totals"]["attempted"] == 3


class TestSyncOverSockets:
    """The sync boundary over real sockets: a frame of blocks, re-executed on arrival."""

    @pytest.mark.timeout(60)
    def test_catch_up_over_async_transport_carries_blocks_only(self):
        import tempfile

        from repro.blockchain.block import Block
        from repro.blockchain.node import TOPIC_SYNC
        from repro.blockchain.swarm import SwarmConfig, SwarmPeer, make_round_transactions

        config = SwarmConfig(peers=2, rounds=3, use_storage=False)
        ahead_id, behind_id = config.peer_ids()
        with tempfile.TemporaryDirectory(prefix="sync-") as tmp:
            table = {ahead_id: f"{tmp}/a.sock", behind_id: f"{tmp}/b.sock"}
            ahead = SwarmPeer(config, ahead_id, table, None)
            behind = SwarmPeer(config, behind_id, table, None)
            try:
                for round_index in range(config.rounds):
                    ahead.node.chain.propose_block(
                        ahead_id, make_round_transactions(config, round_index)
                    )
                served = behind.network.send(behind_id, ahead_id, TOPIC_SYNC, {"height": 1})
                assert served.status == DELIVERED and type(served.result) is list
                assert [type(block) for block in served.result] == [Block, Block]
                refused = behind.network.send(behind_id, ahead_id, TOPIC_SYNC, {"height": "1"})
                assert refused.status == ERROR and "integer height" in refused.error
                assert behind.node.try_resync() is True
                assert behind.node.chain.head.block_hash == ahead.node.chain.head.block_hash
                assert behind.node.resyncs == [
                    {"peer": ahead_id, "from_height": 0, "to_height": 3, "blocks": 3}
                ]
            finally:
                ahead.transport.stop()
                behind.transport.stop()


@pytest.mark.timeout(30)
class TestPeerLinkReconnect:
    """A link outlives the connection under it: lost, stale, and clogged sockets."""

    def test_requests_after_a_lost_connection_ride_a_reopened_one(self, tmp_path):
        # Regression: a peer goes away while the link to it sits idle and is
        # back at once (the kill/restart drill).  The next write meets the
        # dead socket; the link reopens lazily and the restarted peer answers
        # that request and the ones after it — no spurious timeout.
        with SocketPeers(tmp_path, "a", "b") as peers:
            sender = peers.transport("a")
            first = peers.transport("b", echo_handler)
            assert send_one(sender, "b", 1).result == 1
            first.stop()
            peers.transport("b", echo_handler)
            outcomes = [send_one(sender, "b", value) for value in (2, 3, 4)]
            assert [(o.status, o.result) for o in outcomes] == [(DELIVERED, v) for v in (2, 3, 4)]
            assert sender.counters["timeouts"] == sender.counters["reconnects"] == 0
            assert sender.counters["frames_sent"] == 4

    def test_dead_peer_costs_one_connect_sweep_per_down_window(self, tmp_path, monkeypatch):
        monkeypatch.setattr(SocketTransport, "CONNECT_ATTEMPTS", 2)
        monkeypatch.setattr(SocketTransport, "DOWN_WINDOW", 0.5)
        with SocketPeers(tmp_path, "a", "b") as peers:
            sender = peers.transport("a")
            swept = send_one(sender, "b", 1)
            assert swept.status == TIMEOUT and "unreachable" in swept.error
            start = time.monotonic()
            fast = send_one(sender, "b", 2)
            assert fast.status == TIMEOUT and "marked down" in fast.error
            assert time.monotonic() - start < 0.05  # no second sweep inside the window
            assert sender.counters["timeouts"] == 2 and sender.counters["frames_sent"] == 0
            peers.transport("b", echo_handler)
            time.sleep(SocketTransport.DOWN_WINDOW)  # the peer is up by the time the window ends
            assert send_one(sender, "b", 3).result == 3

    def test_timed_out_request_never_answers_the_next_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(SocketTransport, "REQUEST_TIMEOUT", 0.2)
        handled = []

        def slow_once(sender, topic, payload):
            handled.append(payload)
            if payload == "slow":
                time.sleep(0.6)
            return payload

        with SocketPeers(tmp_path, "a", "b") as peers:
            sender = peers.transport("a")
            peers.transport("b", slow_once)
            late = send_one(sender, "b", "slow")
            assert late.status == TIMEOUT and "no response within 0.2s" in late.error
            # The stale answer is still on its way when the next request goes out.
            answered = send_one(sender, "b", "next")
            assert (answered.status, answered.result) == (DELIVERED, "next")
            assert handled == ["slow", "next"]
            assert sender.counters["timeouts"] == 1

    def test_peer_that_never_reads_is_dropped_by_the_write_deadline(self, tmp_path):
        with SocketPeers(tmp_path, "a", "b", "c") as peers:
            sender = peers.transport("a")
            peers.transport("c", echo_handler)
            clogged = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            clogged.bind(peers.table["b"])
            clogged.listen(1)
            accepted = []
            acceptor = threading.Thread(target=lambda: accepted.append(clogged.accept()[0]))
            acceptor.start()
            try:
                start = time.monotonic()
                dropped = send_one(sender, "b", b"x" * (8 << 20))
                elapsed = time.monotonic() - start
                assert dropped.status == DROPPED and "did not drain" in dropped.error
                assert SocketTransport.BACKPRESSURE_WAIT <= elapsed < 2.0
                assert sender.counters["backpressure_drops"] == 1
                assert sender._link("b").sock is None  # half a frame went out: link reset
                assert send_one(sender, "c", "after").status == DELIVERED
            finally:
                acceptor.join(timeout=5)
                assert not acceptor.is_alive()
                for sock in (*accepted, clogged):
                    sock.close()
