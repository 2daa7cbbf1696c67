"""The blocking-socket transport at its edges (repro.blockchain.transport).

What a swarm run only shows in aggregate, pinned here in one process: the
delivery order of a broadcast, counters that stay exact under threads, a frame
reader and a connection loop that survive arbitrary bytes, and a ``stop()``
that leaves no thread, descriptor or address behind.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.network import Network
from repro.blockchain.node import TOPIC_TRANSACTIONS
from repro.blockchain.swarm import SwarmConfig, SwarmPeer, make_round_transactions
from repro.blockchain.transport import (
    DELIVERED,
    ERROR,
    MAX_FRAME_BYTES,
    TIMEOUT,
    FaultPlan,
    LinkFault,
    SocketTransport,
    encode_frame,
    read_frame_sync,
)
from repro.exceptions import BlockchainError
from tests.helpers import SocketPeers, echo_handler, send_one

pytestmark = pytest.mark.timeout(60)


def _request(path: str, frame: dict, timeout: float = 5.0):
    """One raw frame exchange on a fresh connection, as the supervisor does it."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        client.settimeout(timeout)
        client.connect(path)
        client.sendall(encode_frame(frame))
        return read_frame_sync(client)


class TestDeliverySemantics:
    def test_broadcast_writes_every_frame_before_reading_any_response(self, tmp_path):
        # The first recipient answers only once the last one's handler has
        # started: a transport that awaited each response before the next
        # write would sit out the request timeout here.
        last_started = threading.Event()
        arrivals = []

        def handler_for(node_id):
            def handler(sender, topic, payload):
                arrivals.append(node_id)
                if node_id == "d":
                    last_started.set()
                assert last_started.wait(timeout=5)
                return f"{node_id}:{payload}"

            return handler

        with SocketPeers(tmp_path, "a", "b", "c", "d") as peers:
            sender = peers.transport("a")
            for node_id in "bcd":
                peers.transport(node_id, handler_for(node_id))
            start = time.monotonic()
            deliveries = sender.deliver("a", "t", 7, {"d": None, "b": None, "c": None})
            assert time.monotonic() - start < SocketTransport.REQUEST_TIMEOUT
            assert list(deliveries) == ["b", "c", "d"]
            assert [d.result for d in deliveries.values()] == ["b:7", "c:7", "d:7"]
            assert sorted(arrivals) == ["b", "c", "d"]
            assert sender.counters["frames_sent"] == 3

    def test_duplicate_reinvokes_the_handler_and_its_response_is_discarded(self, tmp_path):
        handled = []

        def numbered(sender, topic, payload):
            handled.append(payload)
            return len(handled)

        plan = FaultPlan(seed=3, duplicate_probability=1.0)
        with SocketPeers(tmp_path, "a", "b", plan=plan) as peers:
            sender = peers.transport("a")
            receiver = peers.transport("b", numbered)
            outcomes = [send_one(sender, "b", value) for value in ("x", "y")]
            assert handled == ["x", "x", "y", "y"]
            # The awaited copy is written after the duplicate: it is the 2nd and 4th call.
            assert [(o.status, o.result, o.duplicates) for o in outcomes] == [
                (DELIVERED, 2, 1), (DELIVERED, 4, 1),
            ]
            assert sender.counters["frames_sent"] == receiver.counters["frames_served"] == 4

    def test_lost_response_leaves_the_handler_run_and_the_sender_with_timeout(self, tmp_path):
        handled = []
        plan = FaultPlan(seed=3, links={"a->b": LinkFault(response_timeout=True)})
        with SocketPeers(tmp_path, "a", "b", plan=plan) as peers:
            sender = peers.transport("a")
            peers.transport("b", lambda s, t, p: handled.append(p))
            lost = send_one(sender, "b", "vote")
            assert lost.status == TIMEOUT and "response lost" in lost.error
            assert handled == ["vote"] and sender.counters["timeouts"] == 1

    def test_raising_handler_answers_with_an_error_frame(self, tmp_path):
        def refuse(sender, topic, payload):
            raise ValueError(f"refused {payload}")

        with SocketPeers(tmp_path, "a", "b") as peers:
            sender = peers.transport("a")
            receiver = peers.transport("b", refuse)
            refused = send_one(sender, "b", 1)
            assert (refused.status, refused.error) == (ERROR, "refused 1")
            # A result that cannot cross the wire is the handler's failure too.
            receiver._dispatch = lambda s, t, p: threading.Lock()
            unpicklable = send_one(sender, "b", 2)
            assert unpicklable.status == ERROR and "pickle" in unpicklable.error
            assert receiver.counters["frames_served"] == 2

    def test_ctrl_reads_answer_while_a_round_holds_the_node_lock(self, tmp_path):
        config = SwarmConfig(peers=2, rounds=1, use_storage=False)
        node_id, other = config.peer_ids()
        table = {node_id: str(tmp_path / "p0.sock"), other: str(tmp_path / "p1.sock")}
        peer = SwarmPeer(config, node_id, table, None)
        path = table[node_id]
        tx = make_round_transactions(config, 0)[0]
        message = {"kind": "msg", "id": 1, "sender": other, "topic": TOPIC_TRANSACTIONS,
                   "payload": tx}
        try:
            with peer._lock:  # what a ctrl "round" holds for as long as it runs
                for command in ("ping", "head", "tick", "report"):
                    assert _request(path, {"kind": "ctrl", "id": 0, "command": command})[
                        "status"] == "ok"
                with pytest.raises(TimeoutError):
                    _request(path, message, timeout=0.3)  # inbound handlers wait their turn
            assert _request(path, {**message, "id": 2})["status"] == "ok"
        finally:
            peer.transport.stop()


class TestCountersUnderThreads:
    THREADS = 8
    SENDS = 200

    def test_no_count_is_lost_across_caller_and_connection_threads(self, tmp_path):
        # Two recipients, so callers holding different link locks bump the
        # same counter at once — one link alone would serialize them.
        total = self.THREADS * self.SENDS
        with SocketPeers(tmp_path, "a", "b", "c") as peers:
            sender = peers.transport("a")
            receivers = [peers.transport(node_id, echo_handler) for node_id in "bc"]
            network = Network(sender)
            for node_id in "abc":
                network.join(node_id)
            for node_id in "bc":
                network.subscribe(node_id, "tx", lambda s, p: None)  # remote: never called here
            wrong = []

            def burst(worker):
                for index in range(self.SENDS):
                    delivery = network.send("a", "bc"[worker % 2], "tx", (worker, index))
                    if delivery.result != (worker, index):
                        wrong.append(delivery)

            workers = [threading.Thread(target=burst, args=(w,)) for w in range(self.THREADS)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=50)
            finally:
                sys.setswitchinterval(interval)
            assert not any(worker.is_alive() for worker in workers)
            assert wrong == []
            assert sender.transport_report()["frames_sent"] == total
            assert [r.transport_report()["frames_served"] for r in receivers] == [total // 2] * 2
            totals = network.stats.delivery_report()["totals"]
            assert totals["attempted"] == totals["delivered"] == total
            outcomes = ("delivered", "dropped", "partitioned", "timed_out", "errors")
            assert totals["attempted"] == sum(totals[name] for name in outcomes)


def _feed(data: bytes, close: bool = True):
    """``read_frame_sync`` on a socket that holds exactly ``data`` (then EOF)."""
    writer, reader = socket.socketpair()
    with writer, reader:
        reader.settimeout(5)
        writer.sendall(data)
        if close:
            writer.shutdown(socket.SHUT_WR)
        return read_frame_sync(reader)


framed = st.builds(
    lambda length, body: struct.pack(">I", length) + body,
    st.integers(0, 2**32 - 1), st.binary(max_size=48),
)


class TestFrameReaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=48), framed))
    def test_arbitrary_bytes_return_or_raise_but_never_hang(self, data):
        try:
            _feed(data)
        except BlockchainError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(message=st.recursive(
        st.none() | st.booleans() | st.integers() | st.text() | st.binary(),
        lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=8,
    ))
    def test_a_written_frame_reads_back_equal(self, message):
        assert _feed(encode_frame(message)) == message

    @pytest.mark.parametrize("data", [
        b"", b"\x00", b"\x00\x00\x00",                      # EOF inside the header
        struct.pack(">I", 10) + b"short",                   # EOF inside the body
        struct.pack(">I", MAX_FRAME_BYTES),                 # in bounds, never arrives
    ])
    def test_truncated_frame_is_eof(self, data):
        assert _feed(data) is None

    @pytest.mark.parametrize("data", [
        struct.pack(">I", 0),                               # zero-length body
        struct.pack(">I", 5) + b"\xffjunk",                 # bytes that do not unpickle
        struct.pack(">I", 3) + pickle.dumps(1)[:3],         # a pickle cut short
    ])
    def test_undecodable_body_raises(self, data):
        with pytest.raises(BlockchainError, match="undecodable frame"):
            _feed(data)

    def test_oversize_prefix_raises_before_any_body_is_read(self):
        # The writer stays open and sends no body: raising cannot have waited for one.
        with pytest.raises(BlockchainError, match="exceeds"):
            _feed(struct.pack(">I", MAX_FRAME_BYTES + 1), close=False)


class TestConnectionLoopFuzz:
    def test_garbage_closes_its_own_connection_and_the_server_keeps_answering(self, tmp_path):
        with SocketPeers(tmp_path, "a") as peers:
            server = peers.transport("a")
            server.serve(echo_handler, lambda command, args: {"pong": args})
            path = peers.table["a"]
            answered = 0

            @settings(max_examples=60, deadline=None)
            @given(garbage=st.one_of(st.binary(min_size=1, max_size=48), framed))
            def attack(garbage):
                nonlocal answered
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
                    client.settimeout(5)
                    client.connect(path)
                    client.sendall(garbage)
                    client.shutdown(socket.SHUT_WR)
                    # Bytes that happen to frame a dict are answered (with an
                    # error frame); everything else just ends the connection.
                    try:
                        while read_frame_sync(client) is not None:
                            answered += 1
                    except ConnectionResetError:
                        pass  # closed with our unread bytes still queued
                ping = _request(
                    path, {"kind": "ctrl", "id": 9, "command": "ping", "args": answered}
                )
                answered += 1
                assert ping == {"kind": "resp", "id": 9, "status": "ok",
                                "result": {"pong": answered - 1}}

            attack()
            assert server.counters["frames_served"] == answered

    @pytest.mark.parametrize("data", [
        struct.pack(">I", MAX_FRAME_BYTES + 1),             # oversize: closed at the prefix
        struct.pack(">I", 4) + b"\xff\xff\xff\xff",         # undecodable
        encode_frame(["not", "a", "dict"]),                 # decodable, not a frame
    ])
    def test_bad_frame_is_hung_up_on_without_waiting_for_eof(self, tmp_path, data):
        with SocketPeers(tmp_path, "a") as peers:
            server = peers.transport("a", echo_handler)
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
                client.settimeout(5)
                client.connect(peers.table["a"])
                client.sendall(data)
                assert client.recv(1) == b""
            assert server.counters["frames_served"] == 0
            unknown = _request(peers.table["a"], {"kind": "nonsense", "id": 1})
            assert unknown["status"] == "error" and "unknown frame kind" in unknown["error"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc to count descriptors")
class TestStopLeavesNothingBehind:
    def test_twenty_lifetimes_return_every_thread_descriptor_and_the_address(self, tmp_path):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        def serving():
            return [t for t in threading.enumerate() if t.name.endswith(("-accept", "-conn"))]

        # An earlier test's pool thread or socket may still be winding down, so
        # the totals may only fall; a leak here would make them rise.
        threads, descriptors = threading.active_count(), open_fds()
        assert serving() == []
        for lifetime in range(20):
            with SocketPeers(tmp_path, "a", "b") as peers:  # the same two addresses every time
                a = peers.transport("a", echo_handler)
                b = peers.transport("b", echo_handler)
                assert send_one(a, "b", lifetime).result == lifetime
                assert send_one(b, "a", lifetime).result == lifetime
                idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                idle.connect(peers.table["a"])  # a requester still connected at stop()
                assert len(serving()) >= 4  # two accept threads, a connection thread each
            idle.close()
            assert not any(os.path.exists(path) for path in peers.table.values())
            assert serving() == []
        assert threading.active_count() <= threads
        assert open_fds() <= descriptors

    def test_stop_fails_a_request_in_flight_now_not_at_its_deadline(self, tmp_path):
        release = threading.Event()
        with SocketPeers(tmp_path, "a", "b") as peers:
            sender = peers.transport("a")
            peers.transport("b", lambda s, t, p: release.wait(timeout=10))
            outcome = []
            caller = threading.Thread(target=lambda: outcome.append(send_one(sender, "b", 1)))
            caller.start()
            while sender.counters["frames_sent"] == 0:
                time.sleep(0.01)
            start = time.monotonic()
            sender.stop()
            caller.join(timeout=5)
            release.set()
            assert not caller.is_alive() and time.monotonic() - start < 1.0
            assert outcome[0].status == TIMEOUT
