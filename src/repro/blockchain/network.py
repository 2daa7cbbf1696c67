"""A simulated peer-to-peer network.

Messages (transactions, block proposals, votes) are delivered in-process and in
deterministic order.  The network records simple statistics — message counts
and payload bytes — which the throughput analysis (Experiment E5) uses to model
blockchain overhead as a function of cohort size and model dimension.  The
bytes are canonical :func:`wire_record` bytes × recipients, requests only:
votes and sync replies ride back as handler return values and are not counted.

*How* each payload crosses the wire is delegated to a pluggable
:class:`~repro.blockchain.transport.Transport`: the default
:class:`~repro.blockchain.transport.DeterministicTransport` reproduces the
historical loss-free sorted-order loop byte for byte, while
:class:`~repro.blockchain.transport.FaultInjectingTransport` injects seeded
partitions, loss, duplication, and latency for robustness scenarios.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Any, Callable

from repro.blockchain.block import Block
from repro.blockchain.storage import block_to_record
from repro.blockchain.transaction import Transaction
from repro.blockchain.transport import (
    DELIVERED,
    DROPPED,
    ERROR,
    PARTITIONED,
    TIMEOUT,
    BroadcastReport,
    Delivery,
    DeterministicTransport,
    Transport,
)
from repro.exceptions import BlockchainError, ValidationError
from repro.utils.serialization import canonical_dumps

#: Per-topic delivery-outcome counters tracked beyond the legacy traffic stats.
DELIVERY_COUNTERS = (
    "attempted",
    "delivered",
    "dropped",
    "partitioned",
    "timed_out",
    "errors",
    "duplicated",
    "retries",
)

_STATUS_TO_COUNTER = {
    DELIVERED: "delivered",
    DROPPED: "dropped",
    PARTITIONED: "partitioned",
    TIMEOUT: "timed_out",
    ERROR: "errors",
}


def _empty_counters() -> dict[str, int]:
    return {name: 0 for name in DELIVERY_COUNTERS}


class _PeerCounters:
    """One recorder's private slice of the traffic statistics.

    Each recording peer (sender) owns its own bucket, so concurrent recorders
    never share a counter dict; buckets are merged at report time.  Mutation
    still happens under the owning :class:`NetworkStats` lock because one peer
    may record from several threads at once (a retry sweep racing a
    handler-driven resync under the socket transport).
    """

    __slots__ = ("messages_sent", "bytes_sent", "messages_by_topic",
                 "bytes_by_topic", "delivery_by_topic")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_by_topic: dict[str, int] = defaultdict(int)
        self.bytes_by_topic: dict[str, int] = defaultdict(int)
        self.delivery_by_topic: dict[str, dict[str, int]] = defaultdict(_empty_counters)


class NetworkStats:
    """Aggregate traffic statistics for a simulated network.

    Beyond the legacy traffic totals (messages/bytes, overall and per topic),
    the stats distinguish delivery *outcomes* per topic — attempted vs
    delivered vs dropped/partitioned/timed-out/errored, plus duplicate copies
    and retry attempts — which is what the fault scenarios and the CLI
    delivery table report on.

    Counters are kept in per-peer buckets (the ``peer`` argument of the
    ``record*`` methods names the recording sender; the synchronous
    single-network simulation records everything under one anonymous bucket)
    and merged at report time.  Recording takes a lock, because under the
    socket transport one peer records from several threads concurrently — an
    unguarded ``dict[int] += 1`` there loses counts and breaks the
    ``attempted == delivered + dropped + partitioned + timed_out + errors``
    accounting invariant the delivery reports are trusted for.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._peers: dict[str, _PeerCounters] = {}

    def _bucket(self, peer: str) -> _PeerCounters:
        bucket = self._peers.get(peer)
        if bucket is None:
            bucket = self._peers.setdefault(peer, _PeerCounters())
        return bucket

    # -- recording -------------------------------------------------------

    def record(self, topic: str, payload_bytes: int, recipients: int, peer: str = "") -> None:
        """Account for one logical broadcast reaching ``recipients`` peers."""
        with self._lock:
            bucket = self._bucket(peer)
            bucket.messages_sent += recipients
            bucket.bytes_sent += payload_bytes * recipients
            bucket.messages_by_topic[topic] += recipients
            bucket.bytes_by_topic[topic] += payload_bytes * recipients
            bucket.delivery_by_topic[topic]["attempted"] += recipients

    def record_outcome(self, topic: str, delivery: Delivery, peer: str = "") -> None:
        """Account for one per-recipient delivery outcome."""
        with self._lock:
            counters = self._bucket(peer).delivery_by_topic[topic]
            counters[_STATUS_TO_COUNTER[delivery.status]] += 1
            counters["duplicated"] += delivery.duplicates

    def record_retries(self, topic: str, count: int, peer: str = "") -> None:
        """Account for ``count`` retry sends on a topic (also counted as attempts)."""
        with self._lock:
            self._bucket(peer).delivery_by_topic[topic]["retries"] += count

    # -- merged views (the legacy read surface) --------------------------

    @property
    def messages_sent(self) -> int:
        with self._lock:
            return sum(bucket.messages_sent for bucket in self._peers.values())

    @property
    def bytes_sent(self) -> int:
        with self._lock:
            return sum(bucket.bytes_sent for bucket in self._peers.values())

    def _merge_topic_counts(self, attr: str) -> dict[str, int]:
        merged: dict[str, int] = defaultdict(int)
        with self._lock:
            for bucket in self._peers.values():
                for topic, value in getattr(bucket, attr).items():
                    merged[topic] += value
        return dict(merged)

    @property
    def messages_by_topic(self) -> dict[str, int]:
        return self._merge_topic_counts("messages_by_topic")

    @property
    def bytes_by_topic(self) -> dict[str, int]:
        return self._merge_topic_counts("bytes_by_topic")

    @property
    def delivery_by_topic(self) -> dict[str, dict[str, int]]:
        """Per-topic outcome counters, merged across all recording peers."""
        merged: dict[str, dict[str, int]] = defaultdict(_empty_counters)
        with self._lock:
            for bucket in self._peers.values():
                for topic, counters in bucket.delivery_by_topic.items():
                    target = merged[topic]
                    for name, value in counters.items():
                        target[name] += value
        return dict(merged)

    def delivery_report(self) -> dict[str, Any]:
        """Outcome counters, per topic and totalled (merged across peers)."""
        totals = _empty_counters()
        by_topic = {}
        merged = self.delivery_by_topic
        for topic in sorted(merged):
            counters = dict(merged[topic])
            by_topic[topic] = counters
            for name, value in counters.items():
                totals[name] += value
        return {"totals": totals, "by_topic": by_topic}

    def per_peer_report(self) -> dict[str, dict[str, Any]]:
        """Each recording peer's own delivery slice (what the swarm supervisor collects)."""
        report: dict[str, dict[str, Any]] = {}
        with self._lock:
            for peer in sorted(self._peers):
                bucket = self._peers[peer]
                report[peer] = {
                    "messages_sent": bucket.messages_sent,
                    "bytes_sent": bucket.bytes_sent,
                    "delivery_by_topic": {
                        topic: dict(counters)
                        for topic, counters in sorted(bucket.delivery_by_topic.items())
                    },
                }
        return report

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for reports."""
        return {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "messages_by_topic": dict(self.messages_by_topic),
            "bytes_by_topic": dict(self.bytes_by_topic),
            "delivery": self.delivery_report(),
            "per_peer": self.per_peer_report(),
        }


def delivery_report_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """The delivery activity between two :meth:`NetworkStats.delivery_report` snapshots."""
    totals = {
        name: after["totals"].get(name, 0) - before["totals"].get(name, 0)
        for name in DELIVERY_COUNTERS
    }
    by_topic: dict[str, dict[str, int]] = {}
    for topic, counters in after["by_topic"].items():
        prior = before["by_topic"].get(topic, {})
        delta = {name: counters.get(name, 0) - prior.get(name, 0) for name in DELIVERY_COUNTERS}
        if any(delta.values()):
            by_topic[topic] = delta
    return {"totals": totals, "by_topic": by_topic}


def wire_record(payload: Any) -> Any:
    """The canonical record a gossiped payload is sized by: a transaction's, a
    block's (``proposal`` / ``commit``), a list of them element-wise; a plain
    canonical value (the ``sync`` request dict) is its own record."""
    if isinstance(payload, Transaction):
        return payload.to_record()
    if isinstance(payload, Block):
        return block_to_record(payload)
    if isinstance(payload, (list, tuple)):
        return [wire_record(item) for item in payload]
    return payload


class Network:
    """An in-process broadcast network connecting miner nodes.

    Nodes register a handler per topic; ``broadcast`` synchronously invokes the
    handler of every *other* registered node through the installed transport —
    in sorted node-id order under the default deterministic transport, which
    keeps simulations byte-identical to the historical network.
    """

    def __init__(self, transport: Transport | None = None) -> None:
        self._handlers: dict[str, dict[str, Callable[[str, Any], Any]]] = defaultdict(dict)
        self._node_ids: set[str] = set()
        self.stats = NetworkStats()
        self.transport: Transport = transport or DeterministicTransport()

    def install_transport(self, transport: Transport) -> Transport:
        """Swap the delivery layer (e.g. to start injecting faults mid-run)."""
        self.transport = transport
        return transport

    @property
    def faulty(self) -> bool:
        """Whether deliveries can currently fail (drives retry/failover paths)."""
        return self.transport.faulty

    def begin_round(self) -> None:
        """Advance the transport's simulated clock by one round attempt."""
        self.transport.begin_round()

    def join(self, node_id: str) -> None:
        """Register a node on the network."""
        if node_id in self._node_ids:
            raise BlockchainError(f"node {node_id!r} already joined the network")
        self._node_ids.add(node_id)

    def subscribe(self, node_id: str, topic: str, handler: Callable[[str, Any], Any]) -> None:
        """Register ``handler(sender_id, payload)`` for a topic on behalf of a node."""
        if node_id not in self._node_ids:
            raise BlockchainError(f"node {node_id!r} must join before subscribing")
        self._handlers[topic][node_id] = handler

    def peers(self) -> list[str]:
        """All node ids on the network, sorted."""
        return sorted(self._node_ids)

    def handler_for(self, node_id: str, topic: str) -> Callable[[str, Any], Any]:
        """The handler a node registered for a topic (the swarm server's dispatch path)."""
        handler = self._handlers.get(topic, {}).get(node_id)
        if handler is None:
            raise BlockchainError(f"node {node_id!r} is not subscribed to {topic!r}")
        return handler

    def _payload_size(self, topic: str, payload: Any) -> int:
        """Bytes of the canonical wire record; a payload with none is refused, nothing recorded or sent."""
        try:
            return len(canonical_dumps(wire_record(payload)))
        except ValidationError as exc:
            raise BlockchainError(f"{topic!r} payload of type {type(payload).__name__}: {exc}") from exc

    def _deliver(
        self, sender_id: str, topic: str, payload: Any,
        handlers: dict[str, Callable[[str, Any], Any]],
    ) -> dict[str, Delivery]:
        """Size and count one logical message, hand it to the transport, count the outcomes."""
        if sender_id not in self._node_ids:
            raise BlockchainError(f"unknown sender {sender_id!r}")
        self.stats.record(topic, self._payload_size(topic, payload), len(handlers), peer=sender_id)
        deliveries = self.transport.deliver(sender_id, topic, payload, handlers)
        for delivery in deliveries.values():
            self.stats.record_outcome(topic, delivery, peer=sender_id)
        return deliveries

    def broadcast(self, sender_id: str, topic: str, payload: Any) -> BroadcastReport:
        """Deliver ``payload`` to every other subscriber; per-recipient report.

        Every recipient is attempted: one whose handler raised appears as an
        ``error`` delivery instead of aborting the sweep mid-loop.
        """
        handlers = {
            node_id: handler
            for node_id, handler in self._handlers.get(topic, {}).items()
            if node_id != sender_id
        }
        return BroadcastReport(
            topic=topic, sender=sender_id,
            deliveries=self._deliver(sender_id, topic, payload, handlers),
        )

    def send(self, sender_id: str, recipient_id: str, topic: str, payload: Any) -> Delivery:
        """Point-to-point delivery to a single node; full delivery outcome."""
        handlers = {recipient_id: self.handler_for(recipient_id, topic)}
        return self._deliver(sender_id, topic, payload, handlers)[recipient_id]
