"""Pluggable message transports: deterministic delivery and seeded fault injection.

The :class:`~repro.blockchain.network.Network` owns the membership and topic
tables, payload sizing and the delivery statistics; *how* a payload crosses
the wire is delegated to a :class:`Transport`, which has one primitive —
:meth:`Transport.deliver`, recipients in, one :class:`Delivery` each out.
Three implementations ship:

* :class:`DeterministicTransport` — today's synchronous, sorted-order,
  loss-free delivery, byte-for-byte identical to the historical network loop
  (pinned by the transport-parity tests against pre-transport chain hashes).
* :class:`FaultInjectingTransport` — delivery driven by a seeded, declarative
  :class:`FaultPlan`: per-link drop probability, duplication, latency with a
  reordering window, per-broadcast response timeouts, and named partitions
  (full or directional) that can heal mid-run.
* :class:`SocketTransport` — the same contract over real Unix sockets
  (blocking, on the calling thread), one instance per swarm peer process,
  gated by the same :class:`FaultPlan`.

Determinism is the design invariant: every fault draw is a hash of (plan
seed, directed link, per-link message index) — see :class:`LinkFaultDecider`
— so two runs of the same faulty scenario produce identical chains, delivery
reports, and settlement tables, in-process and on the swarm alike.  Simulated
time advances in *ticks* — one per round attempt (``Network.begin_round``) —
which is what partition windows and retry backoff schedules are expressed in.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import pickle
import socket
import struct
import threading
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Callable, Mapping

from repro.exceptions import BlockchainError

# Delivery outcome statuses.
DELIVERED = "delivered"
DROPPED = "dropped"
PARTITIONED = "partitioned"
TIMEOUT = "timeout"
ERROR = "error"

#: Statuses for which the message never reached (or never answered) — the
#: sender may retry these; a handler *error* did reach and must not be retried
#: blindly.
UNDELIVERED_STATUSES = (DROPPED, PARTITIONED, TIMEOUT)

PARTITION_DIRECTIONS = ("both", "inbound", "outbound")


@dataclass
class Delivery:
    """The outcome of delivering one payload to one recipient.

    Attributes:
        recipient: the receiving node id.
        status: one of ``delivered`` / ``dropped`` / ``partitioned`` /
            ``timeout`` (the handler ran but its response was lost to the
            sender) / ``error`` (the handler raised).
        result: the handler's return value (``delivered`` only).
        error: human-readable failure description for non-delivered statuses.
        attempts: total send attempts for this recipient (1 + retries).
        duplicates: extra copies the transport delivered (handler re-invoked).
        latency: simulated delivery latency in ticks.
    """

    recipient: str
    status: str
    result: Any = None
    error: str = ""
    attempts: int = 1
    duplicates: int = 0
    latency: int = 0

    @property
    def delivered(self) -> bool:
        return self.status == DELIVERED


@dataclass
class BroadcastReport:
    """Everything one broadcast produced: per-recipient deliveries + retries."""

    topic: str
    sender: str
    deliveries: dict[str, Delivery] = field(default_factory=dict)
    #: Simulated exponential-backoff waits (in ticks) the sender sat through
    #: between retry sweeps; accounting only — the simulation does not sleep.
    retry_backoffs: list[int] = field(default_factory=list)

    def undelivered(self) -> list[str]:
        """Recipients the message never (confirmably) reached, sorted."""
        return sorted(
            recipient
            for recipient, delivery in self.deliveries.items()
            if delivery.status in UNDELIVERED_STATUSES
        )


# ----------------------------------------------------------------------
# Declarative fault plans
# ----------------------------------------------------------------------

def _known_fields(cls: type, payload: Any) -> Mapping[str, Any]:
    """``payload`` if it is a mapping holding only ``cls``'s fields and every required one.

    A misspelt key must not silently fall back to its default: a chaos run
    that injects nothing would pass for the wrong reason.
    """
    if not isinstance(payload, Mapping):
        raise BlockchainError(f"{cls.__name__} must be a mapping, got {type(payload).__name__}")
    known = [spec.name for spec in fields(cls)]
    unknown = sorted(str(key) for key in payload if key not in known)
    if unknown:
        raise BlockchainError(f"{cls.__name__} has unknown field(s) {unknown}; it knows {known}")
    missing = [
        spec.name for spec in fields(cls)
        if spec.default is MISSING and spec.default_factory is MISSING and spec.name not in payload
    ]
    if missing:
        raise BlockchainError(f"{cls.__name__} is missing field(s) {missing}")
    return payload


@dataclass(frozen=True)
class LinkFault:
    """Fault overrides for one directed link (``sender -> recipient``).

    ``topics`` scopes the fault to specific topics (empty = all).
    ``response_timeout`` forces the *response-lost* path: the payload is
    delivered and the handler runs, but the sender never sees the return
    value — exactly how a vote is lost without the proposal being lost.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    latency_ticks: int = 0
    response_timeout: bool = False
    topics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise BlockchainError(f"LinkFault.{name} must be in [0, 1], got {value}")
        if self.latency_ticks < 0:
            raise BlockchainError("LinkFault.latency_ticks must be non-negative")
        object.__setattr__(self, "topics", tuple(self.topics))

    def applies_to(self, topic: str) -> bool:
        return not self.topics or topic in self.topics

    def to_dict(self) -> dict[str, Any]:
        return {
            "drop_probability": self.drop_probability,
            "duplicate_probability": self.duplicate_probability,
            "latency_ticks": self.latency_ticks,
            "response_timeout": self.response_timeout,
            "topics": list(self.topics),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LinkFault":
        payload = _known_fields(cls, payload)
        return cls(
            drop_probability=float(payload.get("drop_probability", 0.0)),
            duplicate_probability=float(payload.get("duplicate_probability", 0.0)),
            latency_ticks=int(payload.get("latency_ticks", 0)),
            response_timeout=bool(payload.get("response_timeout", False)),
            topics=tuple(payload.get("topics", ())),
        )


@dataclass(frozen=True)
class PartitionSpec:
    """A named network partition over explicit cells of nodes.

    Nodes not listed in any cell form one implicit cell of their own; traffic
    between different cells is blocked.  ``direction`` refines the block for
    eclipse-style attacks: ``inbound`` only blocks messages *into* explicit
    cells (an eclipsed victim can still talk out), ``outbound`` only messages
    *out of* them.  ``start_tick`` / ``heal_tick`` bound the partition's
    lifetime on the transport's tick clock (``heal_tick=None`` = never heals
    by schedule; scenarios may still heal it explicitly).
    """

    name: str
    cells: tuple[tuple[str, ...], ...]
    direction: str = "both"
    start_tick: int = 0
    heal_tick: int | None = None

    def __post_init__(self) -> None:
        cells = tuple(tuple(cell) for cell in self.cells)
        if not cells or any(not cell for cell in cells):
            raise BlockchainError(f"partition {self.name!r} needs at least one non-empty cell")
        seen: set[str] = set()
        for cell in cells:
            for node in cell:
                if node in seen:
                    raise BlockchainError(
                        f"partition {self.name!r}: node {node!r} appears in two cells"
                    )
                seen.add(node)
        if self.direction not in PARTITION_DIRECTIONS:
            raise BlockchainError(
                f"partition {self.name!r}: direction must be one of {PARTITION_DIRECTIONS}"
            )
        if self.heal_tick is not None and self.heal_tick <= self.start_tick:
            raise BlockchainError(f"partition {self.name!r}: heal_tick must follow start_tick")
        object.__setattr__(self, "cells", cells)

    def active_at(self, tick: int) -> bool:
        if tick < self.start_tick:
            return False
        return self.heal_tick is None or tick < self.heal_tick

    def cell_of(self, node_id: str) -> int | None:
        """Index of the explicit cell holding ``node_id`` (None = implicit cell)."""
        for index, cell in enumerate(self.cells):
            if node_id in cell:
                return index
        return None

    def blocks(self, sender: str, recipient: str) -> bool:
        """Whether this partition blocks a ``sender -> recipient`` delivery."""
        sender_cell = self.cell_of(sender)
        recipient_cell = self.cell_of(recipient)
        if sender_cell == recipient_cell:
            # Same explicit cell, or both in the implicit cell: no boundary.
            return False
        if self.direction == "inbound":
            return recipient_cell is not None
        if self.direction == "outbound":
            return sender_cell is not None
        return True

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "cells": [list(cell) for cell in self.cells],
            "direction": self.direction,
            "start_tick": self.start_tick,
            "heal_tick": self.heal_tick,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PartitionSpec":
        payload = _known_fields(cls, payload)
        return cls(
            name=str(payload["name"]),
            cells=tuple(tuple(cell) for cell in payload["cells"]),
            direction=str(payload.get("direction", "both")),
            start_tick=int(payload.get("start_tick", 0)),
            heal_tick=None if payload.get("heal_tick") is None else int(payload["heal_tick"]),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative description of everything that goes wrong.

    Plan-wide defaults apply to every delivery; ``links`` overrides them per
    directed link, keyed ``"sender->recipient"`` with ``*`` wildcards on
    either side (most specific match wins: exact, then ``sender->*``, then
    ``*->recipient``).  ``timeout_ticks`` is the per-broadcast response
    window: a delivery whose drawn latency exceeds it still runs the
    recipient's handler, but the sender records a ``timeout`` instead of the
    response.  Deliveries of one broadcast are applied in ``(latency,
    recipient)`` order — the reordering window.

    The plan (seed included) fully determines the fault sequence: every
    transport draws from a :class:`LinkFaultDecider`, so one plan means the
    same per-link decisions in-process and on the swarm.
    """

    seed: int = 0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    latency_ticks: int = 0
    timeout_ticks: int = 2
    partitions: tuple[PartitionSpec, ...] = ()
    links: tuple[tuple[str, LinkFault], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise BlockchainError(f"FaultPlan.{name} must be in [0, 1], got {value}")
        if self.latency_ticks < 0 or self.timeout_ticks < 0:
            raise BlockchainError("FaultPlan tick parameters must be non-negative")
        object.__setattr__(self, "partitions", tuple(self.partitions))
        links = self.links.items() if isinstance(self.links, Mapping) else self.links
        normalized = []
        for key, fault in links:
            if "->" not in key:
                raise BlockchainError(f"link key {key!r} must look like 'sender->recipient'")
            normalized.append((str(key), fault))
        object.__setattr__(self, "links", tuple(normalized))

    def link_fault(self, sender: str, recipient: str, topic: str) -> LinkFault | None:
        """The most specific link override matching a delivery, if any."""
        table = dict(self.links)
        for key in (f"{sender}->{recipient}", f"{sender}->*", f"*->{recipient}"):
            fault = table.get(key)
            if fault is not None and fault.applies_to(topic):
                return fault
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "drop_probability": self.drop_probability,
            "duplicate_probability": self.duplicate_probability,
            "latency_ticks": self.latency_ticks,
            "timeout_ticks": self.timeout_ticks,
            "partitions": [spec.to_dict() for spec in self.partitions],
            "links": {key: fault.to_dict() for key, fault in self.links},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        payload = _known_fields(cls, payload)
        links = payload.get("links", {})
        link_items = links.items() if isinstance(links, Mapping) else links
        return cls(
            seed=int(payload.get("seed", 0)),
            drop_probability=float(payload.get("drop_probability", 0.0)),
            duplicate_probability=float(payload.get("duplicate_probability", 0.0)),
            latency_ticks=int(payload.get("latency_ticks", 0)),
            timeout_ticks=int(payload.get("timeout_ticks", 2)),
            partitions=tuple(
                PartitionSpec.from_dict(spec) for spec in payload.get("partitions", ())
            ),
            links=tuple((str(key), LinkFault.from_dict(fault)) for key, fault in link_items),
        )


# ----------------------------------------------------------------------
# Per-link fault decisions (shared by the sim and the socket transport)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultDecision:
    """One delivery's drawn fate: drop / extra copies / latency / lost response."""

    dropped: bool = False
    latency: int = 0
    duplicates: int = 0
    response_lost: bool = False


def _uniform_draw(seed: int, link: str, index: int, label: str) -> float:
    """A deterministic uniform in [0, 1) derived by hashing, not by RNG state.

    Hash-derived draws make each link's decision sequence a pure function of
    ``(seed, link, per-link message index)`` — two transports consuming links
    in completely different global interleavings (a sorted single-threaded
    sweep vs sends from several threads) still agree on every decision.
    """
    digest = hashlib.sha256(f"fault-draw|{seed}|{link}|{index}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


class LinkFaultDecider:
    """Seed-stable per-link fault decisions, independent of global draw order.

    One shared RNG stream would make the sequence depend on the global
    delivery order — useless under real concurrency, where sends interleave
    nondeterministically.  The decider instead keeps one message counter per
    directed link and hashes ``(seed, link, index)`` into the draws, so the
    same plan and seed yield identical per-link drop/duplicate/latency
    sequences on the single-threaded *and* the socket transport.  Thread-safe;
    every decision is appended to :attr:`log` for the seed-stability property
    tests.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._counters: dict[str, int] = {}
        self._lock = threading.Lock()
        #: Decision log: (link key, per-link index, FaultDecision).
        self.log: list[tuple[str, int, FaultDecision]] = []

    def decide(
        self, sender: str, recipient: str, fault: LinkFault, timeout_ticks: int
    ) -> FaultDecision:
        """Draw the fate of the next message on ``sender -> recipient``."""
        link = f"{sender}->{recipient}"
        with self._lock:
            index = self._counters.get(link, 0)
            self._counters[link] = index + 1
        dropped = bool(
            fault.drop_probability
            and _uniform_draw(self.seed, link, index, "drop") < fault.drop_probability
        )
        latency = (
            int(_uniform_draw(self.seed, link, index, "latency") * (fault.latency_ticks + 1))
            if fault.latency_ticks
            else 0
        )
        duplicates = int(
            bool(fault.duplicate_probability)
            and _uniform_draw(self.seed, link, index, "duplicate") < fault.duplicate_probability
        )
        decision = FaultDecision(
            dropped=dropped,
            latency=latency,
            duplicates=duplicates,
            response_lost=fault.response_timeout or latency > timeout_ticks,
        )
        with self._lock:
            self.log.append((link, index, decision))
        return decision


class FaultScheduleMixin:
    """Shared fault-plan scheduling: the tick clock plus dynamic fault control.

    Both the single-threaded :class:`FaultInjectingTransport` and the socket
    :class:`SocketTransport` carry the same scheduled state — a plan, a tick
    clock advanced by ``begin_round``, and dynamic partitions / link faults a
    scenario can steer imperatively — so the fault scenarios drive either
    transport through one control surface.
    """

    plan: FaultPlan
    #: Per-link hash-derived draws (``None`` = no fault gate beyond partitions),
    #: so decision sequences match across transports under the same plan.
    decider: LinkFaultDecider | None

    def _init_fault_schedule(self, plan: FaultPlan | None) -> None:
        self.plan = plan or FaultPlan()
        self.tick = 0
        self.phase: Any = None
        self._dynamic_partitions: dict[str, PartitionSpec] = {}
        self._dynamic_links: dict[str, LinkFault] = {}
        #: Heal log: partition name -> tick it was healed at (reporting only).
        self.healed: dict[str, int] = {}

    def begin_round(self, label: Any) -> None:
        self.tick += 1
        self.phase = label

    def set_partition(self, spec: PartitionSpec) -> None:
        """Activate (or replace) a named partition immediately."""
        self._dynamic_partitions[spec.name] = replace(spec, start_tick=0, heal_tick=None)
        self.healed.pop(spec.name, None)

    def heal(self, name: str) -> None:
        """Remove a dynamically set partition (no-op if absent)."""
        if self._dynamic_partitions.pop(name, None) is not None:
            self.healed[name] = self.tick

    def heal_all(self) -> None:
        for name in list(self._dynamic_partitions):
            self.heal(name)

    def add_link_fault(self, key: str, fault: LinkFault) -> None:
        if "->" not in key:
            raise BlockchainError(f"link key {key!r} must look like 'sender->recipient'")
        self._dynamic_links[key] = fault

    def remove_link_fault(self, key: str) -> None:
        self._dynamic_links.pop(key, None)

    def active_partitions(self) -> list[PartitionSpec]:
        active = [spec for spec in self.plan.partitions if spec.active_at(self.tick)]
        active.extend(self._dynamic_partitions.values())
        return active

    def _gate(self, sender: str, recipient: str, topic: str) -> tuple[Delivery | None, FaultDecision]:
        """One recipient's fate: a failed Delivery (partitioned / dropped in
        transit), or ``None`` and the :class:`FaultDecision` to deliver under."""
        decision = FaultDecision()
        blocked = next(
            (spec.name for spec in self.active_partitions() if spec.blocks(sender, recipient)), None
        )
        if blocked is not None:
            return Delivery(recipient, PARTITIONED, error=f"partitioned by {blocked!r}"), decision
        if self.decider is not None:
            fault = self._effective_fault(sender, recipient, topic)
            decision = self.decider.decide(sender, recipient, fault, self.plan.timeout_ticks)
        if decision.dropped:
            return Delivery(recipient, DROPPED, error="dropped in transit"), decision
        return None, decision

    def _response_lost(self, recipient: str, decision: FaultDecision) -> Delivery:
        """The handler ran, but its response outlived the plan's timeout."""
        return Delivery(
            recipient,
            TIMEOUT,
            error=f"response lost after {decision.latency} tick(s) (> timeout "
            f"{self.plan.timeout_ticks})",
            latency=decision.latency,
            duplicates=decision.duplicates,
        )

    def _effective_fault(self, sender: str, recipient: str, topic: str) -> LinkFault:
        for key in (f"{sender}->{recipient}", f"{sender}->*", f"*->{recipient}"):
            fault = self._dynamic_links.get(key)
            if fault is not None and fault.applies_to(topic):
                return fault
        override = self.plan.link_fault(sender, recipient, topic)
        if override is not None:
            return override
        return LinkFault(
            drop_probability=self.plan.drop_probability,
            duplicate_probability=self.plan.duplicate_probability,
            latency_ticks=self.plan.latency_ticks,
        )


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------

class Transport:
    """How payloads cross the simulated wire.

    The :class:`~repro.blockchain.network.Network` resolves membership and
    handler tables, then hands each broadcast/send to :meth:`deliver`, which
    decides per-recipient outcomes; sizing, counting them on
    :class:`~repro.blockchain.network.NetworkStats` and the
    :class:`BroadcastReport` are the network's.
    """

    name = "transport"
    #: Whether deliveries can fail; retry/failover paths key off this so the
    #: deterministic transport stays byte-identical to the historical network.
    faulty = False

    def begin_round(self, label: Any) -> None:
        """Advance the transport's simulated clock (one tick per round attempt)."""

    def deliver(
        self,
        sender_id: str,
        topic: str,
        payload: Any,
        handlers: Mapping[str, Callable[[str, Any], Any]],
    ) -> dict[str, Delivery]:
        """Deliver ``payload`` to every recipient in ``handlers``; one outcome each.

        The one delivery primitive: a broadcast hands over every subscriber,
        a point-to-point send a one-entry mapping.
        """
        raise NotImplementedError


def _invoke(recipient_id: str, handler, sender_id: str, payload: Any) -> Delivery:
    """Run one handler, capturing an exception as an ``error`` delivery."""
    try:
        return Delivery(recipient_id, DELIVERED, result=handler(sender_id, payload))
    except Exception as exc:  # noqa: BLE001 - a raising handler must not abort the sweep
        return Delivery(recipient_id, ERROR, error=str(exc))


class DeterministicTransport(Transport):
    """Synchronous, loss-free, sorted-order delivery — the historical semantics.

    Every recipient is attempted (a raising handler no longer aborts the loop
    mid-way; the failure is captured per recipient instead), delivery order is
    sorted node id, and nothing is ever dropped, duplicated, or delayed.
    Chains produced under this transport are byte-identical to pre-transport
    runs, which the parity tests pin against recorded head hashes.
    """

    name = "deterministic"
    faulty = False

    def deliver(self, sender_id, topic, payload, handlers) -> dict[str, Delivery]:
        return {
            recipient_id: _invoke(recipient_id, handlers[recipient_id], sender_id, payload)
            for recipient_id in sorted(handlers)
        }


class FaultInjectingTransport(FaultScheduleMixin, Transport):
    """Delivery under a seeded :class:`FaultPlan`, plus scenario-driven faults.

    Scheduled faults come from the plan (tick-windowed partitions, plan-wide
    and per-link probabilities); scenarios can additionally steer the
    transport imperatively — :meth:`set_partition` / :meth:`heal` for named
    partitions and :meth:`add_link_fault` / :meth:`remove_link_fault` for
    link overrides — which keeps fault windows aligned with protocol rounds
    rather than guessing tick numbers.
    """

    name = "faulty"
    faulty = True

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self._init_fault_schedule(plan)
        self.decider = LinkFaultDecider(int(self.plan.seed))

    def _deliver_one(self, sender, recipient, payload, handler, decision: FaultDecision) -> Delivery:
        delivery = _invoke(recipient, handler, sender, payload)
        for _ in range(decision.duplicates):
            # Duplicate copies re-invoke the handler; their results are
            # discarded, exactly like redundant gossip on a real network.
            _invoke(recipient, handler, sender, payload)
        delivery.latency = decision.latency
        delivery.duplicates = decision.duplicates
        if decision.response_lost and delivery.status == DELIVERED:
            delivery = self._response_lost(recipient, decision)
        return delivery

    def deliver(self, sender_id, topic, payload, handlers) -> dict[str, Delivery]:
        deliveries: dict[str, Delivery] = {}
        queued: list[tuple[int, str, FaultDecision]] = []
        for recipient_id in sorted(handlers):
            failure, decision = self._gate(sender_id, recipient_id, topic)
            if failure is not None:
                deliveries[recipient_id] = failure
            else:
                queued.append((decision.latency, recipient_id, decision))
        # The reordering window: deliveries land in (latency, recipient) order,
        # so a slow link really does apply the message after a faster peer's.
        for _, recipient_id, decision in sorted(queued, key=lambda item: item[:2]):
            deliveries[recipient_id] = self._deliver_one(
                sender_id, recipient_id, payload, handlers[recipient_id], decision
            )
        return deliveries


# ----------------------------------------------------------------------
# Wire framing (shared by the socket transport and the swarm supervisor)
# ----------------------------------------------------------------------

#: Frame length prefix: 4-byte big-endian payload size.
_FRAME_HEADER = struct.Struct(">I")
#: Upper bound on one frame — a corrupt length prefix must not allocate GiBs.
MAX_FRAME_BYTES = 64 * 1024 * 1024
#: Largest single ``recv``: a claimed length gets its memory one chunk at a time.
_RECV_CHUNK = 1 << 20


def encode_frame(message: Any) -> bytes:
    """Pickle ``message`` and prepend the length header."""
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise BlockchainError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _FRAME_HEADER.pack(len(body)) + body


def read_frame_sync(sock: "socket.socket") -> Any | None:
    """Read one length-prefixed frame from a blocking socket; ``None`` on EOF.

    An oversize length prefix or a body that does not unpickle raises
    :class:`BlockchainError`; the socket's own timeout bounds every wait.
    """

    def _read_exact(count: int) -> bytes | None:
        chunks = []
        remaining = count
        while remaining:
            chunk = sock.recv(min(remaining, _RECV_CHUNK))
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    header = _read_exact(_FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise BlockchainError(f"incoming frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    body = _read_exact(length)
    if body is None:
        return None
    try:
        return pickle.loads(body)
    except Exception as exc:  # noqa: BLE001 - pickle raises nearly anything on foreign bytes
        raise BlockchainError(f"undecodable frame of {length} bytes: {exc!r}") from exc


# ----------------------------------------------------------------------
# Blocking-socket transport
# ----------------------------------------------------------------------

class _PeerLink:
    """One directed outbound link: a lazily connected blocking socket and its lock.

    ``lock`` admits one request/response user at a time; a broadcast takes
    the locks of its recipients in sorted order and holds them until it has
    read its last response.  Every other member is used under that lock.
    """

    def __init__(self, transport: "SocketTransport", peer_id: str, path: str) -> None:
        self.transport = transport
        self.peer_id = peer_id
        self.path = path
        self.lock = threading.Lock()
        self.sock: socket.socket | None = None
        #: Fail-fast window after a failed connect sweep (monotonic-clock deadline).
        self.down_until = 0.0

    def reset(self) -> None:
        """Drop the connection; the next write reopens it lazily."""
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _send(self, data: bytes) -> None:
        assert self.sock is not None
        try:
            self.sock.settimeout(self.transport.BACKPRESSURE_WAIT)
            self.sock.sendall(data)
        except OSError:
            self.reset()  # part of a frame may be on the wire
            raise

    def write(self, data: bytes) -> None:
        """Send ``data`` whole, connecting (one attempt) if the link is closed.

        The write deadline is the back-pressure valve: a peer that does not
        drain its socket raises :class:`TimeoutError` here instead of
        blocking the sender; any other :class:`OSError` means the peer is not
        there.  A connection that went stale while idle (the peer restarted)
        fails at once and is reopened in the same call, so a restarted peer's
        first request is not lost to its predecessor's socket.
        """
        if self.sock is not None:
            try:
                return self._send(data)
            except TimeoutError:
                raise
            except OSError:
                pass  # stale: reopen below
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.transport.REQUEST_TIMEOUT)
            sock.connect(self.path)
        except OSError as exc:
            sock.close()
            raise ConnectionError(f"peer {self.peer_id!r} unreachable: {exc}") from exc
        self.sock = sock
        self._send(data)

    def read(self, msg_id: int, deadline: float) -> dict[str, Any]:
        """The response to ``msg_id``, by the monotonic ``deadline``.

        A connection answers in request order, so the responses to duplicate
        copies, which nobody awaits, arrive first and are discarded by ``id``.
        """
        assert self.sock is not None
        while True:
            self.sock.settimeout(max(deadline - time.monotonic(), 1e-3))
            frame = read_frame_sync(self.sock)
            if not isinstance(frame, dict):
                raise ConnectionError(f"link to {self.peer_id!r} lost: peer closed connection")
            if frame.get("id") == msg_id:
                return frame


class SocketTransport(FaultScheduleMixin, Transport):
    """Real-socket delivery: length-prefixed pickled frames over Unix sockets.

    Implements the same :meth:`deliver` contract as the simulated transports,
    but each recipient delivery is a framed request/response over a blocking
    socket: every frame of a broadcast is written before the first response
    is read, and the reads share one *wall-clock* response deadline.  A
    recipient that does not answer in time yields a ``timeout`` delivery —
    exactly the signal the timeout-as-abstain quorum path consumes — and a
    dead peer degrades to timeouts instead of hanging the round.

    One transport instance lives inside each swarm peer process and owns:

    * per-peer outbound :class:`_PeerLink` connections, written and read on
      the calling thread, with a write deadline as back-pressure,
    * the peer's own frame server (started by :meth:`serve`): one accept
      thread and one thread per accepted connection, which runs the handler
      inline — so a handler may itself use the network (resync inside a
      proposal handler) and blocks nobody but its own requester,
    * an optional :class:`FaultPlan` gate, evaluated sender-side with
      :class:`LinkFaultDecider` so fault decisions are seed-stable per link
      even though sends interleave nondeterministically.

    A plan's latency ticks are drawn and recorded on the delivery (and decide
    the lost-response path against ``timeout_ticks``) but are not slept: real
    sockets supply the wall-clock reordering.
    """

    name = "socket"
    faulty = True

    #: Wall-clock response window per request (seconds); a peer that does not
    #: answer in time yields a ``timeout`` delivery.
    REQUEST_TIMEOUT = 3.0
    #: Write deadline (seconds) on a peer's full socket buffer before the
    #: frame is dropped.
    BACKPRESSURE_WAIT = 0.25
    #: Connection attempts per lazy (re)connect, and the fail-fast window
    #: (seconds) a peer stays marked down after they are exhausted.
    CONNECT_ATTEMPTS = 10
    DOWN_WINDOW = 1.0

    def __init__(
        self, node_id: str, peers: Mapping[str, str], plan: FaultPlan | None = None
    ) -> None:
        if node_id not in peers:
            raise BlockchainError(f"peer table must include the local node {node_id!r}")
        self._init_fault_schedule(plan)
        self.node_id = node_id
        self.peers = dict(peers)
        self.decider = LinkFaultDecider(int(self.plan.seed)) if plan is not None else None
        #: Link/frame counters for the per-peer delivery report; bumped from
        #: callers' and connection threads alike, so only through :meth:`_bump`.
        self.counters: dict[str, int] = {
            "frames_sent": 0,
            "frames_served": 0,
            "reconnects": 0,
            "backpressure_drops": 0,
            "fault_drops": 0,
            "partitioned": 0,
            "timeouts": 0,
        }
        #: Guards ``counters``, ``_links`` and the server's connection table.
        self._lock = threading.Lock()
        self._links: dict[str, _PeerLink] = {}
        self._ids = itertools.count(1)
        self._dispatch: Callable[[str, str, Any], Any] | None = None
        self._ctrl: Callable[[str, Any], Any] | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        #: Accepted connections and the thread serving each (kept by the accept thread).
        self._connections: dict[socket.socket, threading.Thread] = {}

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- lifecycle -------------------------------------------------------

    def serve(
        self,
        dispatch: Callable[[str, str, Any], Any],
        ctrl: Callable[[str, Any], Any] | None = None,
    ) -> None:
        """Start this peer's frame server on its own socket path.

        ``dispatch(sender_id, topic, payload)`` handles peer messages and
        ``ctrl(command, args)`` supervisor control frames; both run inline on
        the thread of the connection the frame arrived on.
        """
        self._dispatch = dispatch
        self._ctrl = ctrl
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(self.peers[self.node_id])
            listener.listen(128)  # a 64-peer swarm's first broadcast connects all at once
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name=f"{self.node_id}-accept", daemon=True,
        )
        self._accept_thread.start()

    def stop(self) -> None:
        """Close the listener, every link and every accepted connection."""
        listener, self._listener = self._listener, None
        if listener is not None:
            _shutdown(listener)  # wakes the blocked accept(); close() alone would not
            listener.close()
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.peers[self.node_id])  # the address is free at once
            assert self._accept_thread is not None
            self._accept_thread.join(timeout=10)
            self._accept_thread = None
        with self._lock:
            connections = dict(self._connections)
            links = list(self._links.values())
        for conn in connections:
            _shutdown(conn)  # its thread wakes on EOF and closes it
        for thread in connections.values():
            if thread is not threading.current_thread():
                thread.join(timeout=10)
        for link in links:
            sock = link.sock
            if sock is not None:
                _shutdown(sock)  # a request in flight fails now, not at its deadline
            with link.lock:
                link.reset()

    # -- server side -----------------------------------------------------

    def _accept_loop(self, listener: "socket.socket") -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                if self._listener is not listener:
                    return  # stop() shut the listener down
                time.sleep(0.05)  # out of descriptors: let some close
                continue
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"{self.node_id}-conn", daemon=True,
            )
            thread.start()
            with self._lock:
                # A thread cannot strike itself off after it has ended, so the
                # ended are reaped here and stop() joins whoever is left.
                self._connections = {
                    c: t for c, t in self._connections.items() if t.is_alive()
                }
                self._connections[conn] = thread

    def _serve_connection(self, conn: "socket.socket") -> None:
        """One requester's frames, answered in order, until it goes away."""
        try:
            while isinstance(frame := read_frame_sync(conn), dict):
                conn.sendall(self._answer(frame))
        except (BlockchainError, OSError):
            pass  # an undecodable or oversize frame, or a requester that went away
        finally:
            conn.close()

    def _answer(self, frame: dict[str, Any]) -> bytes:
        """Run one frame's handler; the encoded response, an error frame if it raised."""
        try:
            kind = frame.get("kind")
            if kind == "msg":
                if self._dispatch is None:
                    raise BlockchainError("no message dispatcher installed")
                result = self._dispatch(frame["sender"], frame["topic"], frame["payload"])
            elif kind == "ctrl":
                if self._ctrl is None:
                    raise BlockchainError("no ctrl dispatcher installed")
                result = self._ctrl(frame["command"], frame.get("args"))
            else:
                raise BlockchainError(f"unknown frame kind {kind!r}")
            response = encode_frame(
                {"kind": "resp", "id": frame.get("id"), "status": "ok", "result": result}
            )
        except Exception as exc:  # noqa: BLE001 - a raising handler answers with an error frame
            response = encode_frame(
                {"kind": "resp", "id": frame.get("id"), "status": "error", "error": str(exc)}
            )
        self._bump("frames_served")
        return response

    # -- client side -----------------------------------------------------

    def _link(self, peer_id: str) -> _PeerLink:
        with self._lock:
            link = self._links.get(peer_id)
            if link is None:
                path = self.peers.get(peer_id)
                if path is None:
                    raise BlockchainError(f"no socket path registered for peer {peer_id!r}")
                link = self._links[peer_id] = _PeerLink(self, peer_id, path)
            return link

    def _transmit(
        self, sends: list[tuple[_PeerLink, bytes, FaultDecision]]
    ) -> dict[str, Delivery]:
        """Write each link's frames; the recipients that could not be written to.

        Links that need (re)opening share one connect sweep, so a broadcast
        pays for its dead peers once, not once each; a peer still absent
        after :attr:`CONNECT_ATTEMPTS` is marked down for :attr:`DOWN_WINDOW`.
        """
        failures: dict[str, Delivery] = {}

        def fail(link: _PeerLink, decision: FaultDecision, status: str, error: str) -> None:
            self._bump("backpressure_drops" if status == DROPPED else "timeouts")
            failures[link.peer_id] = _outcome(link.peer_id, decision, status, error=error)

        now = time.monotonic()
        pending: list[tuple[_PeerLink, bytes, FaultDecision]] = []
        errors: dict[str, str] = {}
        for send in sends:
            link, _, decision = send
            if link.sock is None and now < link.down_until:
                fail(link, decision, TIMEOUT,
                     f"peer {link.peer_id!r} marked down (recent connect failure)")
            else:
                pending.append(send)
        for attempt in range(self.CONNECT_ATTEMPTS):
            if attempt:
                time.sleep(min(0.05 * attempt, 0.5))
            batch, pending = pending, []
            for send in batch:
                link, data, decision = send
                try:
                    link.write(data)
                except TimeoutError:
                    fail(link, decision, DROPPED, f"peer {link.peer_id!r} did not drain its "
                         f"socket within {self.BACKPRESSURE_WAIT}s")
                except OSError as exc:
                    pending.append(send)
                    errors[link.peer_id] = str(exc)
                else:
                    self._bump("frames_sent", 1 + decision.duplicates)
                    if attempt:
                        self._bump("reconnects")
            if not pending:
                break
        for link, _, decision in pending:
            # An unreachable peer is indistinguishable from a slow one at the
            # protocol level: record a timeout so the quorum counts an abstain.
            link.down_until = time.monotonic() + self.DOWN_WINDOW
            fail(link, decision, TIMEOUT, errors[link.peer_id])
        return failures

    def _receive(
        self, link: _PeerLink, msg_id: int, decision: FaultDecision, deadline: float
    ) -> Delivery:
        """One recipient's outcome once its frames are on the wire."""
        recipient = link.peer_id
        try:
            response = link.read(msg_id, deadline)
        except (OSError, BlockchainError) as exc:
            # The deadline may have expired mid-frame: the stream is not to
            # be trusted again, and the next request reopens the link.
            link.reset()
            self._bump("timeouts")
            error = (
                f"no response within {self.REQUEST_TIMEOUT}s"
                if isinstance(exc, TimeoutError) else str(exc)
            )
            return _outcome(recipient, decision, TIMEOUT, error=error)
        if decision.response_lost:
            # The remote handler ran and answered, and this sender discards
            # the answer — the simulated transports' "response lost"
            # semantics, now over a real socket.
            self._bump("timeouts")
            return self._response_lost(recipient, decision)
        if response.get("status") != "ok":
            error = str(response.get("error", "remote handler failed"))
            return _outcome(recipient, decision, ERROR, error=error)
        return _outcome(recipient, decision, DELIVERED, result=response.get("result"))

    # -- Transport interface --------------------------------------------

    def deliver(self, sender_id, topic, payload, handlers) -> dict[str, Delivery]:
        msg_id = next(self._ids)
        frame = {"kind": "msg", "id": msg_id, "sender": sender_id, "topic": topic,
                 "payload": payload}
        data = encode_frame(frame)
        # Duplicate copies re-invoke the remote handler under an id nobody
        # awaits, so their responses are discarded, like redundant gossip.
        copy = b""
        deliveries: dict[str, Delivery] = {}
        sends: list[tuple[_PeerLink, bytes, FaultDecision]] = []
        with contextlib.ExitStack() as locks:
            for recipient_id in sorted(handlers):
                if recipient_id == self.node_id:
                    # Local loopback: invoke directly, no socket round-trip.
                    deliveries[recipient_id] = _invoke(
                        recipient_id, handlers[recipient_id], sender_id, payload
                    )
                    continue
                failure, decision = self._gate(sender_id, recipient_id, topic)
                if failure is not None:
                    self._bump("partitioned" if failure.status == PARTITIONED else "fault_drops")
                    deliveries[recipient_id] = failure
                    continue
                if decision.duplicates and not copy:
                    copy = encode_frame({**frame, "id": -msg_id})
                link = self._link(recipient_id)
                locks.enter_context(link.lock)
                sends.append((link, copy * decision.duplicates + data, decision))
            # Every frame is on the wire before the first response is read,
            # and the reads share one deadline: the handlers run side by side.
            deliveries.update(self._transmit(sends))
            deadline = time.monotonic() + self.REQUEST_TIMEOUT
            for link, _, decision in sends:
                if link.peer_id not in deliveries:
                    deliveries[link.peer_id] = self._receive(link, msg_id, decision, deadline)
        return {recipient_id: deliveries[recipient_id] for recipient_id in sorted(handlers)}

    def transport_report(self) -> dict[str, Any]:
        """Link counters + fault-decision log size (per-peer delivery report)."""
        with self._lock:
            report: dict[str, Any] = dict(self.counters)
        report["peers"] = sorted(self.peers)
        report["decisions"] = 0 if self.decider is None else len(self.decider.log)
        return report


def _outcome(recipient: str, decision: FaultDecision, status: str, **fields: Any) -> Delivery:
    """A delivery that went out under ``decision``: its drawn latency and copies ride along."""
    return Delivery(
        recipient, status, latency=decision.latency, duplicates=decision.duplicates, **fields
    )


def _shutdown(sock: "socket.socket") -> None:
    """Wake whichever thread is blocked on ``sock``; it sees EOF and cleans up."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed, or never connected
