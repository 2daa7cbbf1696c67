"""A miner swarm over sockets: N peer processes behind the ``SocketTransport`` seam.

Each peer is a full OS process (``multiprocessing`` spawn) running one
:class:`~repro.blockchain.node.MinerNode` replica: its own chain (optionally
durable via the SQLite :class:`~repro.blockchain.storage.StorageBackend`),
mempool, and a :class:`~repro.blockchain.transport.SocketTransport` serving
length-prefixed frames on a Unix socket.  The :class:`SwarmSupervisor` spawns
the peers, drives consensus rounds in lockstep over a control channel (the
same frame protocol, ``kind="ctrl"``), monitors liveness, kills and restarts
peers for fault drills, and collects per-peer delivery reports.

Determinism is the point: the workload (:func:`make_round_transactions`) is a
pure function of the config seed, leaders rotate round-robin, block timestamps
are logical (parent + 1), and the mempool orders transactions FIFO — so a
swarm run's final head hash is byte-identical to the same config executed
single-process under :class:`~repro.blockchain.transport.DeterministicTransport`
(:func:`run_reference_workload`), which is what the concurrency-determinism
suite pins.  Under a seeded :class:`~repro.blockchain.transport.FaultPlan` the
supervisor retries rejected rounds until the partition heals and resyncs
lagging replicas, so the *healed* swarm still converges to that same head.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import socket
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.blockchain.chain import Blockchain
from repro.blockchain.consensus import ConsensusEngine
from repro.blockchain.contracts.base import (
    Contract,
    ContractContext,
    ContractRuntime,
    contract_method,
)
from repro.blockchain.network import Network
from repro.blockchain.node import (
    TOPIC_COMMIT,
    TOPIC_PROPOSAL,
    TOPIC_SYNC,
    TOPIC_TRANSACTIONS,
    MinerNode,
)
from repro.blockchain.state import STATE_ROOT_VERSION
from repro.blockchain.storage import open_backend
from repro.blockchain.transaction import Transaction
from repro.blockchain.transport import (
    FaultPlan,
    SocketTransport,
    encode_frame,
    read_frame_sync,
)
from repro.exceptions import BlockchainError, ConsensusError
from repro.utils.validation import require_format_tag

SWARM_TOPICS = (TOPIC_TRANSACTIONS, TOPIC_PROPOSAL, TOPIC_COMMIT, TOPIC_SYNC)

#: Attempts (tick, submit, propose; resync sweep in between) the supervisor
#: gives one round before the run fails.
MAX_ROUND_ATTEMPTS = 8


# ----------------------------------------------------------------------
# Configuration and deterministic workload
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SwarmConfig:
    """Everything a swarm run depends on; picklable (crosses the spawn boundary).

    The tuple (``seed``, ``rounds``, ``txs_per_round``, ``peers``) fully
    determines the committed chain; ``fault_plan`` and ``use_storage`` shape
    fault injection and durability without affecting block bytes.
    ``state_root_version`` is the state commitment's format tag: only
    :data:`~repro.blockchain.state.STATE_ROOT_VERSION` is accepted.
    """

    peers: int = 8
    rounds: int = 3
    txs_per_round: int = 2
    seed: int = 7
    state_root_version: int = STATE_ROOT_VERSION
    fault_plan: FaultPlan | None = None
    use_storage: bool = True

    def __post_init__(self) -> None:
        require_format_tag(
            "state_root_version", self.state_root_version, STATE_ROOT_VERSION, BlockchainError
        )
        if self.peers < 1:
            raise BlockchainError("SwarmConfig.peers must be at least 1")
        if self.rounds < 0 or self.txs_per_round < 1:
            raise BlockchainError("SwarmConfig needs rounds >= 0 and txs_per_round >= 1")

    def peer_ids(self) -> list[str]:
        return [f"miner-{index:03d}" for index in range(self.peers)]

    def leader_for(self, round_index: int) -> str:
        """Round-robin leader schedule (same in the swarm and the reference run)."""
        return self.peer_ids()[round_index % self.peers]


class SwarmLedgerContract(Contract):
    """The swarm workload contract: per-account balances credited each round."""

    name = "ledger"

    @contract_method
    def credit(self, ctx: ContractContext, account: str, amount: int) -> int:
        if amount < 0:
            raise BlockchainError("credit amount must be non-negative")
        balance = ctx.get(f"balance:{account}", 0) + int(amount)
        ctx.set(f"balance:{account}", balance)
        ctx.emit("Credited", account=account, amount=int(amount), balance=balance)
        return balance


def swarm_runtime_factory() -> ContractRuntime:
    """Runtime with the swarm ledger registered (module-level: spawn-picklable)."""
    runtime = ContractRuntime()
    runtime.register(SwarmLedgerContract())
    return runtime


def make_round_transactions(config: SwarmConfig, round_index: int) -> list[Transaction]:
    """The transactions every replica expects in round ``round_index``.

    One transaction per workload owner per round, amounts hash-derived from
    the config seed — a pure function, so the supervisor, any retry attempt,
    and the single-process reference run all submit identical transactions
    (the mempool deduplicates resubmissions by transaction hash).
    """
    transactions = []
    for owner in range(config.txs_per_round):
        digest = hashlib.sha256(
            f"swarm-tx|{config.seed}|{round_index}|{owner}".encode()
        ).digest()
        amount = int.from_bytes(digest[:4], "big") % 1000
        transactions.append(
            Transaction(
                sender=f"owner-{owner:02d}",
                contract="ledger",
                method="credit",
                args={"account": f"acct-{owner % 3}", "amount": amount},
                nonce=round_index,
            )
        )
    return transactions


def run_reference_workload(config: SwarmConfig) -> dict[str, Any]:
    """The same workload, single-process, under ``DeterministicTransport``.

    This is the parity oracle: the swarm's final head must be byte-identical
    to this run's.
    """
    network = Network()
    nodes = [
        MinerNode(peer_id, network, swarm_runtime_factory)
        for peer_id in config.peer_ids()
    ]
    by_id = {node.node_id: node for node in nodes}
    engine = ConsensusEngine()
    for round_index in range(config.rounds):
        network.begin_round()
        leader = by_id[config.leader_for(round_index)]
        leader.submit_transactions(make_round_transactions(config, round_index))
        leader.run_consensus_round(engine)
    heads = {node.node_id: node.chain.head.block_hash for node in nodes}
    if len(set(heads.values())) != 1:
        raise BlockchainError(f"reference run diverged: {heads}")
    return {
        "head": nodes[0].chain.head.block_hash,
        "height": nodes[0].chain.height,
        "chain": nodes[0].chain,
    }


def audit_swarm_chain(chain: Blockchain) -> dict[str, Any]:
    """Audit one swarm replica: structure, full replay, and version roots.

    Raises on any mismatch; returns a summary for reports.
    """
    chain.validate_chain()
    replayed = chain.replay()
    if replayed.head.block_hash != chain.head.block_hash:
        raise BlockchainError(
            f"replay head {replayed.head.block_hash} != committed {chain.head.block_hash}"
        )
    verified = chain.verify_version_roots()  # raises on any root mismatch
    return {
        "height": chain.height,
        "head": chain.head.block_hash,
        "transactions": chain.total_transactions(),
        "verified_versions": verified,
    }


# ----------------------------------------------------------------------
# Peer process
# ----------------------------------------------------------------------

def _remote_proxy_handler(sender_id: str, payload: Any) -> None:
    """Placeholder registered for remote peers on each local Network.

    It makes remote peers visible to membership/subscription checks
    (``Network.peers``, attempted-delivery counts, resync target discovery);
    the socket transport routes their deliveries over the wire, so invoking
    this locally is always a bug.
    """
    raise BlockchainError("remote proxy handler invoked locally")


class SwarmPeer:
    """One miner peer process: replica + transport server + control endpoint.

    All node-state mutation (inbound handlers and supervisor ctrl commands)
    is serialized under one re-entrant lock; cross-peer waits that could
    cycle (A mid-round waiting on B while B's handler waits on A) resolve via
    the transport's wall-clock timeouts, which the quorum path counts as
    abstains.
    """

    def __init__(
        self,
        config: SwarmConfig,
        node_id: str,
        peer_table: dict[str, str],
        store_path: str | None,
    ) -> None:
        self.config = config
        self.node_id = node_id
        self.restored = False
        socket_path = peer_table[node_id]
        if os.path.exists(socket_path):
            os.unlink(socket_path)  # a restarted peer reclaims its address
        self.transport = SocketTransport(node_id, peer_table, plan=config.fault_plan)
        self.network = Network(self.transport)
        self.node = MinerNode(node_id, self.network, swarm_runtime_factory)
        if store_path is not None:
            self.restored = self.node.chain.attach_storage(open_backend(f"sqlite:{store_path}"))
        for peer_id in sorted(peer_table):
            if peer_id == node_id:
                continue
            self.network.join(peer_id)
            for topic in SWARM_TOPICS:
                self.network.subscribe(peer_id, topic, _remote_proxy_handler)
        self.engine = ConsensusEngine()
        self._lock = threading.RLock()
        self._shutdown = threading.Event()
        self.transport.serve(self._dispatch, self._ctrl)

    # -- inbound peer traffic -------------------------------------------

    def _dispatch(self, sender_id: str, topic: str, payload: Any) -> Any:
        handler = self.network.handler_for(self.node_id, topic)
        with self._lock:
            return handler(sender_id, payload)

    # -- supervisor control channel -------------------------------------

    def _ctrl(self, command: str, args: Any) -> Any:
        args = args or {}
        if command == "ping":
            return {"node": self.node_id, "height": self.node.chain.height,
                    "restored": self.restored}
        if command == "tick":
            self.network.begin_round()
            return {"tick": self.transport.tick}
        if command == "submit":
            with self._lock:
                report = self.node.submit_transactions(args["transactions"])
            return {"undelivered": report.undelivered()}
        if command == "round":
            with self._lock:
                result = self.node.run_consensus_round(self.engine)
            return {
                "accepted": result.accepted,
                "height": self.node.chain.height,
                "head": self.node.chain.head.block_hash,
                "abstains": result.abstain_count,
            }
        if command == "resync":
            with self._lock:
                adopted = self.node.try_resync()
            return {"resynced": adopted, "height": self.node.chain.height,
                    "head": self.node.chain.head.block_hash}
        if command == "head":
            return {"height": self.node.chain.height,
                    "head": self.node.chain.head.block_hash}
        if command == "heal":
            self.transport.heal_all()
            return {"healed": dict(self.transport.healed)}
        if command == "report":
            return {
                "node": self.node_id,
                "height": self.node.chain.height,
                "head": self.node.chain.head.block_hash,
                "restored": self.restored,
                "resyncs": list(self.node.resyncs),
                "delivery": self.network.stats.delivery_report(),
                "stats": self.network.stats.per_peer_report(),
                "transport": self.transport.transport_report(),
            }
        if command == "chain":
            with self._lock:
                return self.node.chain
        if command == "shutdown":
            self._shutdown.set()
            return {"node": self.node_id, "stopping": True}
        raise BlockchainError(f"unknown ctrl command {command!r}")

    # -- lifecycle -------------------------------------------------------

    def serve_until_shutdown(self) -> None:
        self._shutdown.wait()
        # Give the shutdown ctrl response a moment to flush before teardown.
        time.sleep(0.05)
        self.transport.stop()
        if self.node.chain.storage is not None:
            self.node.chain.storage.close()


def _peer_main(
    config: SwarmConfig, node_id: str, peer_table: dict[str, str], store_path: str | None
) -> None:
    """Entry point of a spawned peer process."""
    peer = SwarmPeer(config, node_id, peer_table, store_path)
    peer.serve_until_shutdown()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------

@dataclass
class PeerHandle:
    """The supervisor's view of one peer process."""

    node_id: str
    socket_path: str
    store_path: str | None
    process: Any = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class SwarmSupervisor:
    """Launches, drives, and tears down an N-peer miner swarm.

    The supervisor is a plain synchronous client of the peers' frame servers:
    every command opens a fresh Unix-socket connection, sends one
    ``kind="ctrl"`` frame, and reads one response — the same blocking frame
    exchange the peers use among themselves.  Rounds
    are driven in lockstep (tick everyone, then ask the round's leader to
    submit + propose), failed rounds are retried after resyncing lagging
    replicas, and kill/restart drills reuse each peer's SQLite store for
    crash-consistent recovery, then verify-and-append the tail a peer serves
    (a frame of blocks; the ctrl ``chain`` command alone ships a replica).
    """

    def __init__(self, config: SwarmConfig, workdir: str | None = None) -> None:
        self.config = config
        # Unix socket paths are length-limited (~108 bytes); a dedicated
        # short-lived directory under the default tmp root stays safely under.
        self._tmpdir = tempfile.TemporaryDirectory(prefix="swarm-") if workdir is None else None
        self.workdir = workdir if workdir is not None else self._tmpdir.name
        self._ctx = multiprocessing.get_context("spawn")
        self.handles: dict[str, PeerHandle] = {}
        for index, peer_id in enumerate(config.peer_ids()):
            self.handles[peer_id] = PeerHandle(
                node_id=peer_id,
                socket_path=os.path.join(self.workdir, f"p{index:03d}.sock"),
                store_path=(
                    os.path.join(self.workdir, f"p{index:03d}.db")
                    if config.use_storage else None
                ),
            )
        self.peer_table = {
            peer_id: handle.socket_path for peer_id, handle in self.handles.items()
        }
        self._pool = ThreadPoolExecutor(
            max_workers=min(32, config.peers), thread_name_prefix="swarm-ctrl"
        )
        #: Per-round commit log: {"round", "leader", "attempts", "head"}.
        self.round_log: list[dict[str, Any]] = []

    # -- process lifecycle ----------------------------------------------

    def start(self, ready_timeout: float = 60.0) -> None:
        for peer_id in self.handles:
            self._spawn(peer_id)
        self._wait_ready(list(self.handles), ready_timeout)

    def _spawn(self, peer_id: str) -> None:
        handle = self.handles[peer_id]
        handle.process = self._ctx.Process(
            target=_peer_main,
            args=(self.config, peer_id, self.peer_table, handle.store_path),
            name=peer_id,
            daemon=True,
        )
        handle.process.start()

    def _wait_ready(self, peer_ids: list[str], timeout: float) -> None:
        deadline = time.monotonic() + timeout
        pending = set(peer_ids)
        while pending:
            for peer_id in sorted(pending):
                try:
                    self.ctrl(peer_id, "ping", timeout=2.0)
                    pending.discard(peer_id)
                except (OSError, BlockchainError):
                    if not self.handles[peer_id].alive:
                        raise BlockchainError(f"peer {peer_id!r} died during startup")
            if pending:
                if time.monotonic() > deadline:
                    raise BlockchainError(f"peers never became ready: {sorted(pending)}")
                time.sleep(0.05)

    def alive_peers(self) -> list[str]:
        return sorted(pid for pid, handle in self.handles.items() if handle.alive)

    def kill_peer(self, peer_id: str) -> None:
        """Hard-kill one peer (no clean shutdown — the crash drill)."""
        handle = self.handles[peer_id]
        if handle.process is not None:
            handle.process.terminate()
            handle.process.join(timeout=10)
            handle.process = None
        if os.path.exists(handle.socket_path):
            os.unlink(handle.socket_path)  # connects fail fast instead of hanging

    def restart_peer(self, peer_id: str, ready_timeout: float = 30.0) -> dict[str, Any]:
        """Respawn a killed peer; its SQLite store restores the committed prefix
        and a targeted resync fills whatever the swarm committed since."""
        self._spawn(peer_id)
        self._wait_ready([peer_id], ready_timeout)
        return self.ctrl(peer_id, "resync")

    def stop(self) -> None:
        for peer_id in self.alive_peers():
            try:
                self.ctrl(peer_id, "shutdown", timeout=5.0)
            except (OSError, BlockchainError):
                pass
        for handle in self.handles.values():
            if handle.process is not None:
                handle.process.join(timeout=10)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=5)
                handle.process = None
        self._pool.shutdown(wait=False)
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    def __enter__(self) -> "SwarmSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- control channel -------------------------------------------------

    def ctrl(
        self, peer_id: str, command: str, args: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> Any:
        """One synchronous control round-trip to a peer."""
        path = self.peer_table[peer_id]
        budget = timeout if timeout is not None else SocketTransport.REQUEST_TIMEOUT * 8 + 60
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.settimeout(budget)
            client.connect(path)
            client.sendall(
                encode_frame({"kind": "ctrl", "id": 0, "command": command, "args": args})
            )
            response = read_frame_sync(client)
        if response is None:
            raise BlockchainError(f"peer {peer_id!r} closed the ctrl connection")
        if response.get("status") != "ok":
            raise BlockchainError(
                f"ctrl {command!r} on {peer_id!r} failed: {response.get('error')}"
            )
        return response.get("result")

    def broadcast_ctrl(
        self, command: str, args: dict[str, Any] | None = None,
        peers: list[str] | None = None, timeout: float | None = None,
    ) -> dict[str, Any]:
        """Run one ctrl command on many peers concurrently; exceptions are values."""
        targets = peers if peers is not None else self.alive_peers()
        futures = {
            peer_id: self._pool.submit(self.ctrl, peer_id, command, args, timeout)
            for peer_id in targets
        }
        results: dict[str, Any] = {}
        for peer_id, future in futures.items():
            try:
                results[peer_id] = future.result()
            except Exception as exc:  # noqa: BLE001 - a dead peer is data, not a crash
                results[peer_id] = BlockchainError(str(exc))
        return results

    # -- round driving ---------------------------------------------------

    def heads(self, peers: list[str] | None = None) -> dict[str, dict[str, Any]]:
        return {
            peer_id: result
            for peer_id, result in self.broadcast_ctrl("head", peers=peers).items()
            if not isinstance(result, Exception)
        }

    def resync_lagging(self) -> list[str]:
        """Targeted recovery: resync only the replicas behind the tallest head."""
        heads = self.heads()
        if not heads:
            return []
        top = max(entry["height"] for entry in heads.values())
        lagging = sorted(pid for pid, entry in heads.items() if entry["height"] < top)
        for peer_id in lagging:
            self.ctrl(peer_id, "resync")
        return lagging

    def run_round(self, round_index: int, allow_leader_fallback: bool = False) -> dict[str, Any]:
        """Drive one consensus round to commit, retrying through fault windows.

        Every attempt advances every peer's transport tick first (that is
        what schedules plan partitions and their heals), then the round's
        leader submits the workload and proposes.  A rejected or unreachable
        attempt triggers a targeted resync sweep and another attempt; with
        ``allow_leader_fallback`` (the kill/restart soak) a dead scheduled
        leader is replaced by the next alive peer, which trades reference
        parity for liveness.
        """
        scheduled = self.config.leader_for(round_index)
        transactions = make_round_transactions(self.config, round_index)
        failures: list[str] = []
        for attempt in range(MAX_ROUND_ATTEMPTS):
            self.broadcast_ctrl("tick")
            leader = scheduled
            if not self.handles[leader].alive:
                if not allow_leader_fallback:
                    raise BlockchainError(
                        f"round {round_index}: scheduled leader {leader!r} is dead"
                    )
                alive = self.alive_peers()
                if not alive:
                    raise BlockchainError("no alive peers left to lead")
                leader = alive[round_index % len(alive)]
            try:
                head = self.ctrl(leader, "head")
                if head["height"] >= round_index + 1:
                    # A previous attempt committed but its response was lost.
                    result = {"accepted": True, **head}
                else:
                    if head["height"] < round_index:
                        self.ctrl(leader, "resync")
                    self.ctrl(leader, "submit", {"transactions": transactions})
                    result = self.ctrl(leader, "round")
                self.round_log.append(
                    {"round": round_index, "leader": leader, "attempts": attempt + 1,
                     "head": result["head"]}
                )
                return result
            except (OSError, BlockchainError) as exc:
                failures.append(f"attempt {attempt} via {leader}: {exc}")
                try:
                    self.resync_lagging()
                except (OSError, BlockchainError):
                    pass
        raise ConsensusError(
            f"round {round_index} failed after {MAX_ROUND_ATTEMPTS} attempts: "
            + "; ".join(failures[-3:])
        )

    def converge(self, sweeps: int = 10) -> dict[str, str]:
        """Resync until every alive replica reports the same head; return the heads.

        Each sweep also advances the shared tick clock: a replica stranded
        behind a scheduled partition (``heal_tick`` not yet reached because
        the majority committed every round on its first attempt) can only be
        resynced once time passes and the partition heals, so convergence
        *is* the passage of time for the fault schedule.
        """
        for sweep in range(sweeps):
            heads = self.heads()
            if heads and len({entry["head"] for entry in heads.values()}) == 1:
                return {pid: entry["head"] for pid, entry in heads.items()}
            self.broadcast_ctrl("tick")
            self.resync_lagging()
            time.sleep(0.05)
        heads = self.heads()
        raise BlockchainError(f"swarm did not converge: {heads}")

    def fetch_chain(self, peer_id: str) -> Blockchain:
        """Pull one replica's full chain (storage-detached) for local auditing."""
        chain = self.ctrl(peer_id, "chain")
        if not isinstance(chain, Blockchain):
            raise BlockchainError(f"peer {peer_id!r} returned {type(chain).__name__}")
        return chain

    def collect_reports(self) -> dict[str, Any]:
        return self.broadcast_ctrl("report")


def run_swarm_workload(
    config: SwarmConfig,
    kill_schedule: dict[int, list[str]] | None = None,
    restart_after: int = 1,
) -> dict[str, Any]:
    """Run the full swarm workload and return heads, reports, and the round log.

    ``kill_schedule`` maps a round index to peer ids hard-killed *before* that
    round runs; each killed peer is restarted ``restart_after`` rounds later
    (or at workload end), restoring from its SQLite store and resyncing the
    tail.  Used by the randomized soak test; plain runs pass no schedule.
    """
    kill_schedule = kill_schedule or {}
    pending_restart: dict[str, int] = {}
    supervisor = SwarmSupervisor(config)
    fallback = bool(kill_schedule)
    try:
        supervisor.start()
        for round_index in range(config.rounds):
            for peer_id in kill_schedule.get(round_index, ()):
                if supervisor.handles[peer_id].alive:
                    supervisor.kill_peer(peer_id)
                    pending_restart[peer_id] = round_index + restart_after
            due = [pid for pid, when in pending_restart.items() if when <= round_index]
            for peer_id in sorted(due):
                supervisor.restart_peer(peer_id)
                del pending_restart[peer_id]
            supervisor.run_round(round_index, allow_leader_fallback=fallback)
        for peer_id in sorted(pending_restart):
            supervisor.restart_peer(peer_id)
        heads = supervisor.converge()
        reports = supervisor.collect_reports()
        chain = supervisor.fetch_chain(sorted(heads)[0])
        audit = audit_swarm_chain(chain)
        return {
            "head": next(iter(heads.values())),
            "heads": heads,
            "height": chain.height,
            "audit": audit,
            "reports": reports,
            "round_log": list(supervisor.round_log),
        }
    finally:
        supervisor.stop()
