"""Pluggable persistence under the chain: the storage-backend layer.

A :class:`~repro.blockchain.chain.Blockchain` is a pure in-memory replica; a
:class:`StorageBackend` attached to it mirrors every sealed block to durable
storage and can restore a replica from that storage after a restart.  The
backend is strictly *under* the chain: it never changes what gets committed,
so backend choice is off-chain configuration (never part of
``ProtocolConfig.on_chain_params()``) and in-memory chains stay byte-identical
whether or not a backend is attached.

:class:`SQLiteBackend` is the one backend (no store at all is
``storage=None``): a SQLite database holding the block records, the live
key-value state and the per-block reverse deltas — only what a restore reads.
Nonce counters and the committed height are not stored: both follow from the
blocks (:meth:`~repro.blockchain.chain.Blockchain.adopt` derives the nonces
from the blocks it has verified).  Every sealed block is one SQLite
transaction (one synced append to ``<path>-wal``, which ``close()`` folds into
``<path>`` and removes), so a crash at *any* write boundary reopens to the
last sealed block: committed whole, or not at all.

Crash-safety is testable, not asserted: :attr:`SQLiteBackend.crash_hook` is a
fault-injection point fired immediately *before* each named write boundary
(see :data:`WRITE_BOUNDARIES`); raising from it simulates the process dying
mid-commit, and the property tests reopen the file and check the invariant at
every single boundary.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Any, Callable

from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.state import WorldState
from repro.blockchain.transaction import Transaction, TransactionReceipt
from repro.exceptions import ReproError, StorageError
from repro.utils.hashing import sha256_hex
from repro.utils.serialization import canonical_dumps, canonical_loads

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.blockchain.chain import Blockchain

SCHEMA_VERSION = 2

# The named write boundaries of one SQLiteBackend.commit_block, in order.
# The crash hook fires immediately before each one; a crash at boundary i
# means boundaries 0..i-1 executed and i..end did not.
WRITE_BOUNDARIES = ("begin", "blocks", "kv", "deltas", "commit")


# ---------------------------------------------------------------------------
# Block (de)serialization
# ---------------------------------------------------------------------------


def block_to_record(block: Block) -> dict[str, Any]:
    """A canonical-serializable record of one block (inverse of :func:`block_from_record`)."""
    return {
        "block_hash": block.block_hash,
        "header": block.header.to_record(),
        "transactions": [tx.to_record() for tx in block.transactions],
        "receipts": [receipt.to_dict() for receipt in block.receipts],
    }


def block_from_record(record: dict[str, Any]) -> Block:
    """Rebuild a block from its stored record, verifying hash and Merkle roots."""
    try:
        header = BlockHeader(
            height=int(record["header"]["height"]),
            parent_hash=str(record["header"]["parent_hash"]),
            proposer=str(record["header"]["proposer"]),
            tx_root=str(record["header"]["tx_root"]),
            receipt_root=str(record["header"]["receipt_root"]),
            state_root=str(record["header"]["state_root"]),
            timestamp=int(record["header"]["timestamp"]),
            view=record["header"].get("view"),
        )
        transactions = tuple(
            Transaction(
                sender=tx["sender"],
                contract=tx["contract"],
                method=tx["method"],
                args=tx["args"],
                nonce=int(tx["nonce"]),
                signature=tx["signature"],
            )
            for tx in record["transactions"]
        )
        receipts = tuple(
            TransactionReceipt(
                tx_hash=receipt["tx_hash"],
                success=bool(receipt["success"]),
                result=receipt["result"],
                error=receipt["error"],
                events=tuple(receipt["events"]),
                gas_used=int(receipt["gas_used"]),
            )
            for receipt in record["receipts"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed stored block record: {exc}") from exc
    block = Block(header=header, transactions=transactions, receipts=receipts)
    if block.block_hash != record.get("block_hash"):
        raise StorageError(
            f"stored block {header.height} does not hash to its recorded identity "
            f"({block.block_hash[:12]} != {str(record.get('block_hash'))[:12]})"
        )
    block.verify_roots()
    return block


def _encode_delta(delta: dict[str, tuple[bool, Any, str | None]]) -> str:
    """Canonical encoding of one reverse delta (value hashes are recomputed on load)."""
    return canonical_dumps(
        [[full, had, value] for full, (had, value, _) in sorted(delta.items())]
    )


def _decode_delta(encoded: str) -> dict[str, tuple[bool, Any, str | None]]:
    delta: dict[str, tuple[bool, Any, str | None]] = {}
    for full, had, value in canonical_loads(encoded):
        value_hash = sha256_hex(canonical_dumps(value)) if had else None
        delta[str(full)] = (bool(had), value, value_hash)
    return delta


# ---------------------------------------------------------------------------
# Backend interface
# ---------------------------------------------------------------------------


class StorageBackend:
    """What a chain needs from its persistence layer.

    ``attach`` is called exactly once, by ``Blockchain.attach_storage``, with
    the chain at genesis; it either restores an existing store into the
    replica (returning ``True``) or initializes the store from the replica
    (returning ``False``).  After that the chain calls ``commit_block`` once
    per sealed block (live commits and catch-up alike), ``rewrite`` when a fresh
    replica adopts a whole chain at once (fast sync), and ``prune`` when reverse
    deltas are dropped.
    """

    def attach(self, chain: "Blockchain") -> bool:
        raise NotImplementedError

    def commit_block(self, block: Block, state: WorldState) -> None:
        """Persist ``block`` and the state it sealed (its reverse delta is the latest)."""
        raise NotImplementedError

    def rewrite(self, chain: "Blockchain") -> None:
        raise NotImplementedError

    def prune(self, heights: list[int]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; the backend must not be used afterwards."""


# ---------------------------------------------------------------------------
# SQLite backend
# ---------------------------------------------------------------------------

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS blocks (height INTEGER PRIMARY KEY, record TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS kv (full_key TEXT PRIMARY KEY, encoded TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS deltas (height INTEGER PRIMARY KEY, record TEXT NOT NULL);
"""


class SQLiteBackend(StorageBackend):
    """Blocks, state and reverse deltas in one SQLite file (see module docstring).

    Args:
        path: database file path (created if missing).
        crash_hook: optional fault-injection callable fired with the boundary
            name immediately before each write step of ``commit_block``.
            Raising from it aborts (and rolls back) the commit — used by the
            crash-safety property tests, never in production paths.
    """

    def __init__(self, path: str, crash_hook: Callable[[str], None] | None = None) -> None:
        self.path = str(path)
        self.crash_hook = crash_hook
        self._closed = False
        try:
            # check_same_thread=False: a swarm peer commits from whichever
            # handler thread runs the round; callers serialize access (the
            # chain mutates under the peer's node lock, never concurrently).
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open sqlite store at {self.path}: {exc}") from exc
        # Explicit transaction control: commit_block brackets its own
        # BEGIN IMMEDIATE ... COMMIT so atomicity is ours, not the driver's.
        self._conn.isolation_level = None
        # One mode: a commit is one WAL append, synced before COMMIT returns;
        # a store written under the rollback journal converts here, once.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        self._conn.executescript(_SCHEMA)
        stored_schema = self._get_meta("schema_version")
        if stored_schema is None and self.committed_height() is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)", (str(SCHEMA_VERSION),)
            )
        elif stored_schema != str(SCHEMA_VERSION):
            self._conn.close()
            raise StorageError(
                f"sqlite store at {self.path} has schema version {stored_schema}, "
                f"this build expects {SCHEMA_VERSION}"
            )

    # -- small helpers ---------------------------------------------------

    def _guard(self) -> None:
        if self._closed:
            raise StorageError("storage backend is closed")

    def _fire(self, boundary: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(boundary)

    def _get_meta(self, key: str) -> str | None:
        row = self._conn.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return None if row is None else str(row[0])

    def committed_height(self) -> int | None:
        """The height of the last durably committed block (None for a fresh store)."""
        self._guard()
        row = self._conn.execute("SELECT MAX(height) FROM blocks").fetchone()
        return None if row[0] is None else int(row[0])

    def oldest_retained_delta(self) -> int | None:
        """The lowest height with a retained reverse delta (None when empty)."""
        self._guard()
        row = self._conn.execute("SELECT MIN(height) FROM deltas").fetchone()
        return None if row is None or row[0] is None else int(row[0])

    # -- StorageBackend interface ----------------------------------------

    def attach(self, chain: "Blockchain") -> bool:
        self._guard()
        height = self.committed_height()
        if height is None:
            self.rewrite(chain)
            return False
        stored_version = self._get_meta("state_root_version")
        if stored_version != str(chain.state_root_version):
            raise StorageError(
                f"store at {self.path} was written with state_root_version "
                f"{stored_version}, the chain is configured for {chain.state_root_version}"
            )
        self._restore(chain, height)
        return True

    def commit_block(self, block, state) -> None:
        self._guard()
        record = canonical_dumps(block_to_record(block))
        delta = state._versions[block.height]
        try:
            self._fire("begin")
            self._conn.execute("BEGIN IMMEDIATE")
            self._fire("blocks")
            self._conn.execute(
                "INSERT OR REPLACE INTO blocks (height, record) VALUES (?, ?)",
                (block.height, record),
            )
            self._fire("kv")
            for full in sorted(delta):
                if full in state._data:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO kv (full_key, encoded) VALUES (?, ?)",
                        (full, canonical_dumps(state._data[full])),
                    )
                else:
                    self._conn.execute("DELETE FROM kv WHERE full_key = ?", (full,))
            self._fire("deltas")
            self._conn.execute(
                "INSERT OR REPLACE INTO deltas (height, record) VALUES (?, ?)",
                (block.height, _encode_delta(delta)),
            )
            self._fire("commit")
            self._conn.execute("COMMIT")
        except Exception:
            self._rollback()
            raise

    def rewrite(self, chain: "Blockchain") -> None:
        """Replace the whole store with the chain's current contents (one transaction)."""
        self._guard()
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            for table in ("blocks", "kv", "deltas"):
                self._conn.execute(f"DELETE FROM {table}")
            self._conn.executemany(
                "INSERT INTO blocks (height, record) VALUES (?, ?)",
                [(block.height, canonical_dumps(block_to_record(block))) for block in chain.blocks],
            )
            self._conn.executemany(
                "INSERT INTO kv (full_key, encoded) VALUES (?, ?)",
                [(full, canonical_dumps(value)) for full, value in sorted(chain.state._data.items())],
            )
            self._conn.executemany(
                "INSERT INTO deltas (height, record) VALUES (?, ?)",
                [(height, _encode_delta(delta)) for height, delta in sorted(chain.state._versions.items())],
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('state_root_version', ?)",
                (str(chain.state_root_version),),
            )
            self._conn.execute("COMMIT")
        except Exception:
            self._rollback()
            raise

    def prune(self, heights: list[int]) -> None:
        self._guard()
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.executemany(
                "DELETE FROM deltas WHERE height = ?", [(int(h),) for h in heights]
            )
            self._conn.execute("COMMIT")
        except Exception:
            self._rollback()
            raise

    def prune_to(self, keep_last: int) -> list[int]:
        """Standalone pruning (CLI ``prune``): drop delta rows below the horizon.

        Works directly on the store without rebuilding a chain; returns the
        pruned heights.
        """
        self._guard()
        head = self.committed_height()
        if head is None:
            raise StorageError(f"store at {self.path} holds no committed chain to prune")
        if int(keep_last) < 1:
            raise StorageError("prune horizon must keep at least the latest version")
        horizon = head - int(keep_last) + 1
        rows = self._conn.execute(
            "SELECT height FROM deltas WHERE height < ? ORDER BY height", (horizon,)
        ).fetchall()
        pruned = [int(row[0]) for row in rows]
        self.prune(pruned)
        return pruned

    def stored_state_root_version(self) -> int | None:
        """The state-commitment format tag this store was written with.

        ``None`` on a fresh store.  ``attach`` refuses a store whose tag is not
        the chain's (a store written by a build with a retired layout).
        """
        self._guard()
        version = self._get_meta("state_root_version")
        return None if version is None else int(version)

    def close(self) -> None:
        if not self._closed:
            self._rollback()
            self._conn.close()
            self._closed = True

    # -- restore ---------------------------------------------------------

    def _rollback(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass  # no transaction in flight

    def _restore(self, chain: "Blockchain", height: int) -> None:
        """Rebuild blocks and state (with Merkle indexes and deltas); ``chain.adopt`` them.

        Nothing read here is trusted: a row that does not decode, or a chain
        that ``adopt`` refuses, is a :class:`StorageError` and leaves the
        replica at genesis (``adopt`` is all or nothing).
        """
        try:
            chain.adopt(*self._read_chain(height))
        except StorageError:
            raise
        except (ReproError, ValueError, TypeError, KeyError) as exc:
            raise StorageError(f"store at {self.path} failed verification: {exc}") from exc

    def _read_chain(self, height: int) -> tuple[list[Block], WorldState]:
        rows = self._conn.execute("SELECT height, record FROM blocks ORDER BY height").fetchall()
        if [int(r[0]) for r in rows] != list(range(height + 1)):
            raise StorageError(
                f"store at {self.path} is missing block records "
                f"(committed height {height}, {len(rows)} record(s) present)"
            )
        blocks = [block_from_record(canonical_loads(record)) for _, record in rows]
        state = WorldState()
        for full, encoded in self._conn.execute("SELECT full_key, encoded FROM kv"):
            namespace, _, key = str(full).partition("/")
            state.set(namespace, key, canonical_loads(encoded), encoded=encoded)
        state._journal.clear()
        state._versions = {
            int(h): _decode_delta(record)
            for h, record in self._conn.execute("SELECT height, record FROM deltas")
        }
        state._latest_version = height
        # Pruning drops the oldest deltas only, and genesis writes nothing: so
        # ``adopt``'s walk back from the head checks every retained delta.
        retained = sorted(state._versions)
        if not retained or retained != list(range(retained[0], height + 1)) or state._versions.get(0):
            raise StorageError(
                f"store at {self.path} retains reverse deltas {retained[:1]}..{retained[-1:]} "
                f"under head {height}: not one run up to the head with an empty genesis delta"
            )
        if state.state_root() != blocks[-1].header.state_root:
            raise StorageError(
                "reopened state does not hash to the committed head's state root — "
                "the store is corrupt or was written by an incompatible build"
            )
        return blocks, state


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def open_backend(spec: str | StorageBackend) -> StorageBackend | None:
    """Resolve a ``--store`` spec: ``"memory"`` (no store: ``None``) or ``"sqlite:PATH"``.

    An already-constructed backend passes through unchanged, so programmatic
    callers can inject e.g. a crash-hooked :class:`SQLiteBackend`.
    """
    if isinstance(spec, StorageBackend):
        return spec
    text = str(spec)
    if text == "memory":
        return None
    if text.startswith("sqlite:"):
        path = text[len("sqlite:"):]
        if not path:
            raise StorageError("sqlite store spec needs a path: sqlite:PATH")
        return SQLiteBackend(path)
    raise StorageError(f"unknown store spec {text!r} (expected 'memory' or 'sqlite:PATH')")
