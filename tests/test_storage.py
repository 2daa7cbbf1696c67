"""Tests for the persistence layer under the chain (the storage engine).

Four properties are pinned here:

* **Restore == never stopped** — a chain committed to SQLite, closed, and
  reopened restores blocks, state, retained deltas, and nonces exactly, and
  blocks committed after the restore are byte-identical to an uninterrupted
  run's.
* **Crash-atomicity at every boundary** — killing the backend (via the
  fault-injection hook) at *each* named write boundary of ``commit_block``
  leaves the store at exactly the last sealed block; reopening always works.
* **Memory/SQLite parity** — under randomized contract-driven op sequences
  the persisted replica's state, roots, and proofs match the in-memory one.
* **Registry-safe pruning** — dropping reverse deltas below a horizon changes
  no audit verdict: reads below the horizon fall back to snapshot+replay and
  the fallback is visible in the ``AuditReport``.
"""

from __future__ import annotations

import os
import shutil
import signal
import sqlite3
import subprocess
import sys

import numpy as np
import pytest

from helpers import CounterContract, counter_tx, dump_tables
from repro.blockchain.chain import Blockchain
from repro.blockchain.contracts.base import ContractRuntime
from repro.blockchain.state import WorldState
from repro.blockchain.storage import (
    WRITE_BOUNDARIES,
    InMemoryBackend,
    SQLiteBackend,
    StorageBackend,
    block_from_record,
    block_to_record,
    open_backend,
)
from repro.blockchain.transaction import Transaction
from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import ChurnScenario, RoundScheduler
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets
from repro.exceptions import ChainValidationError, ProtocolError, StorageError, ValidationError
from repro.utils.serialization import canonical_dumps, canonical_loads
from test_state_store import RandomWriterContract


def _writer_runtime() -> ContractRuntime:
    runtime = ContractRuntime()
    runtime.register(RandomWriterContract())
    runtime.register(CounterContract())
    return runtime


def _writer_txs(chain: Blockchain, height: int, history: int = 0) -> list[Transaction]:
    """One block of seeded random writes; ``history`` picks the write sequence."""
    return [
        Transaction(
            sender="alice", contract="writer", method="scribble",
            args={"seed": history * 1000 + height * 10 + 1}, nonce=chain.next_nonce("alice"),
        ),
        Transaction(
            sender="bob", contract="writer", method="scribble",
            args={"seed": history * 1000 + height * 10 + 2}, nonce=chain.next_nonce("bob"),
        ),
    ]


def _grow(chain: Blockchain, start: int, end: int, history: int = 0) -> None:
    """Commit writer blocks for heights start..end (inclusive)."""
    for height in range(start, end + 1):
        chain.propose_block(f"owner-{height % 2}", _writer_txs(chain, height, history))


def _writer_chain(n_blocks: int, storage=None, history: int = 0) -> Blockchain:
    chain = Blockchain(_writer_runtime, storage=storage)
    _grow(chain, 1, n_blocks, history)
    return chain


def _fingerprint(chain: Blockchain) -> list[tuple[int, str, str]]:
    return [(b.height, b.block_hash, b.header.state_root) for b in chain.blocks]


class TestBlockRecords:
    def test_round_trip_preserves_identity(self):
        chain = _writer_chain(n_blocks=3)
        for block in chain.blocks:
            rebuilt = block_from_record(block_to_record(block))
            assert rebuilt.block_hash == block.block_hash
            assert block_to_record(rebuilt) == block_to_record(block)

    def test_tampered_record_is_rejected(self):
        chain = _writer_chain(n_blocks=1)
        record = block_to_record(chain.head)
        record["header"]["proposer"] = "mallory"
        with pytest.raises(StorageError, match="does not hash"):
            block_from_record(record)

    def test_malformed_record_is_rejected(self):
        with pytest.raises(StorageError, match="malformed"):
            block_from_record({"header": {"height": 1}})


class TestOpenBackend:
    def test_spec_parsing(self, tmp_path):
        assert isinstance(open_backend("memory"), InMemoryBackend)
        backend = open_backend(f"sqlite:{tmp_path / 'a.db'}")
        assert isinstance(backend, SQLiteBackend)
        assert backend.persistent
        backend.close()
        passthrough = InMemoryBackend()
        assert open_backend(passthrough) is passthrough

    def test_bad_specs(self):
        with pytest.raises(StorageError):
            open_backend("sqlite:")
        with pytest.raises(StorageError):
            open_backend("postgres:nope")

    def test_memory_backend_is_inert(self):
        chain = _writer_chain(n_blocks=2, storage=InMemoryBackend())
        assert _fingerprint(chain) == _fingerprint(_writer_chain(n_blocks=2))

    def test_double_attach_is_refused(self, tmp_path):
        chain = _writer_chain(n_blocks=1, storage=open_backend(f"sqlite:{tmp_path/'a.db'}"))
        with pytest.raises(ChainValidationError, match="already attached"):
            chain.attach_storage(open_backend(f"sqlite:{tmp_path/'b.db'}"))


@pytest.mark.parametrize("history", [1, 2, 3])
class TestRestoreRoundTrip:
    def test_reopen_restores_the_exact_replica(self, tmp_path, history):
        path = str(tmp_path / "chain.db")
        chain = _writer_chain(n_blocks=5, storage=SQLiteBackend(path), history=history)
        expected = _fingerprint(chain)
        expected_raw = chain.state.raw()
        expected_nonces = dict(chain._nonces)
        chain.storage.close()

        reopened = Blockchain(_writer_runtime)
        assert reopened.attach_storage(SQLiteBackend(path)) is True
        assert _fingerprint(reopened) == expected
        assert reopened.state.raw() == expected_raw
        assert reopened._nonces == expected_nonces
        # Retained deltas restore too: every header verifies by unwinding them.
        assert reopened.verify_version_roots() == list(range(reopened.height, -1, -1))
        reopened.storage.close()

    def test_blocks_after_restore_are_byte_identical(self, tmp_path, history):
        uninterrupted = _writer_chain(n_blocks=9, history=history)
        path = str(tmp_path / "chain.db")
        first = _writer_chain(n_blocks=4, storage=SQLiteBackend(path), history=history)
        first.storage.close()

        second = Blockchain(_writer_runtime)
        second.attach_storage(SQLiteBackend(path))
        _grow(second, 5, 9, history)
        assert _fingerprint(second) == _fingerprint(uninterrupted)
        second.storage.close()

    def test_fresh_store_initializes_and_mid_run_attach_rewrites(self, tmp_path, history):
        path = str(tmp_path / "late.db")
        chain = _writer_chain(n_blocks=3, history=history)
        # Attaching to an already-grown chain snapshots it wholesale.
        assert chain.attach_storage(SQLiteBackend(path)) is False
        _grow(chain, 4, 5, history)
        chain.storage.close()
        reopened = Blockchain(_writer_runtime)
        reopened.attach_storage(SQLiteBackend(path))
        assert _fingerprint(reopened) == _fingerprint(chain)
        reopened.storage.close()


class TestRestoreRejectsBadStores:
    def test_state_root_version_mismatch(self, tmp_path):
        path = str(tmp_path / "v2.db")
        _writer_chain(n_blocks=1, storage=SQLiteBackend(path)).storage.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '2' WHERE key = 'state_root_version'")
        conn.commit()
        conn.close()
        chain = Blockchain(_writer_runtime)
        with pytest.raises(StorageError, match="state_root_version"):
            chain.attach_storage(SQLiteBackend(path))

    def test_corrupted_state_row_fails_restore(self, tmp_path):
        path = str(tmp_path / "corrupt.db")
        _writer_chain(n_blocks=2, storage=SQLiteBackend(path)).storage.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE kv SET encoded = '\"tampered\"' WHERE rowid = 1")
        conn.commit()
        conn.close()
        chain = Blockchain(_writer_runtime)
        with pytest.raises(StorageError, match="state root"):
            chain.attach_storage(SQLiteBackend(path))

    def test_schema_version_mismatch(self, tmp_path):
        path = str(tmp_path / "future.db")
        _writer_chain(n_blocks=1, storage=SQLiteBackend(path)).storage.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(StorageError, match="schema"):
            SQLiteBackend(path)

    def test_missing_block_row_fails_restore(self, tmp_path):
        path = str(tmp_path / "gap.db")
        _writer_chain(n_blocks=3, storage=SQLiteBackend(path)).storage.close()
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM blocks WHERE height = 2")
        conn.commit()
        conn.close()
        chain = Blockchain(_writer_runtime)
        with pytest.raises(StorageError):
            chain.attach_storage(SQLiteBackend(path))


    @pytest.mark.parametrize("table", ["deltas", "blocks"])
    def test_a_refused_store_leaves_the_replica_at_genesis(self, tmp_path, table):
        # Regression: a store that only fails the last two checks (chain
        # structure, retained-version roots) used to be refused *after* its
        # blocks, state and nonces were assigned — a ChainValidationError and
        # a replica at height 3 holding what it had just declined to trust.
        path = str(tmp_path / f"forged-{table}.db")
        _writer_chain(n_blocks=3, storage=SQLiteBackend(path)).storage.close()
        _forge_row(path, table)
        chain = Blockchain(_writer_runtime)
        genesis = _fingerprint(chain)
        backend = SQLiteBackend(path)
        with pytest.raises(StorageError, match="retained state version|does not hash"):
            chain.attach_storage(backend)
        backend.close()
        assert _fingerprint(chain) == genesis and chain.storage is None
        assert chain.state.state_root() == chain.head.header.state_root
        assert chain.next_nonce("alice") == 0
        # Still a usable fresh replica.
        _grow(chain, 1, 1)
        assert chain.height == 1

    @pytest.mark.parametrize("command", ["audit", "resume"])
    @pytest.mark.parametrize("table", ["deltas", "blocks"])
    def test_cli_answers_a_refused_store_with_one_error_line(self, tmp_path, capsys, table, command):
        from repro.cli import main

        path = str(tmp_path / "run.db")
        args = ["--owners", "3", "--groups", "2", "--rounds", "2", "--samples", "240",
                "--local-epochs", "1"]
        assert main(["run", *args, "--store", f"sqlite:{path}", "--stop-after", "1"]) == 0
        _forge_row(path, table)
        capsys.readouterr()
        rest = ["--samples", "240"] if command == "audit" else args
        exit_code = main([command, "--store", f"sqlite:{path}", *rest])
        output = capsys.readouterr().out
        assert exit_code == 2
        assert output.startswith("error: ") and output.count("\n") == 1


def _forge_row(path: str, table: str) -> None:
    """Edit one stored row so that only whole-chain verification can notice."""
    conn = sqlite3.connect(path)
    height, record = conn.execute(
        f"SELECT height, record FROM {table} WHERE height > 0 ORDER BY height LIMIT 1"
    ).fetchone()
    if table == "deltas":
        entries = canonical_loads(record)
        entries[0][1] = not entries[0][1]  # flip one ``had`` flag
        forged = canonical_dumps(entries)
    else:
        forged = record.replace('"proposer":"', '"proposer":"x', 1)
    assert forged != record
    conn.execute(f"UPDATE {table} SET record = ? WHERE height = ?", (forged, height))
    conn.commit()
    conn.close()


class TestCrashSafety:
    @pytest.mark.parametrize("boundary", WRITE_BOUNDARIES)
    def test_crash_at_every_write_boundary(self, tmp_path, boundary):
        path = str(tmp_path / f"crash-{boundary}.db")
        base = _writer_chain(n_blocks=2, storage=SQLiteBackend(path))
        sealed = _fingerprint(base)

        def crash(name: str) -> None:
            if name == boundary:
                raise OSError(f"simulated power loss at {name}")

        base.storage.crash_hook = crash
        with pytest.raises((OSError, StorageError)):
            base.propose_block("owner-1", _writer_txs(base, 3))
        base.storage.close()

        # The process died mid-commit: a fresh replica reopens the file and
        # must land exactly on the last durably sealed block.
        reopened = Blockchain(_writer_runtime)
        assert reopened.attach_storage(SQLiteBackend(path)) is True
        assert _fingerprint(reopened) == sealed
        assert reopened.storage.committed_height() == 2
        # The store is fully usable: growth continues byte-identically.
        _grow(reopened, 3, 4)
        assert _fingerprint(reopened) == _fingerprint(_writer_chain(n_blocks=4))
        reopened.storage.close()

    def test_torn_block_log_tail_is_ignored(self, tmp_path):
        path = str(tmp_path / "torn.db")
        chain = _writer_chain(n_blocks=2, storage=SQLiteBackend(path))
        sealed = _fingerprint(chain)
        log_path = chain.storage.log_path
        chain.storage.close()
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write('{"block_hash": "torn half-written li')
        reopened = Blockchain(_writer_runtime)
        reopened.attach_storage(SQLiteBackend(path))
        assert _fingerprint(reopened) == sealed
        reopened.storage.close()

    def test_block_log_mirrors_every_sealed_block(self, tmp_path):
        import json

        path = str(tmp_path / "log.db")
        chain = _writer_chain(n_blocks=3, storage=SQLiteBackend(path))
        with open(chain.storage.log_path, "r", encoding="utf-8") as handle:
            logged = [json.loads(line)["block_hash"] for line in handle]
        assert logged == [block.block_hash for block in chain.blocks]
        chain.storage.close()


#: ``PRAGMA journal_mode`` and ``PRAGMA synchronous`` (2 is FULL) of every open store.
WAL_FULL = ("wal", 2)


def _pragmas(backend: SQLiteBackend) -> tuple[str, int]:
    return tuple(
        backend._conn.execute(f"PRAGMA {name}").fetchone()[0]
        for name in ("journal_mode", "synchronous")
    )


def _to_rollback_journal(path: str) -> None:
    """Flip a closed store to the journal mode every store had before WAL."""
    conn = sqlite3.connect(path)
    assert conn.execute("PRAGMA journal_mode=DELETE").fetchone()[0] == "delete"
    conn.close()


_DIE_WITHOUT_CLOSE = """
import os, signal, sys
from repro.blockchain.storage import SQLiteBackend
from test_storage import _writer_chain
path, n_blocks, how = sys.argv[1], int(sys.argv[2]), sys.argv[3]
chain = _writer_chain(n_blocks, storage=SQLiteBackend(path))
if how == "exit":
    os._exit(0)
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestDurabilityMode:
    """WAL with ``synchronous=FULL`` is the one mode: pinned, not assumed."""

    def test_fresh_reopened_and_rollback_journal_stores_all_open_wal_full(self, tmp_path):
        path = str(tmp_path / "chain.db")
        backend = SQLiteBackend(path)
        assert _pragmas(backend) == WAL_FULL
        chain = _writer_chain(n_blocks=4, storage=backend)
        sealed = _fingerprint(chain)
        backend.close()
        for flip in (False, True):
            if flip:
                _to_rollback_journal(path)
            backend = SQLiteBackend(path)
            assert _pragmas(backend) == WAL_FULL
            reopened = Blockchain(_writer_runtime)
            assert reopened.attach_storage(backend) is True
            assert _fingerprint(reopened) == sealed
            backend.close()
        # The conversion is the file's, not the connection's.
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        conn.close()

    @pytest.mark.parametrize("how", ["exit", "kill"])
    def test_a_process_that_dies_without_close_reopens_at_its_last_commit(self, tmp_path, how):
        path = str(tmp_path / "killed.db")
        died = subprocess.run(
            [sys.executable, "-c", _DIE_WITHOUT_CLOSE, path, "5", how],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=120,
        )
        assert died.returncode == (0 if how == "exit" else -signal.SIGKILL), died.stderr
        # Nothing was checkpointed: the five commits live in the sidecar alone.
        assert os.path.getsize(path + "-wal") > 0
        reopened = Blockchain(_writer_runtime)
        assert reopened.attach_storage(SQLiteBackend(path)) is True
        assert _fingerprint(reopened) == _fingerprint(_writer_chain(n_blocks=5))
        assert reopened.storage.committed_height() == 5
        _grow(reopened, 6, 7)
        assert _fingerprint(reopened) == _fingerprint(_writer_chain(n_blocks=7))
        reopened.storage.close()
        assert sorted(os.listdir(tmp_path)) == ["killed.db", "killed.db.blocklog"]

    def test_a_closed_store_is_two_files_and_the_db_alone_restores(self, tmp_path):
        path = str(tmp_path / "chain.db")
        chain = _writer_chain(n_blocks=4, storage=SQLiteBackend(path))
        assert os.path.exists(path + "-wal")  # sidecars exist only while a store is open
        chain.storage.close()
        assert sorted(os.listdir(tmp_path)) == ["chain.db", "chain.db.blocklog"]
        shipped = tmp_path / "shipped"
        shipped.mkdir()
        shutil.copy(path, shipped / "chain.db")
        restored = Blockchain(_writer_runtime)
        assert restored.attach_storage(SQLiteBackend(str(shipped / "chain.db"))) is True
        assert _fingerprint(restored) == _fingerprint(chain)
        restored.storage.close()


class TestNonceRows:
    """``commit_block`` upserts the block's senders; the table still holds every sender."""

    def check(self, chain, runtime_factory, tmp_path):
        """A store grown block by block holds the rows of one snapshotting the finished chain."""
        paths = [str(tmp_path / name) for name in ("grown.db", "rewritten.db")]
        grown = Blockchain(runtime_factory, chain_id="grown", storage=SQLiteBackend(paths[0]))
        for block in chain.blocks[1:]:
            grown.verify_and_append(block)
        rewritten = Blockchain(runtime_factory, chain_id="rewritten")
        rewritten.fast_sync_from(chain)
        rewritten.attach_storage(SQLiteBackend(paths[1]))
        for replica in (grown, rewritten):
            replica.storage.close()
        grown_rows, rewritten_rows = (dump_tables(path) for path in paths)
        assert sorted(grown_rows) == ["blocks", "deltas", "kv", "meta", "nonces"]
        assert grown_rows == rewritten_rows
        assert dict(grown_rows["nonces"]) == chain._nonces and len(chain._nonces) > 1

    def test_swarm_shaped_chain(self, tmp_path):
        from repro.blockchain.swarm import SwarmConfig, run_reference_workload, swarm_runtime_factory

        config = SwarmConfig(peers=4, rounds=5, txs_per_round=8, seed=7)
        self.check(run_reference_workload(config)["chain"], swarm_runtime_factory, tmp_path)

    def test_protocol_shaped_chain(self, tmp_path, protocol_run):
        # Senders come and go across setup, round and settlement blocks; most
        # blocks touch a strict subset of the senders the table holds.
        protocol, _ = protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        assert any(
            {tx.sender for tx in block.transactions} < set(chain._nonces)
            for block in chain.blocks[1:]
        )
        self.check(chain, protocol._runtime_factory, tmp_path)


@pytest.mark.parametrize("seed", [2, 3])
class TestMemorySqliteParity:
    def test_random_op_sequences_persist_identically(self, tmp_path, seed):
        rng = np.random.default_rng(seed * 101)
        path = str(tmp_path / "parity.db")
        persisted = Blockchain(_writer_runtime, storage=SQLiteBackend(path))
        in_memory = Blockchain(_writer_runtime)
        for height in range(1, 7):
            seeds = [int(s) for s in rng.integers(10_000, size=int(rng.integers(1, 4)))]
            for chain in (persisted, in_memory):
                base = chain.next_nonce("alice")
                txs = [
                    Transaction(
                        sender="alice", contract="writer", method="scribble",
                        args={"seed": seed}, nonce=base + offset,
                    )
                    for offset, seed in enumerate(seeds)
                ]
                chain.propose_block(f"owner-{height % 2}", txs)
        assert _fingerprint(persisted) == _fingerprint(in_memory)
        persisted.storage.close()

        restored = Blockchain(_writer_runtime)
        restored.attach_storage(SQLiteBackend(path))
        assert restored.state.raw() == in_memory.state.raw()
        assert restored.state.state_root() == in_memory.state.state_root()
        key = sorted(restored.state.keys("writer"))[0]
        proof = restored.state.prove("writer", key)
        assert proof.to_dict() == in_memory.state.prove("writer", key).to_dict()
        restored.storage.close()


class TestPruning:
    def test_prune_keeps_audit_verdicts(self, tmp_path):
        path = str(tmp_path / "prune.db")
        chain = _writer_chain(n_blocks=8, storage=SQLiteBackend(path))
        reference = _writer_chain(n_blocks=8)

        pruned = chain.prune(keep_last=3)
        assert pruned == [0, 1, 2, 3, 4, 5]
        assert chain.oldest_retained_version() == 6
        # Below the horizon the state as of a block comes from snapshot+replay,
        # checked against the committed header rather than a retained delta.
        for height in (0, 2, 5):
            assert chain.replay_prefix(height).state.state_root() == chain.blocks[height].header.state_root
        # The O(Δ) walk certifies head..horizon-1; nothing below.
        assert chain.verify_version_roots() == [8, 7, 6, 5]
        chain.storage.close()

        # Pruning is durable: the reopened replica has the same horizon.
        reopened = Blockchain(_writer_runtime)
        reopened.attach_storage(SQLiteBackend(path))
        assert reopened.oldest_retained_version() == 6
        assert _fingerprint(reopened) == _fingerprint(reference)
        _grow(reopened, 9, 10)
        assert _fingerprint(reopened) == _fingerprint(_writer_chain(n_blocks=10))
        reopened.storage.close()

    def test_prune_to_standalone(self, tmp_path):
        path = str(tmp_path / "offline.db")
        _writer_chain(n_blocks=6, storage=SQLiteBackend(path)).storage.close()
        backend = SQLiteBackend(path)
        assert backend.prune_to(keep_last=2) == [0, 1, 2, 3, 4]
        assert backend.oldest_retained_delta() == 5
        assert backend.prune_to(keep_last=2) == []
        with pytest.raises(StorageError, match="at least"):
            backend.prune_to(keep_last=0)
        backend.close()

    def test_prune_floor_is_enforced(self):
        chain = _writer_chain(n_blocks=3)
        with pytest.raises(ValidationError):
            chain.state.prune_versions(keep_last=0)


class TestProtocolLifecycle:
    @pytest.fixture(scope="class")
    def small_setup(self):
        dataset, owners = make_owner_datasets(n_owners=4, sigma=0.1, n_samples=320, seed=11)
        config = ProtocolConfig(
            n_owners=3, n_groups=2, n_rounds=2, local_epochs=1,
            learning_rate=2.0, permutation_seed=11,
        )
        return dataset, owners[:3], config, owners[3]

    def _protocol(self, small_setup, **kwargs):
        dataset, owners, config, _ = small_setup
        return BlockchainFLProtocol(
            owners, dataset.test_features, dataset.test_labels, dataset.n_classes,
            config, **kwargs,
        )

    def _reopen(self, small_setup, store, config=None):
        dataset, owners, pinned, joiner = small_setup
        return BlockchainFLProtocol.resume_from(
            store, owners, dataset.test_features, dataset.test_labels,
            dataset.n_classes, config or pinned, extra_data=[joiner],
        )

    @staticmethod
    def _scenario(small_setup, cohort):
        """None for the fixed cohort; churn = one joiner and one leaver at round 1."""
        if cohort == "fixed":
            return None
        _, owners, _, joiner = small_setup
        return ChurnScenario(joins=[(joiner, 1)], leaves=[(owners[1].owner_id, 1)])

    @pytest.mark.parametrize("cohort", ["fixed", "churn"])
    def test_interrupt_and_resume_is_byte_identical(self, tmp_path, small_setup, cohort):
        dataset = small_setup[0]
        baseline = self._protocol(small_setup)
        baseline_result = baseline.run(self._scenario(small_setup, cohort))
        expected = _fingerprint(baseline.participants[baseline.owner_ids[0]].node.chain)

        store = f"sqlite:{tmp_path / 'run.db'}"
        interrupted = self._protocol(small_setup, store=store)
        stopped = RoundScheduler(interrupted, self._scenario(small_setup, cohort)).run(stop_after=1)
        interrupted.close()

        resumed = self._reopen(small_setup, store)
        assert resumed.completed_rounds() == [0]
        result = resumed.run(self._scenario(small_setup, cohort))
        chain = resumed.participants[resumed.owner_ids[0]].node.chain
        assert _fingerprint(chain) == expected
        assert result.reward_balances == baseline_result.reward_balances
        assert result.rounds[0].user_values == stopped.rounds[0].user_values
        assert audit_chain(
            chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
            mode="incremental",
        ).passed
        resumed.close()

        # Resuming a finished run is idempotent: results re-read from chain.
        again = self._reopen(small_setup, store)
        replayed = again.run(self._scenario(small_setup, cohort))
        assert _fingerprint(again.participants[again.owner_ids[0]].node.chain) == expected
        assert replayed.reward_balances == baseline_result.reward_balances
        assert replayed.total_transactions == baseline_result.total_transactions
        assert replayed.epoch_settlements == baseline_result.epoch_settlements
        again.close()

    def test_a_rollback_journal_store_resumes_and_its_db_file_alone_audits(self, tmp_path, small_setup):
        dataset = small_setup[0]
        baseline = self._protocol(small_setup)
        baseline.run()
        expected = _fingerprint(baseline.participants[baseline.owner_ids[0]].node.chain)

        path = tmp_path / "run.db"
        interrupted = self._protocol(small_setup, store=f"sqlite:{path}")
        RoundScheduler(interrupted).run(stop_after=1)
        interrupted.close()
        _to_rollback_journal(str(path))  # the format every store had before WAL

        resumed = self._reopen(small_setup, f"sqlite:{path}")
        assert _pragmas(resumed.storage) == WAL_FULL
        resumed.run()
        resumed.close()
        assert sorted(os.listdir(tmp_path)) == ["run.db", "run.db.blocklog"]

        shipped = tmp_path / "shipped.db"
        shutil.copy(path, shipped)
        audited = self._reopen(small_setup, f"sqlite:{shipped}")
        chain = audited.participants[audited.owner_ids[0]].node.chain
        assert _fingerprint(chain) == expected
        assert audit_chain(
            chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
            mode="incremental",
        ).passed
        audited.close()

    def test_used_store_refuses_plain_open(self, tmp_path, small_setup):
        store = f"sqlite:{tmp_path / 'used.db'}"
        protocol = self._protocol(small_setup, store=store)
        protocol.setup()
        protocol.close()
        with pytest.raises(ProtocolError, match="resume_from"):
            self._protocol(small_setup, store=store)

    def test_resume_config_drift_is_refused(self, tmp_path, small_setup):
        store = f"sqlite:{tmp_path / 'drift.db'}"
        protocol = self._protocol(small_setup, store=store)
        protocol.setup()
        protocol.close()
        drifted = ProtocolConfig(
            n_owners=3, n_groups=2, n_rounds=4, local_epochs=1,
            learning_rate=2.0, permutation_seed=11,
        )
        with pytest.raises(ProtocolError, match="n_rounds"):
            self._reopen(small_setup, store, drifted)

    def test_empty_store_has_nothing_to_resume(self, tmp_path, small_setup):
        with pytest.raises(ProtocolError, match="no committed chain"):
            self._reopen(small_setup, f"sqlite:{tmp_path / 'empty.db'}")

    @pytest.mark.parametrize("cohort", ["fixed", "churn"])
    def test_prune_then_audit_verdicts_match(self, tmp_path, small_setup, cohort):
        dataset = small_setup[0]
        store = f"sqlite:{tmp_path / 'audit.db'}"
        protocol = self._protocol(small_setup, store=store)
        protocol.run(self._scenario(small_setup, cohort))
        chain = protocol.participants[protocol.owner_ids[0]].node.chain

        def incremental():
            return audit_chain(
                chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
                mode="incremental",
            )

        before = incremental()
        assert before.passed and before.prune_horizon is None
        chain.prune(keep_last=2)
        after = incremental()
        assert after.passed
        assert after.rounds_checked == before.rounds_checked
        assert after.epochs_checked == before.epochs_checked
        assert after.recomputed_totals == before.recomputed_totals
        assert after.prune_horizon == chain.oldest_retained_version()
        assert after.replayed_below_horizon == list(range(after.state_versions_checked[-1]))
        protocol.close()
