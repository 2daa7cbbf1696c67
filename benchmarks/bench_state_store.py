"""Microbenchmark — the Merkle state store vs the flat deep-copy path.

Three hot paths of the state layer:

* ``state_root()``: the pre-Merkle store serialized and hashed the *entire*
  state dict per block (O(all keys)); the store maintains per-namespace
  bucket trees incrementally, re-hashing only buckets touched since the last
  root (O(keys changed)), and widens a namespace's bucket layout as a pure
  function of its size so that holds at six-figure key counts.  Measured at
  1k–100k keys (push to 1M via ``REPRO_BENCH_STATE_KEYS=1000,...,1000000``)
  with a 1% churn ratio against two baselines: the flat hash (retired from
  ``src/``; :func:`_flat_root` below is its three lines) and a from-scratch
  recompute of the Merkle root.
* snapshot/rollback: transaction rollback used to ``copy.deepcopy`` the whole
  world per transaction; the journal makes a snapshot O(1) and a rollback
  O(keys changed).
* inclusion proofs: ``prove``/``verify_state_proof`` tie one entry to a block
  header's state root — timed so the verification cost a participant pays is
  on record.

A fourth section times the persistence engine under the chain: per-block
SQLite commit overhead (O(Δ) per sealed block) against a whole-store rewrite
(O(state)), plus restore-on-reopen with and without pruned reverse deltas —
each with parity asserts, so the bench doubles as a large-state regression
test for the storage layer.

The recorded ``speedup`` entries in ``benchmark.extra_info`` feed the
benchmark-artifact trajectory; the asserts pin the acceptance floors: ≥10x
on ``state_root()`` at 10k keys with ≤1% churn against the full recompute,
and ≥10x against the flat hash at 100k keys — the bar the retired
fixed-1024-bucket layout stopped clearing (~5.6x) and adaptive bucketing holds.
"""

from __future__ import annotations

import copy
import os
import tempfile
import time

import numpy as np

from benchmarks.common import format_table
from repro.blockchain.chain import Blockchain
from repro.blockchain.contracts.base import Contract, ContractContext, ContractRuntime, contract_method
from repro.blockchain.state import WorldState, verify_state_proof
from repro.blockchain.storage import SQLiteBackend
from repro.blockchain.transaction import Transaction
from repro.utils.hashing import hash_payload

# CI smoke runs shrink the workload through the environment (see the
# benchmark-artifacts job in .github/workflows/ci.yml); defaults are the
# full measurement sizes reported in docs/performance.md.
KEY_COUNTS = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_STATE_KEYS", "1000,10000,100000").split(",")
)
CHURN_RATIO = float(os.environ.get("REPRO_BENCH_STATE_CHURN", "0.01"))
# Storage-engine section: blocks committed and keys written per block.
STORE_BLOCKS = int(os.environ.get("REPRO_BENCH_STATE_BLOCKS", "16"))
STORE_WRITES = int(os.environ.get("REPRO_BENCH_STATE_WRITES", "250"))
_NAMESPACES = ("fl_training", "contribution", "reward", "registry")


def _flat_root(state: WorldState) -> str:
    """The retired flat state hash — the whole sorted dict, O(all keys) — as baseline.

    Over the store's live dict, exactly as the retired ``state_root()`` did.
    """
    return hash_payload({key: state._data[key] for key in sorted(state._data)})


def _build_store(n_keys: int) -> WorldState:
    state = WorldState()
    rng = np.random.default_rng(1)
    for i in range(n_keys):
        state.set(
            _NAMESPACES[i % len(_NAMESPACES)],
            f"record/{i:06d}",
            {"owner": f"owner-{i % 50}", "value": float(rng.random()), "round": i % 32},
        )
    return state


def _churn(state: WorldState, changed: int, tag: float) -> None:
    """Rewrite ``changed`` existing keys in place."""
    for i in range(changed):
        state.set(
            _NAMESPACES[i % len(_NAMESPACES)],
            f"record/{i:06d}",
            {"owner": "churned", "value": tag, "round": i % 32},
        )


def _incremental_root_time(state: WorldState, changed: int) -> float:
    """Steady-state incremental ``state_root()`` latency under churn."""
    state.state_root()  # warm the trees so the loop measures steady state
    repetitions = 5
    start = time.perf_counter()
    for repeat in range(repetitions):
        _churn(state, changed, tag=float(repeat))
        root = state.state_root()
    elapsed = (time.perf_counter() - start) / repetitions
    # Parity: the incremental root must equal a from-scratch recompute of
    # the same data — the bench doubles as a large-state regression test.
    assert WorldState(state.raw()).state_root() == root
    return elapsed


def _measure_roots():
    """Flat hash and full Merkle recompute vs the incremental root, per size."""
    results = {}
    for n_keys in KEY_COUNTS:
        state = _build_store(n_keys)

        start = time.perf_counter()
        _flat_root(state)
        flat_s = time.perf_counter() - start

        raw = state.raw()
        start = time.perf_counter()
        WorldState(raw).state_root()
        full_s = time.perf_counter() - start
        del raw

        changed = max(1, int(n_keys * CHURN_RATIO))
        incremental_s = _incremental_root_time(state, changed)

        results[n_keys] = {
            "changed_keys": changed,
            "flat_s": flat_s,
            "full_merkle_s": full_s,
            "incremental_s": incremental_s,
            "speedup_vs_flat": flat_s / incremental_s,
            "speedup_vs_full": full_s / incremental_s,
        }
    return results


def _measure_rollback():
    """Legacy deepcopy-the-world snapshots vs journal markers (at the mid size)."""
    n_keys = KEY_COUNTS[min(1, len(KEY_COUNTS) - 1)]
    state = _build_store(n_keys)
    raw = state.raw()
    writes = max(1, int(n_keys * CHURN_RATIO))

    start = time.perf_counter()
    legacy_snapshot = copy.deepcopy(raw)  # what snapshot() used to cost
    legacy_s = time.perf_counter() - start
    assert len(legacy_snapshot) == n_keys

    repetitions = 10
    start = time.perf_counter()
    for repeat in range(repetitions):
        marker = state.snapshot()
        _churn(state, writes, tag=float(repeat))
        state.restore(marker)
    journal_s = (time.perf_counter() - start) / repetitions

    return {
        "n_keys": n_keys,
        "writes_rolled_back": writes,
        "legacy_deepcopy_s": legacy_s,
        "journal_cycle_s": journal_s,
        "speedup": legacy_s / journal_s,
    }


def _measure_proofs():
    """Proof production and verification at the mid size."""
    n_keys = KEY_COUNTS[min(1, len(KEY_COUNTS) - 1)]
    state = _build_store(n_keys)
    root = state.state_root()
    namespace, key = _NAMESPACES[0], "record/000000"
    value = state.get(namespace, key)

    repetitions = 50
    start = time.perf_counter()
    for _ in range(repetitions):
        proof = state.prove(namespace, key)
    prove_s = (time.perf_counter() - start) / repetitions

    start = time.perf_counter()
    for _ in range(repetitions):
        ok = verify_state_proof(root, proof, value=value)
    verify_s = (time.perf_counter() - start) / repetitions
    assert ok
    assert not verify_state_proof(root, proof, value={"tampered": True})

    return {
        "n_keys": n_keys,
        "siblings": len(proof.bucket_siblings) + len(proof.namespace_siblings) + len(proof.top_siblings),
        "prove_s": prove_s,
        "verify_s": verify_s,
    }


class _BulkWriterContract(Contract):
    """Writes a fixed batch of keys per call (bench only)."""

    name = "bulk"

    @contract_method
    def write(self, ctx: ContractContext, start: int, count: int, tag: int) -> int:
        for i in range(int(start), int(start) + int(count)):
            ctx.set(f"record/{i:06d}", {"tag": int(tag), "i": i})
        return int(count)


def _bulk_runtime() -> ContractRuntime:
    runtime = ContractRuntime()
    runtime.register(_BulkWriterContract())
    return runtime


def _grow_bulk_chain(chain: Blockchain, n_blocks: int, writes_per_block: int) -> float:
    start = time.perf_counter()
    for height in range(1, n_blocks + 1):
        tx = Transaction(
            sender="alice", contract="bulk", method="write",
            args={"start": (height - 1) * writes_per_block, "count": writes_per_block,
                  "tag": height},
            nonce=chain.next_nonce("alice"),
        )
        chain.propose_block(f"owner-{height % 2}", [tx])
    return time.perf_counter() - start


def _fingerprint(chain: Blockchain) -> list[tuple[int, str, str]]:
    return [(b.height, b.block_hash, b.header.state_root) for b in chain.blocks]


def _measure_storage():
    """Per-block SQLite commit overhead, whole-store rewrite, and reopen latency."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.db")
        in_memory = Blockchain(_bulk_runtime)
        memory_s = _grow_bulk_chain(in_memory, STORE_BLOCKS, STORE_WRITES)

        persisted = Blockchain(_bulk_runtime, storage=SQLiteBackend(path))
        sqlite_s = _grow_bulk_chain(persisted, STORE_BLOCKS, STORE_WRITES)
        # Parity: the backend is off-chain — byte-identical blocks either way.
        assert _fingerprint(persisted) == _fingerprint(in_memory)

        start = time.perf_counter()
        persisted.storage.rewrite(persisted)  # O(state): the fast-sync snapshot path
        rewrite_s = time.perf_counter() - start
        persisted.storage.close()

        start = time.perf_counter()
        reopened = Blockchain(_bulk_runtime)
        restored = reopened.attach_storage(SQLiteBackend(path))
        restore_s = time.perf_counter() - start
        assert restored and _fingerprint(reopened) == _fingerprint(in_memory)

        pruned = reopened.prune(keep_last=2)
        reopened.storage.close()
        start = time.perf_counter()
        pruned_chain = Blockchain(_bulk_runtime)
        pruned_chain.attach_storage(SQLiteBackend(path))
        restore_pruned_s = time.perf_counter() - start
        assert _fingerprint(pruned_chain) == _fingerprint(in_memory)
        assert pruned_chain.oldest_retained_version() == STORE_BLOCKS - 1
        pruned_chain.storage.close()

    return {
        "n_blocks": STORE_BLOCKS,
        "writes_per_block": STORE_WRITES,
        "memory_build_s": memory_s,
        "sqlite_build_s": sqlite_s,
        "commit_overhead_s": max(0.0, sqlite_s - memory_s) / STORE_BLOCKS,
        "rewrite_s": rewrite_s,
        "restore_s": restore_s,
        "restore_pruned_s": restore_pruned_s,
        "deltas_pruned": len(pruned),
    }


def _run_all():
    return _measure_roots(), _measure_rollback(), _measure_proofs(), _measure_storage()


def bench_state_store_vs_flat(benchmark):
    """State-store speedups over the flat deep-copy path (roots + rollback + proofs + storage)."""
    roots, rollback, proofs, storage = benchmark.pedantic(
        _run_all, rounds=1, iterations=1, warmup_rounds=0
    )

    rows = [
        [
            f"{n}",
            f"{entry['changed_keys']}",
            f"{entry['flat_s'] * 1e3:.1f}",
            f"{entry['full_merkle_s'] * 1e3:.1f}",
            f"{entry['incremental_s'] * 1e3:.2f}",
            f"{entry['speedup_vs_flat']:.1f}x",
            f"{entry['speedup_vs_full']:.1f}x",
        ]
        for n, entry in roots.items()
    ]
    print("\nstate_root() — flat hash and full Merkle recompute vs the incremental root")
    print(format_table(
        ["keys", "changed", "flat / ms", "full / ms", "incremental / ms",
         "vs flat", "vs full"],
        rows,
    ))
    print(
        f"\nsnapshot/rollback at {rollback['n_keys']} keys: "
        f"{rollback['legacy_deepcopy_s'] * 1e3:.1f} ms legacy deepcopy vs "
        f"{rollback['journal_cycle_s'] * 1e3:.3f} ms journal cycle "
        f"({rollback['speedup']:.0f}x, {rollback['writes_rolled_back']} writes rolled back)"
    )
    print(
        f"proofs at {proofs['n_keys']} keys: prove {proofs['prove_s'] * 1e3:.2f} ms, "
        f"verify {proofs['verify_s'] * 1e3:.3f} ms ({proofs['siblings']} sibling hashes)"
    )
    print(
        f"sqlite store over {storage['n_blocks']} blocks × "
        f"{storage['writes_per_block']} writes: "
        f"{storage['commit_overhead_s'] * 1e3:.2f} ms commit overhead per block "
        f"(whole-store rewrite {storage['rewrite_s'] * 1e3:.1f} ms); reopen "
        f"{storage['restore_s'] * 1e3:.1f} ms, after pruning "
        f"{storage['deltas_pruned']:.0f} deltas {storage['restore_pruned_s'] * 1e3:.1f} ms"
    )

    benchmark.extra_info["roots"] = {
        str(n): {key: float(value) for key, value in entry.items()} for n, entry in roots.items()
    }
    benchmark.extra_info["rollback"] = {key: float(value) for key, value in rollback.items()}
    benchmark.extra_info["proofs"] = {key: float(value) for key, value in proofs.items()}
    benchmark.extra_info["storage"] = {key: float(value) for key, value in storage.items()}

    # Acceptance floor (issue 5): ≥10x on state_root() at 10k keys with ≤1%
    # churn against the O(all keys) full recompute of the same commitment
    # (measured ~60x; ~14x against the cheaper flat hash, floored at 5x to
    # stay out of shared-runner noise).  Reduced-size env overrides that drop
    # the 10k point skip the floor, never the parity asserts above.
    if 10_000 in roots and CHURN_RATIO <= 0.01:
        assert roots[10_000]["speedup_vs_full"] >= 10.0
        assert roots[10_000]["speedup_vs_flat"] >= 5.0
    # Acceptance floor (issue 8): at 100k keys a fixed 1024-bucket layout
    # saturates (1% churn dirties most buckets) but the adaptive layout must
    # still clear ≥10x against the flat hash (measured ~13x).  Reduced-size
    # env overrides that drop the 100k point skip it.
    if 100_000 in roots and CHURN_RATIO <= 0.01:
        assert roots[100_000]["speedup_vs_flat"] >= 10.0
    # The journal must beat deepcopy-the-world snapshots by an order of
    # magnitude at any measured size.
    assert rollback["speedup"] >= 10.0
    # Sealing a block into SQLite is O(Δ): it must cost less per block than
    # one whole-store rewrite once the state dwarfs a single block's delta.
    if STORE_BLOCKS >= 8:
        assert storage["commit_overhead_s"] < storage["rewrite_s"]
