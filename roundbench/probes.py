"""Layer probes for the traced pass: direct, timed calls into one layer at a time.

The chain probes replay a *finished* chain (``silo9``'s or ``swarm4``'s) into
fresh replicas, so they measure exactly the work one replica does per block
without any consensus or gossip around it; the crypto probes call the two
primitives a pair mask is made of at the workload's own sizes.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from roundbench.measure import median, timed

PROBE_REPEATS = 30


def replay_block_seconds(chain, runtime_factory: Callable, store_path: str | None = None) -> list[float]:
    """Per-block ``verify_and_append`` wall time replaying ``chain`` into a fresh replica.

    With ``store_path`` the replica commits every block to a fresh SQLite
    store, so the difference to the store-less replay is the storage layer.
    """
    from repro.blockchain.chain import Blockchain
    from repro.blockchain.storage import open_backend

    replica = Blockchain(
        runtime_factory, chain_id="roundbench-probe",
        state_root_version=chain.state_root_version,
    )
    backend = None
    if store_path is not None:
        backend = open_backend(f"sqlite:{store_path}")
        replica.attach_storage(backend)
    try:
        seconds = []
        for block in chain.blocks[1:]:
            elapsed, _ = timed(replica.verify_and_append, block)
            seconds.append(elapsed)
    finally:
        if backend is not None:
            backend.close()
    if replica.head.block_hash != chain.head.block_hash:
        raise RuntimeError("probe replay did not reproduce the chain's head")
    return seconds


def store_bytes(store_path: str) -> int:
    """On-disk footprint of one SQLite store (database plus its side files)."""
    directory, base = os.path.split(store_path)
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory or ".")
        if name.startswith(base)
    )


def chain_layers(
    chain, runtime_factory: Callable, round_blocks: slice, workdir: str
) -> dict[str, float]:
    """``blockchain.chain`` / ``contracts`` / ``state`` / ``serialization`` / ``storage`` metrics.

    ``round_blocks`` selects the round blocks out of ``chain.blocks[1:]``
    (``silo9`` also has a setup and a settlement block, which are not rounds).
    """
    from repro.blockchain.storage import block_to_record
    from repro.utils.serialization import canonical_dumps

    blocks = chain.blocks[1:][round_blocks]
    rounds = len(blocks)
    bare = replay_block_seconds(chain, runtime_factory)[round_blocks]
    probe_store = os.path.join(workdir, "probe.db")
    stored = replay_block_seconds(chain, runtime_factory, probe_store)[round_blocks]
    append_ms = median(bare) * 1e3

    # state: rewrite one existing key on a copy, then recompute the root.
    namespace, key = sorted(chain.state.raw())[0].split("/", 1)
    value = chain.state.get(namespace, key)
    root_seconds = []
    for _ in range(PROBE_REPEATS):
        scratch = chain.state.copy()
        start = time.perf_counter()
        scratch.set(namespace, key, value)
        scratch.state_root()
        root_seconds.append(time.perf_counter() - start)

    record = block_to_record(blocks[-1])
    dumps_seconds = [timed(canonical_dumps, record)[0] for _ in range(PROBE_REPEATS)]

    return {
        "chain.append_block_ms": append_ms,
        "contracts.gas_per_round": sum(block.total_gas() for block in blocks) / rounds,
        "contracts.txs_per_round": sum(len(block.transactions) for block in blocks) / rounds,
        "state.root_update_us": median(root_seconds) * 1e6,
        "state.keys": float(len(chain.state)),
        "serialization.block_dumps_ms": median(dumps_seconds) * 1e3,
        "serialization.block_bytes": float(len(canonical_dumps(record))),
        "storage.commit_ms": median(stored) * 1e3 - append_ms,
    }


def restore_seconds(store_path: str, runtime_factory: Callable) -> tuple[float, Any]:
    """Rebuild a replica from a SQLite store alone, as ``python -m repro audit`` does.

    Returns (wall seconds, the restored chain with its backend detached).
    """
    from repro.blockchain.chain import Blockchain
    from repro.blockchain.storage import open_backend

    start = time.perf_counter()
    backend = open_backend(f"sqlite:{store_path}")
    try:
        chain = Blockchain(
            runtime_factory, chain_id="roundbench-audit",
            state_root_version=backend.stored_state_root_version() or 1,
        )
        if not chain.attach_storage(backend):
            raise RuntimeError(f"the store at {store_path} holds no committed chain")
    finally:
        backend.close()
    chain.storage = None
    return time.perf_counter() - start, chain


def crypto_layers(dh_bits: int, seed: int, dimension: int) -> dict[str, float]:
    """``dh.shared_secret_us`` and ``prng.expand_mask_us`` at the workload's sizes."""
    from repro.crypto.dh import DHKeyPair, DHParameters, shared_secret
    from repro.crypto.fixed_point import FixedPointCodec
    from repro.crypto.prng import expand_mask

    params = DHParameters.for_testing(bits=dh_bits, seed=seed)
    own = DHKeyPair.generate(params, "probe-a", seed=seed)
    peer = DHKeyPair.generate(params, "probe-b", seed=seed)
    modulus = FixedPointCodec().modulus
    secret = shared_secret(own, peer.public_key)

    def per_call_us(fn: Callable, *args: Any, calls: int = 200) -> float:
        batches = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            batches.append((time.perf_counter() - start) / calls)
        return median(batches) * 1e6

    return {
        "dh.shared_secret_us": per_call_us(shared_secret, own, peer.public_key),
        "prng.expand_mask_us": per_call_us(expand_mask, secret, 0, dimension, modulus),
    }
