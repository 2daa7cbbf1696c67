"""Tests for the journaled Merkle state store.

Four properties are pinned here:

* **Incremental == full recompute** — under randomized op sequences (writes,
  deletes, rollbacks) the incrementally maintained Merkle root always
  equals the root a fresh store computes from the final data.
* **Historical views == genesis replay** — ``state_at(h)`` reads exactly the
  state a prefix replay produces at every height, and
  ``verify_version_roots`` certifies every committed header.
* **Byte identity** — stores and chains hash to hard-coded digests, so a
  change to the one state-root layout cannot land unnoticed.
* **Proof soundness** — an entry's inclusion proof verifies against the
  committed header root, and any tampering (value, key, root) fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import CounterContract, counter_runtime_factory, counter_tx
from repro.blockchain.chain import Blockchain
from repro.blockchain.contracts.base import Contract, ContractContext, ContractRuntime, contract_method
from repro.blockchain.state import (
    N_STATE_BUCKETS,
    STATE_ROOT_VERSION,
    StateProof,
    WorldState,
    verify_state_proof,
)
from repro.blockchain.transaction import Transaction
from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import RoundScheduler
from repro.core.protocol import BlockchainFLProtocol
from repro.exceptions import (
    BlockchainError,
    ChainValidationError,
    ConfigurationError,
    StorageError,
    ValidationError,
)
from repro.utils.serialization import canonical_dumps

# Digests of the one state-root layout (STATE_ROOT_VERSION), re-pinned when the
# flat-hash and fixed-1024 layouts were retired.
PINNED_STATE_ROOT = "33afba3b7454b574aafa1e22cd03d5904cdc0be734dce0a08cbf3f825d9cc2c7"
PINNED_EMPTY_ROOT = "2e1d3f868af84a49a05f6b2ed8f0fd5ecdfe7adbb688e4f0ba966b69610ce15f"
PINNED_GENESIS = "c8bc836c1d6688bff789fb8252cbb14a09144d57efa13a84ee528b7f3267d7cd"
PINNED_BLOCK_1 = "6c18959a472f93cea9cd71e611592203a59843360381deda1112db0474f798ab"
PINNED_BLOCK_2 = "61f69a7c71d0a42d6d2918729d3eea99c805ff0d08c9f742d13d9bce3d3adac7"
PINNED_HEAD_STATE = "c08e7dbfd71d1ead00fb31fbb3a07ebcf58a6638921a8e4cb258138fd9fdd7b2"


def _pinned_state() -> WorldState:
    state = WorldState()
    state.set("registry", "protocol_params", {"n_owners": 4, "n_groups": 2})
    state.set("registry", "participant/owner-1", {"public_key": 12345, "role": "owner"})
    state.set("fl_training", "round/0", {"groups": [["owner-1"]], "global_model": [0.5, -1.25]})
    state.set("contribution", "totals", {"owner-1": 0.125})
    state.set("weights", "w", np.arange(6, dtype=np.float64).reshape(2, 3))
    return state


def _random_ops(state: WorldState, rng: np.random.Generator, n_ops: int) -> None:
    """Apply a random mix of writes, deletes, and snapshot/rollback windows."""
    namespaces = ["alpha", "beta", "gamma"]
    for _ in range(n_ops):
        namespace = namespaces[int(rng.integers(len(namespaces)))]
        key = f"k{int(rng.integers(40)):02d}"
        action = rng.random()
        if action < 0.55:
            state.set(namespace, key, {"v": float(rng.random()), "n": int(rng.integers(100))})
        elif action < 0.75:
            state.delete(namespace, key)
        else:
            marker = state.snapshot()
            state.set(namespace, key, [int(x) for x in rng.integers(10, size=3)])
            if rng.random() < 0.5:
                state.restore(marker)


class TestIncrementalRootEqualsFullRecompute:
    def test_randomized_op_sequences(self):
        rng = np.random.default_rng(7)
        state = WorldState()
        for _ in range(12):
            _random_ops(state, rng, n_ops=30)
            incremental = state.state_root()
            full = WorldState(state.raw()).state_root()
            assert incremental == full

    def test_root_independent_of_write_history(self):
        a = WorldState()
        a.set("ns", "k1", 1)
        a.set("ns", "k2", 2)
        a.set("ns", "k1", 3)
        a.delete("ns", "k2")
        b = WorldState()
        b.set("ns", "k1", 3)
        assert a.state_root() == b.state_root()

    def test_emptied_namespace_matches_fresh_store(self):
        a = WorldState()
        a.set("gone", "k", 1)
        a.set("kept", "k", 2)
        a.delete("gone", "k")
        b = WorldState()
        b.set("kept", "k", 2)
        assert a.state_root() == b.state_root()

    def test_copy_shares_no_mutable_root_state(self):
        state = WorldState()
        state.set("ns", "a", 1)
        root = state.state_root()
        clone = state.copy()
        clone.set("ns", "a", 2)
        assert state.state_root() == root
        assert clone.state_root() != root
        assert WorldState(clone.raw()).state_root() == clone.state_root()

    def test_bucket_collisions_keep_roots_consistent(self):
        # Far more keys than buckets forces multi-leaf buckets.
        state = WorldState()
        for i in range(3 * N_STATE_BUCKETS // 2):
            state.set("bulk", f"key-{i:05d}", i)
        assert state.state_root() == WorldState(state.raw()).state_root()


class TestV1ByteIdentity:
    """Pinned digests of the one layout (the class name predates the retirement
    of the flat-hash layout it first pinned)."""

    def test_pinned_state_root(self):
        assert WorldState().state_root() == PINNED_EMPTY_ROOT
        assert _pinned_state().state_root() == PINNED_STATE_ROOT

    def test_pinned_chain_hashes(self):
        chain = Blockchain(counter_runtime_factory)
        chain.propose_block("alice", [counter_tx("alice", 0, 5), counter_tx("bob", 0, 7)])
        chain.propose_block("bob", [counter_tx("alice", 1, 2)])
        assert chain.blocks[0].block_hash == PINNED_GENESIS
        assert chain.blocks[1].block_hash == PINNED_BLOCK_1
        assert chain.blocks[2].block_hash == PINNED_BLOCK_2
        assert chain.state.state_root() == PINNED_HEAD_STATE


class RandomWriterContract(Contract):
    """Writes a deterministic pseudo-random batch of keys per call (test only)."""

    name = "writer"

    @contract_method
    def scribble(self, ctx: ContractContext, seed: int) -> int:
        rng = np.random.default_rng(int(seed))
        for _ in range(8):
            key = f"cell/{int(rng.integers(30)):02d}"
            if rng.random() < 0.25 and ctx.contains(key):
                ctx.delete(key)
            else:
                ctx.set(key, {"seed": int(seed), "v": float(rng.random())})
        return int(seed)


def _writer_runtime() -> ContractRuntime:
    runtime = ContractRuntime()
    runtime.register(RandomWriterContract())
    runtime.register(CounterContract())
    return runtime


def _writer_chain(history: int = 0, n_blocks: int = 6) -> Blockchain:
    """A chain of seeded random write batches; ``history`` picks the write sequence."""
    chain = Blockchain(_writer_runtime)
    for height in range(1, n_blocks + 1):
        txs = [
            Transaction(
                sender="alice", contract="writer", method="scribble",
                args={"seed": history * 1000 + height * 10 + 1},
                nonce=chain.next_nonce("alice"),
            ),
            Transaction(
                sender="bob", contract="writer", method="scribble",
                args={"seed": history * 1000 + height * 10 + 2},
                nonce=chain.next_nonce("bob"),
            ),
        ]
        chain.propose_block(f"owner-{height % 2}", txs)
    return chain


@pytest.mark.parametrize("history", [1, 2])
class TestHistoricalViewsMatchReplay:
    def test_state_at_equals_prefix_replay_at_every_height(self, history):
        chain = _writer_chain(history)
        # Genesis replay prefix by prefix: the view at height h must read the
        # exact state a replica that stopped at block h would hold.
        prefix = Blockchain(_writer_runtime)
        assert chain.state_at(0).raw() == prefix.state.raw()
        for block in chain.blocks[1:]:
            prefix.verify_and_append(block)
            view = chain.state_at(block.height)
            assert view.raw() == prefix.state.raw()
            assert view.state_root() == block.header.state_root

    def test_verify_version_roots_covers_every_block(self, history):
        chain = _writer_chain(history)
        assert chain.verify_version_roots() == list(range(chain.height, -1, -1))

    def test_verify_version_roots_detects_divergence(self, history):
        chain = _writer_chain(history)
        chain.state.set("writer", "cell/00", {"seed": -1, "v": 999.0})  # post-commit tamper
        with pytest.raises(ChainValidationError):
            chain.verify_version_roots()

    def test_fast_sync_matches_replay(self, history):
        chain = _writer_chain(history)
        synced = Blockchain(_writer_runtime)
        synced.fast_sync_from(chain)
        replayed = chain.replay()
        assert synced.state.raw() == replayed.state.raw()
        assert synced.state.state_root() == replayed.state.state_root()
        assert [b.block_hash for b in synced.blocks] == [b.block_hash for b in chain.blocks]
        assert synced.next_nonce("alice") == replayed.next_nonce("alice")
        # The synced replica keeps participating: it can verify the next block.
        extension = chain.replay()
        block = extension.propose_block(
            "owner-1",
            [Transaction(sender="alice", contract="counter", method="increment",
                         args={"amount": 2}, nonce=extension.next_nonce("alice"))],
        )
        synced.verify_and_append(block)
        assert synced.head.block_hash == block.block_hash

    def test_fast_sync_rejects_non_fresh_replica(self, history):
        chain = _writer_chain(history)
        not_fresh = _writer_chain(history, n_blocks=1)
        with pytest.raises(ChainValidationError):
            not_fresh.fast_sync_from(chain)

    def test_failed_fast_sync_leaves_replica_at_genesis_and_retryable(self, history):
        tampered = _writer_chain(history)
        tampered.state.set("writer", "cell/00", {"seed": -1, "v": 999.0})  # breaks the head root
        fresh = Blockchain(_writer_runtime)
        with pytest.raises(ChainValidationError):
            fresh.fast_sync_from(tampered)
        # The failed sync committed nothing: still a fresh genesis replica...
        assert fresh.height == 0
        assert len(fresh.state) == 0
        # ...so a retry against an honest peer succeeds.
        honest = _writer_chain(history)
        fresh.fast_sync_from(honest)
        assert fresh.head.block_hash == honest.head.block_hash


class TestStateViewReads:
    def test_view_reflects_later_deletes_and_writes(self):
        chain = Blockchain(_writer_runtime)
        tx0 = Transaction(sender="a", contract="counter", method="increment",
                          args={"amount": 4}, nonce=0)
        chain.propose_block("p", [tx0])
        tx1 = Transaction(sender="a", contract="counter", method="increment",
                          args={"amount": 6}, nonce=1)
        chain.propose_block("p", [tx1])
        assert chain.state_at(0).get("counter", "value") is None
        assert not chain.state_at(0).contains("counter", "value")
        assert chain.state_at(1).get("counter", "value") == 4
        assert chain.state_at(2).get("counter", "value") == 10
        assert chain.state_at(1).keys("counter") == ["value"]
        assert list(chain.state_at(1).items("counter")) == [("value", 4)]
        assert len(chain.state_at(0)) == 0
        assert len(chain.state_at(1)) == 1

    def test_view_get_returns_copies(self):
        chain = _writer_chain(n_blocks=3)
        view = chain.state_at(1)
        key = view.keys("writer")[0]
        value = view.get("writer", key)
        original = view.get("writer", key)
        value["v"] = -1.0
        assert view.get("writer", key) == original != value

    def test_view_rejects_unsealed_heights(self):
        chain = _writer_chain(n_blocks=2)
        with pytest.raises(ChainValidationError):
            chain.state_at(3)
        with pytest.raises(ChainValidationError):
            chain.state_at(-1)


class TestProofs:
    def test_roundtrip_and_serialization(self):
        state = _pinned_state()
        root = state.state_root()
        for namespace, key in [
            ("registry", "protocol_params"),
            ("fl_training", "round/0"),
            ("contribution", "totals"),
            ("weights", "w"),
        ]:
            proof = state.prove(namespace, key)
            assert proof.root == root
            assert verify_state_proof(root, proof)
            assert verify_state_proof(root, proof, value=state.get(namespace, key))
            restored = StateProof.from_dict(proof.to_dict())
            assert verify_state_proof(root, restored, value=state.get(namespace, key))

    def test_tampered_value_fails(self):
        state = _pinned_state()
        root = state.state_root()
        proof = state.prove("contribution", "totals")
        assert not verify_state_proof(root, proof, value={"owner-1": 0.999})

    def test_wrong_root_fails(self):
        state = _pinned_state()
        proof = state.prove("contribution", "totals")
        assert not verify_state_proof("00" * 32, proof, value={"owner-1": 0.125})

    def test_transplanted_key_fails(self):
        state = _pinned_state()
        root = state.state_root()
        proof = state.prove("contribution", "totals")
        forged = StateProof.from_dict({**proof.to_dict(), "key": "totals-forged"})
        assert not verify_state_proof(root, forged)

    def test_proofs_under_bucket_collisions(self):
        state = WorldState()
        n_keys = 2 * N_STATE_BUCKETS
        for i in range(n_keys):
            state.set("bulk", f"key-{i:05d}", {"i": i})
        root = state.state_root()
        for i in (0, 1, n_keys // 2, n_keys - 1):
            proof = state.prove("bulk", f"key-{i:05d}")
            assert verify_state_proof(root, proof, value={"i": i})
            assert not verify_state_proof(root, proof, value={"i": i + 1})

    def test_malformed_proof_payloads_raise_validation_error(self):
        state = _pinned_state()
        payload = state.prove("contribution", "totals").to_dict()
        for broken in (
            {**payload, "bucket_index": "abc"},          # ValueError in int()
            {k: v for k, v in payload.items() if k != "root"},  # KeyError
            {**payload, "bucket_siblings": 3},            # TypeError in iteration
        ):
            with pytest.raises(ValidationError):
                StateProof.from_dict(broken)

    def test_missing_key_refuses_to_prove(self):
        with pytest.raises(ValidationError):
            _pinned_state().prove("contribution", "nothing")


# ----------------------------------------------------------------------
# Protocol-level integration: a Merkle-rooted chain end to end
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def merkle_protocol_run(dataset, owners):
    """A completed protocol run on the Merkle-rooted chain."""
    config = ProtocolConfig(
        n_owners=len(owners),
        n_groups=2,
        n_rounds=2,
        local_epochs=3,
        learning_rate=2.0,
        permutation_seed=13,
    )
    protocol = BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config
    )
    scheduler = RoundScheduler(protocol)
    result = scheduler.run()
    return protocol, result, scheduler


class TestProtocolChainV2:
    def test_registry_pins_the_root_version(self, merkle_protocol_run):
        protocol, _, _ = merkle_protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        params = chain.state.get("registry", "protocol_params")
        assert int(params["state_root_version"]) == STATE_ROOT_VERSION == chain.state_root_version

    def test_round_contexts_record_their_committed_header(self, merkle_protocol_run):
        protocol, _, scheduler = merkle_protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        assert scheduler.contexts, "the scheduler kept no round contexts"
        for ctx in scheduler.contexts:
            height = ctx.metadata["block_height"]
            header = chain.blocks[height].header
            assert ctx.metadata["state_root"] == header.state_root
            # The recorded header commits the round's published entries: the
            # evaluation record is provable against exactly that state root.
            view = chain.state_at(height)
            assert view.get("contribution", f"evaluation/{ctx.round_number}") is not None

    def test_all_replicas_agree_and_replay_matches(self, merkle_protocol_run):
        protocol, _, _ = merkle_protocol_run
        roots = {p.node.chain.state.state_root() for p in protocol.participants.values()}
        assert len(roots) == 1
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        assert chain.replay().state.state_root() == chain.state.state_root()

    def test_settlement_proof_verifies_against_committed_header(self, merkle_protocol_run, dataset):
        protocol, result, _ = merkle_protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        header_root = chain.head.header.state_root
        settlement = chain.state.get("reward", "distribution/final")
        proof = chain.state.prove("reward", "distribution/final")
        assert verify_state_proof(header_root, proof, value=settlement)
        # A participant checking its own published totals needs only the header.
        totals = chain.state.get("contribution", "totals")
        totals_proof = chain.state.prove("contribution", "totals")
        assert verify_state_proof(header_root, totals_proof, value=totals)
        assert totals == pytest.approx(result.total_contributions)

    def test_tampered_settlement_entry_fails_the_proof(self, merkle_protocol_run):
        protocol, _, _ = merkle_protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        header_root = chain.head.header.state_root
        settlement = chain.state.get("reward", "distribution/final")
        proof = chain.state.prove("reward", "distribution/final")
        tampered = dict(settlement)
        first_owner = sorted(tampered["payouts"])[0]
        tampered["payouts"] = {**tampered["payouts"], first_owner: 10_000.0}
        assert not verify_state_proof(header_root, proof, value=tampered)

    def test_incremental_audit_matches_replay_audit(self, merkle_protocol_run, dataset):
        protocol, _, _ = merkle_protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        replay = audit_chain(
            chain, dataset.test_features, dataset.test_labels, dataset.n_classes, mode="replay"
        )
        incremental = audit_chain(
            chain, dataset.test_features, dataset.test_labels, dataset.n_classes, mode="incremental"
        )
        assert replay.passed and incremental.passed
        assert incremental.rounds_checked == replay.rounds_checked
        assert incremental.recomputed_totals == pytest.approx(replay.recomputed_totals)
        assert incremental.state_versions_checked == list(range(chain.height, -1, -1))

    def test_audit_flags_replica_on_the_wrong_root_version(self, merkle_protocol_run, dataset):
        protocol, _, _ = merkle_protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        # A replica configured for a different commitment than the chain
        # pinned at setup must fail the audit's consensus-parameter check.
        imposter = chain.replay()
        imposter.state_root_version = 1
        report = audit_chain(
            imposter, dataset.test_features, dataset.test_labels, dataset.n_classes,
            mode="incremental",
        )
        assert not report.passed
        assert any("state_root_version" in m for m in report.mismatches)

    def test_fast_synced_joiner_matches_replay_sync(self, merkle_protocol_run, dataset):
        from repro.datasets.loader import OwnerDataset

        protocol, _, _ = merkle_protocol_run
        reference = protocol.participants[protocol.owner_ids[0]].node.chain
        rng = np.random.default_rng(5)
        template = protocol.participants[protocol.owner_ids[0]].client
        def newcomer(owner_id: str) -> OwnerDataset:
            return OwnerDataset(
                owner_id=owner_id,
                features=rng.normal(size=(20, template.features.shape[1])),
                labels=rng.integers(0, dataset.n_classes, size=20),
                noise_sigma=0.0,
            )

        fast = protocol._build_participant(newcomer("owner-late-fast"))
        fast.node.chain.fast_sync_from(reference)
        slow = protocol._build_participant(newcomer("owner-late-slow"))
        for block in reference.blocks[1:]:
            slow.node.chain.verify_and_append(block)
        assert fast.node.chain.state.state_root() == slow.node.chain.state.state_root()
        assert canonical_dumps(fast.node.chain.state.raw()) == canonical_dumps(slow.node.chain.state.raw())
        assert fast.node.chain._nonces == slow.node.chain._nonces


class TestIncrementalAuditOnV1Chain:
    def test_verdicts_match_replay_on_the_default_chain(self, protocol_run, dataset):
        protocol, _ = protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        replay = audit_chain(
            chain, dataset.test_features, dataset.test_labels, dataset.n_classes, mode="replay"
        )
        incremental = audit_chain(
            chain, dataset.test_features, dataset.test_labels, dataset.n_classes, mode="incremental"
        )
        assert replay.passed and incremental.passed
        assert incremental.rounds_checked == replay.rounds_checked
        assert incremental.recomputed_totals == pytest.approx(replay.recomputed_totals)


class TestAdaptiveBucketing:
    """Per-namespace layouts widen as a pure function of size."""

    def test_root_is_a_pure_function_of_content_across_resizes(self):
        n = 4 * N_STATE_BUCKETS + 500  # crosses the first widening threshold
        grown = WorldState()
        for i in range(n):
            grown.set("bulk", f"key-{i:05d}", i)
        fresh = WorldState(grown.raw())
        assert grown.state_root() == fresh.state_root()
        # Shrinking back below the threshold returns to the narrow layout root.
        for i in range(500, n):
            grown.delete("bulk", f"key-{i:05d}")
        small = WorldState()
        for i in range(500):
            small.set("bulk", f"key-{i:05d}", i)
        assert grown.state_root() == small.state_root()

    def test_rollback_across_a_resize_boundary(self):
        state = WorldState()
        for i in range(100):
            state.set("bulk", f"key-{i:05d}", i)
        narrow_root = state.state_root()
        marker = state.snapshot()
        for i in range(100, 4 * N_STATE_BUCKETS + 200):
            state.set("bulk", f"key-{i:05d}", i)
        assert state.state_root() != narrow_root
        state.restore(marker)
        assert state.state_root() == narrow_root

    def test_proofs_verify_at_wide_layouts(self):
        state = WorldState()
        n = 4 * N_STATE_BUCKETS + 300
        for i in range(n):
            state.set("bulk", f"key-{i:05d}", {"i": i})
        root = state.state_root()
        for key in ("key-00000", f"key-{n - 1:05d}", f"key-{n // 2:05d}"):
            proof = state.prove("bulk", key)
            assert proof.n_buckets > N_STATE_BUCKETS
            payload = proof.to_dict()
            assert verify_state_proof(root, StateProof.from_dict(payload))
        # Minimum-width layouts leave n_buckets out of the payload.
        state.set("tiny", "k", 1)
        assert "n_buckets" not in state.prove("tiny", "k").to_dict()

    def test_tampered_wide_proof_fails(self):
        state = WorldState()
        for i in range(4 * N_STATE_BUCKETS + 100):
            state.set("bulk", f"key-{i:05d}", i)
        root = state.state_root()
        payload = state.prove("bulk", "key-00042").to_dict()
        payload["n_buckets"] = payload.get("n_buckets", N_STATE_BUCKETS) * 2
        assert not verify_state_proof(root, StateProof.from_dict(payload))

    def test_v3_chain_commits_and_replays(self):
        chain = _writer_chain(n_blocks=4)
        assert chain.verify_version_roots() == [4, 3, 2, 1, 0]
        replica = Blockchain(_writer_runtime)
        for block in chain.blocks[1:]:
            replica.verify_and_append(block)
        assert replica.head.block_hash == chain.head.block_hash


class TestVersionPruning:
    def test_prune_versions_drops_below_horizon(self):
        chain = _writer_chain(n_blocks=6)
        pruned = chain.state.prune_versions(keep_last=2)
        assert pruned == [0, 1, 2, 3, 4]
        assert chain.state.oldest_retained_version() == 5
        # Unwinding the oldest retained delta still answers one height below
        # the horizon; anything lower needs a pruned delta and refuses.
        for height in (5, 4):
            assert chain.state.view_at(height).state_root() == chain.blocks[height].header.state_root
        with pytest.raises(ValidationError, match="not retained"):
            chain.state.view_at(3)

    def test_prune_is_idempotent_and_bounded(self):
        chain = _writer_chain(n_blocks=4)
        assert chain.state.prune_versions(keep_last=3) == [0, 1]
        assert chain.state.prune_versions(keep_last=3) == []
        with pytest.raises(ValidationError):
            chain.state.prune_versions(keep_last=0)


@pytest.mark.parametrize(
    "tag, retired",
    [("state_root_version", 1), ("state_root_version", 2), ("sv_assembly_version", 1)],
)
def test_retired_format_tags_are_refused_by_name(tag, retired, tmp_path):
    """The version fields are format tags: one value each, retired ones named in the error."""
    import sqlite3

    from repro.blockchain.storage import SQLiteBackend
    from repro.blockchain.swarm import SwarmConfig

    named = f"{tag} {retired}"
    with pytest.raises(ConfigurationError, match=named):
        ProtocolConfig(**{tag: retired})
    if tag != "state_root_version":
        return
    with pytest.raises(BlockchainError, match=named):
        SwarmConfig(state_root_version=retired)
    with pytest.raises(ChainValidationError, match=named):
        Blockchain(counter_runtime_factory, state_root_version=retired)
    # A store whose meta row carries the retired tag is foreign: refused.
    path = str(tmp_path / "retired.db")
    _writer_chain(n_blocks=1).attach_storage(backend := SQLiteBackend(path))
    backend.close()
    conn = sqlite3.connect(path)
    conn.execute("UPDATE meta SET value = ? WHERE key = 'state_root_version'", (str(retired),))
    conn.commit()
    conn.close()
    backend = SQLiteBackend(path)
    with pytest.raises(StorageError, match=named):
        Blockchain(_writer_runtime).attach_storage(backend)
    backend.close()
