"""Tests for the ledger (repro.blockchain.chain)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain
from repro.blockchain.contracts.base import Contract, ContractRuntime, contract_method
from repro.blockchain.storage import open_backend
from repro.blockchain.transaction import Transaction
from repro.exceptions import InvalidBlockError, InvalidTransactionError

from tests.helpers import count_executions, counter_runtime_factory, counter_tx, dump_tables


@pytest.fixture()
def chain():
    return Blockchain(counter_runtime_factory)


class TestGenesis:
    def test_starts_with_genesis(self, chain):
        assert chain.height == 0
        assert chain.head.height == 0

    def test_genesis_has_no_transactions(self, chain):
        assert chain.head.transactions == ()

    def test_validate_fresh_chain(self, chain):
        chain.validate_chain()


class TestTransactionExecution:
    def test_successful_execution_updates_state(self, chain):
        receipt = chain.execute_transaction(counter_tx("alice", 0, amount=5), block_height=1)
        assert receipt.success
        assert receipt.result == 5
        assert chain.state.get("counter", "value") == 5

    def test_failed_execution_rolls_back_state(self, chain):
        chain.execute_transaction(counter_tx("alice", 0, amount=5), 1)
        receipt = chain.execute_transaction(counter_tx("alice", 1, method="fail"), 1)
        assert not receipt.success
        assert "intentional failure" in receipt.error
        assert chain.state.get("counter", "value") == 5

    def test_nonce_must_match(self, chain):
        with pytest.raises(InvalidTransactionError):
            chain.execute_transaction(counter_tx("alice", 3), 1)

    def test_nonce_advances_even_for_failed_transactions(self, chain):
        chain.execute_transaction(counter_tx("alice", 0, method="fail"), 1)
        assert chain.next_nonce("alice") == 1

    def test_unknown_contract_produces_failed_receipt(self, chain):
        tx = Transaction(sender="alice", contract="missing", method="whatever", nonce=0)
        receipt = chain.execute_transaction(tx, 1)
        assert not receipt.success

    def test_gas_is_metered(self, chain):
        receipt = chain.execute_transaction(counter_tx("alice", 0), 1)
        assert receipt.gas_used > 0

    def test_events_are_captured(self, chain):
        receipt = chain.execute_transaction(counter_tx("alice", 0, amount=2), 1)
        assert receipt.events[0]["name"] == "Incremented"
        assert receipt.events[0]["data"]["amount"] == 2


class TestBlockProduction:
    def test_propose_block_advances_chain(self, chain):
        block = chain.propose_block("alice", [counter_tx("alice", 0)])
        assert chain.height == 1
        assert block.header.parent_hash == chain.blocks[0].block_hash

    def test_proposed_block_state_root_matches_state(self, chain):
        block = chain.propose_block("alice", [counter_tx("alice", 0)])
        assert block.header.state_root == chain.state.state_root()

    def test_verify_and_append_on_fresh_replica(self, chain):
        block = chain.propose_block("alice", [counter_tx("alice", 0, amount=3)])
        replica = Blockchain(counter_runtime_factory)
        replica.verify_and_append(block)
        assert replica.state.get("counter", "value") == 3

    def test_verify_rejects_wrong_height(self, chain):
        block = chain.propose_block("alice", [counter_tx("alice", 0)])
        replica = Blockchain(counter_runtime_factory)
        replica.verify_and_append(block)
        with pytest.raises(InvalidBlockError):
            replica.verify_and_append(block)

    def test_verify_rejects_wrong_parent(self, chain):
        chain.propose_block("alice", [counter_tx("alice", 0)])
        second = chain.propose_block("alice", [counter_tx("alice", 1)])
        replica = Blockchain(counter_runtime_factory)
        with pytest.raises(InvalidBlockError):
            replica.verify_and_append(second)

    def test_verify_rejects_forged_receipts(self, chain):
        block = chain.propose_block("alice", [counter_tx("alice", 0, amount=3)])
        forged_receipts = list(block.receipts)
        forged_receipts[0] = dataclasses.replace(forged_receipts[0], result=1000)
        forged = Block.build(
            height=block.height,
            parent_hash=block.header.parent_hash,
            proposer=block.header.proposer,
            transactions=list(block.transactions),
            receipts=forged_receipts,
            state_root=block.header.state_root,
            timestamp=block.header.timestamp,
        )
        replica = Blockchain(counter_runtime_factory)
        with pytest.raises(InvalidBlockError):
            replica.verify_and_append(forged)

    def test_verify_rejects_forged_state_root(self, chain):
        block = chain.propose_block("alice", [counter_tx("alice", 0, amount=3)])
        forged = Block.build(
            height=block.height,
            parent_hash=block.header.parent_hash,
            proposer=block.header.proposer,
            transactions=list(block.transactions),
            receipts=list(block.receipts),
            state_root="00" * 32,
            timestamp=block.header.timestamp,
        )
        replica = Blockchain(counter_runtime_factory)
        with pytest.raises(InvalidBlockError):
            replica.verify_and_append(forged)

    def test_rejected_block_leaves_replica_state_untouched(self, chain):
        good = chain.propose_block("alice", [counter_tx("alice", 0, amount=1)])
        replica = Blockchain(counter_runtime_factory)
        replica.verify_and_append(good)
        bad = Block.build(
            height=2,
            parent_hash=good.block_hash,
            proposer="alice",
            transactions=[counter_tx("alice", 1, amount=7)],
            receipts=[chain.execute_transaction(counter_tx("alice", 1, amount=7), 2)],
            state_root="11" * 32,
        )
        before_root = replica.state.state_root()
        with pytest.raises(InvalidBlockError):
            replica.verify_and_append(bad)
        assert replica.state.state_root() == before_root
        assert replica.next_nonce("alice") == 1


class TestCloneReplayAndQueries:
    def test_dry_run_proposal_leaves_the_replica_untouched(self, chain):
        chain.propose_block("alice", [counter_tx("alice", 0, amount=2)])
        root, height = chain.state.state_root(), chain.height
        txs = [counter_tx("alice", 1, amount=10), counter_tx("bob", 0, method="fail")]
        staged = chain.propose_block("alice", txs, dry_run=True)
        assert (chain.state.state_root(), chain.height) == (root, height)
        assert chain.state.get("counter", "value") == 2
        assert (chain.next_nonce("alice"), chain.next_nonce("bob")) == (1, 0)
        # The staged block is the block a committing proposal builds.
        assert chain.propose_block("alice", txs).block_hash == staged.block_hash
        assert chain.state.get("counter", "value") == 12

    def test_dry_run_verification_checks_everything_and_appends_nothing(self, chain):
        leader = chain.replay()
        block = leader.propose_block("alice", [counter_tx("alice", 0, amount=4)])
        root = chain.state.state_root()
        chain.verify_and_append(block, dry_run=True)
        assert (chain.height, chain.state.state_root(), chain.next_nonce("alice")) == (0, root, 0)
        forged = dataclasses.replace(
            block, header=dataclasses.replace(block.header, state_root="11" * 32)
        )
        with pytest.raises(InvalidBlockError, match="state root"):
            chain.verify_and_append(forged, dry_run=True)
        chain.verify_and_append(block)
        assert chain.head.block_hash == block.block_hash

    def test_a_proposal_that_cannot_execute_unwinds(self, chain):
        root = chain.state.state_root()
        with pytest.raises(InvalidTransactionError):
            chain.propose_block("alice", [counter_tx("alice", 0), counter_tx("alice", 5)])
        assert (chain.height, chain.state.state_root(), chain.next_nonce("alice")) == (0, root, 0)

    def test_replay_reproduces_state(self, chain):
        chain.propose_block("alice", [counter_tx("alice", 0, amount=2)])
        chain.propose_block("bob", [counter_tx("bob", 0, amount=3)])
        replayed = chain.replay()
        assert replayed.state.state_root() == chain.state.state_root()
        assert replayed.height == chain.height

    def test_validate_chain_detects_broken_link(self, chain):
        chain.propose_block("alice", [counter_tx("alice", 0)])
        chain.propose_block("alice", [counter_tx("alice", 1)])
        chain.blocks[2] = dataclasses.replace(
            chain.blocks[2],
            header=dataclasses.replace(chain.blocks[2].header, parent_hash="99" * 32),
        )
        with pytest.raises(Exception):
            chain.validate_chain()

    def test_find_receipt(self, chain):
        tx = counter_tx("alice", 0, amount=4)
        chain.propose_block("alice", [tx])
        receipt = chain.find_receipt(tx.tx_hash)
        assert receipt is not None and receipt.success

    def test_find_receipt_missing_returns_none(self, chain):
        assert chain.find_receipt("ff" * 32) is None

    def test_totals(self, chain):
        chain.propose_block("alice", [counter_tx("alice", 0), counter_tx("alice", 1)])
        assert chain.total_transactions() == 2
        assert chain.total_gas() > 0


class TestOneExecutionPerBlock:
    """A commit of the block a replica's own dry run passed adopts that run's writes."""

    TXS = (("alice", 0, 3, "increment"), ("bob", 0, 4, "increment"), ("bob", 1, 1, "fail"))

    def block_on(self, chain, txs=TXS):
        """The block an honest leader on ``chain``'s head would propose for ``txs``."""
        return chain.replay().propose_block("leader", [counter_tx(*tx) for tx in txs])

    def snapshot(self, chain):
        return (chain.height, chain.head.block_hash, chain.state.state_root(),
                chain.state.raw(), dict(chain._nonces))

    def test_the_vote_is_the_execution_and_the_commit_adopts_it(self, chain):
        block, calls = self.block_on(chain), count_executions(chain)
        chain.verify_and_append(block, dry_run=True)
        assert len(calls) == len(self.TXS) and chain.height == 0
        chain.verify_and_append(block)
        assert len(calls) == len(self.TXS)  # nothing ran a second time
        fresh = Blockchain(counter_runtime_factory)
        fresh_calls = count_executions(fresh)
        fresh.verify_and_append(block)  # no vote of its own: it executes
        assert len(fresh_calls) == len(self.TXS)
        assert self.snapshot(chain) == self.snapshot(fresh)
        assert chain.state._versions == fresh.state._versions
        assert chain.verify_version_roots() == [1, 0]

    def test_a_leader_adopts_its_own_staged_proposal(self, chain):
        calls = count_executions(chain)
        txs = [counter_tx(*tx) for tx in self.TXS]
        block = chain.propose_block("leader", txs, dry_run=True)
        chain.verify_and_append(block)
        assert len(calls) == len(txs)
        assert self.snapshot(chain)[1:] == self.snapshot(chain.replay())[1:]

    def test_a_different_block_at_the_voted_height_is_re_executed(self, chain):
        voted = self.block_on(chain)
        other = self.block_on(chain, (("carol", 0, 9, "increment"),))
        calls = count_executions(chain)
        chain.verify_and_append(voted, dry_run=True)
        chain.verify_and_append(other)
        assert len(calls) == len(self.TXS) + 1
        assert chain._verified is None
        fresh = Blockchain(counter_runtime_factory)
        fresh.verify_and_append(other)
        assert self.snapshot(chain) == self.snapshot(fresh)  # no trace of the voted block
        assert (chain.next_nonce("alice"), chain.next_nonce("carol")) == (0, 1)

    def test_the_voted_header_over_other_transactions_is_refused_untouched(self, chain):
        voted = self.block_on(chain)
        other = self.block_on(chain, (("carol", 0, 9, "increment"),) + self.TXS[1:])
        chain.verify_and_append(voted, dry_run=True)
        before, calls = self.snapshot(chain), count_executions(chain)
        forged = dataclasses.replace(voted, transactions=other.transactions)
        assert forged.block_hash == voted.block_hash
        with pytest.raises(InvalidBlockError, match="tx root mismatch"):
            chain.verify_and_append(forged)
        forged = dataclasses.replace(voted, receipts=other.receipts)
        with pytest.raises(InvalidBlockError, match="receipt root mismatch"):
            chain.verify_and_append(forged)
        assert self.snapshot(chain) == before and calls == []
        chain.verify_and_append(voted)  # the honest commit is still an adopt
        assert calls == [] and chain.head.block_hash == voted.block_hash

    def test_a_repeated_vote_and_a_repeated_commit_change_nothing(self, chain):
        block = self.block_on(chain)
        before = self.snapshot(chain)
        for _ in range(3):
            chain.verify_and_append(block, dry_run=True)
            assert self.snapshot(chain) == before
        chain.verify_and_append(block)
        after = self.snapshot(chain)
        with pytest.raises(InvalidBlockError, match="does not extend"):
            chain.verify_and_append(block)
        assert self.snapshot(chain) == after and chain._verified is None

    def test_a_failed_vote_keeps_nothing(self, chain):
        block = self.block_on(chain)
        forged = dataclasses.replace(
            block, header=dataclasses.replace(block.header, state_root="11" * 32)
        )
        with pytest.raises(InvalidBlockError, match="state root"):
            chain.verify_and_append(forged, dry_run=True)
        assert chain._verified is None
        with pytest.raises(InvalidBlockError, match="state root"):
            chain.verify_and_append(forged)
        assert chain.height == 0

    def test_kept_writes_that_miss_the_root_fall_back_to_re_execution(self, chain):
        block = self.block_on(chain)
        chain.verify_and_append(block, dry_run=True)
        block_hash, writes, nonces = chain._verified
        (full, (present, value, value_hash)), = writes.items()
        chain._verified = (block_hash, {full: (present, value + 1, value_hash[::-1])}, nonces)
        calls = count_executions(chain)
        chain.verify_and_append(block)
        assert len(calls) == len(self.TXS)
        assert self.snapshot(chain)[1:] == self.snapshot(chain.replay())[1:]

    def test_state_dirtied_between_vote_and_commit_is_never_adopted(self, chain):
        block = self.block_on(chain)
        chain.verify_and_append(block, dry_run=True)
        chain.state.set("counter", "stray", 1)  # a direct write, outside any block
        calls = count_executions(chain)
        with pytest.raises(InvalidBlockError, match="state root mismatch after re-execution"):
            chain.verify_and_append(block)
        assert len(calls) == len(self.TXS)  # the adopt missed the root, so it re-executed
        assert chain.height == 0 and chain.state.get("counter", "stray") == 1
        chain.state.delete("counter", "stray")
        chain.verify_and_append(block)
        assert len(calls) == 2 * len(self.TXS)  # the kept writes were spent: executed again
        replayed = chain.replay()
        assert (chain.head.block_hash, chain.state.state_root()) == (
            replayed.head.block_hash, replayed.state.state_root())

    def test_a_kept_slot_does_not_travel_with_a_pickled_replica(self, chain):
        import pickle

        chain.verify_and_append(self.block_on(chain), dry_run=True)
        assert chain._verified is not None
        assert pickle.loads(pickle.dumps(chain))._verified is None

    def test_an_adopting_store_equals_a_re_executing_store_row_for_row(self, chain, tmp_path):
        leader = Blockchain(counter_runtime_factory)
        stores = {name: tmp_path / f"{name}.db" for name in ("adopting", "executing")}
        replicas = {
            name: Blockchain(counter_runtime_factory, chain_id="replica",
                             storage=open_backend(f"sqlite:{path}"))
            for name, path in stores.items()
        }
        try:
            rounds = [self.TXS, (("alice", 1, 2, "increment"), ("carol", 0, 0, "fail")),
                      (("bob", 2, 5, "increment"),)]
            for txs in rounds:
                block = leader.propose_block("leader", [counter_tx(*tx) for tx in txs])
                replicas["adopting"].verify_and_append(block, dry_run=True)
                for replica in replicas.values():
                    replica.verify_and_append(block)
        finally:
            for replica in replicas.values():
                replica.storage.close()
        adopting, executing = (dump_tables(stores[name]) for name in ("adopting", "executing"))
        assert sorted(adopting) == ["blocks", "deltas", "kv", "meta", "nonces"]
        assert adopting == executing
        logs = [(path.parent / f"{path.name}.blocklog").read_bytes() for path in stores.values()]
        assert logs[0] == logs[1]


class ArrayContract(Contract):
    """Stores an array and hands it back: receipts that carry an ``ndarray``."""

    name = "arrays"

    @contract_method
    def put(self, ctx, values):
        ctx.set("values", np.asarray(values, dtype=np.float64))
        return ctx.get("values")

    @contract_method
    def read(self, ctx):
        return ctx.get("values")


def array_runtime_factory() -> ContractRuntime:
    runtime = ContractRuntime()
    runtime.register(ArrayContract())
    return runtime


class TestArrayReceipts:
    """Receipts are compared by canonical hash, so an array result is not ambiguous."""

    def array_block(self, leader):
        put = Transaction("alice", "arrays", "put", {"values": np.arange(4.0)}, nonce=0)
        read = Transaction("bob", "arrays", "read", nonce=0)
        return leader.propose_block("alice", [put, read])

    def test_an_honest_block_whose_receipts_carry_arrays_commits(self):
        leader, miner = Blockchain(array_runtime_factory), Blockchain(array_runtime_factory)
        block = self.array_block(leader)
        assert isinstance(block.receipts[1].result, np.ndarray)
        miner.verify_and_append(block, dry_run=True)
        miner.verify_and_append(block)
        fresh = Blockchain(array_runtime_factory)
        fresh.verify_and_append(block)
        assert miner.head.block_hash == fresh.head.block_hash == block.block_hash
        np.testing.assert_array_equal(miner.state.get("arrays", "values"), np.arange(4.0))

    def test_a_receipt_array_differing_in_one_element_is_rejected(self):
        leader, miner = Blockchain(array_runtime_factory), Blockchain(array_runtime_factory)
        block = self.array_block(leader)
        result = block.receipts[1].result.copy()
        result[2] = np.nextafter(result[2], 3.0)
        receipts = [block.receipts[0], dataclasses.replace(block.receipts[1], result=result)]
        forged = Block.build(
            height=block.height, parent_hash=block.header.parent_hash,
            proposer=block.header.proposer, transactions=list(block.transactions),
            receipts=receipts, state_root=block.header.state_root,
            timestamp=block.header.timestamp,
        )
        for dry_run in (True, False):
            with pytest.raises(InvalidBlockError, match="receipts differ"):
                miner.verify_and_append(forged, dry_run=dry_run)
        assert miner.height == 0
