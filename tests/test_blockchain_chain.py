"""Tests for the ledger (repro.blockchain.chain)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain
from repro.blockchain.transaction import Transaction
from repro.exceptions import InvalidBlockError, InvalidTransactionError

from tests.helpers import counter_runtime_factory, counter_tx


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

    def test_events_query(self, chain):
        chain.propose_block("alice", [counter_tx("alice", 0, amount=1), counter_tx("alice", 1, amount=2)])
        events = chain.events("Incremented")
        assert len(events) == 2
        assert chain.events("Nothing") == []

    def test_totals(self, chain):
        chain.propose_block("alice", [counter_tx("alice", 0), counter_tx("alice", 1)])
        assert chain.total_transactions() == 2
        assert chain.total_gas() > 0
