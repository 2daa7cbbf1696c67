"""Tests for blocks and block headers (repro.blockchain.block)."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.blockchain.block import GENESIS_PARENT_HASH, Block, BlockHeader
from repro.blockchain.transaction import Transaction, TransactionReceipt
from repro.exceptions import InvalidBlockError, ValidationError
from repro.utils.hashing import hash_payload
from tests.helpers import ForgedState


def make_txs(n=2):
    return [
        Transaction(sender=f"user-{i}", contract="registry", method="register_participant", args={"public_key": i + 2}, nonce=0)
        for i in range(n)
    ]


def make_receipts(txs):
    return [TransactionReceipt(tx_hash=tx.tx_hash, success=True, result=None, gas_used=100) for tx in txs]


def build_block(height=1, parent=GENESIS_PARENT_HASH, n_txs=2, state_root="ab" * 32):
    txs = make_txs(n_txs)
    receipts = make_receipts(txs)
    return Block.build(
        height=height,
        parent_hash=parent,
        proposer="user-0",
        transactions=txs,
        receipts=receipts,
        state_root=state_root,
    )


class TestBlockHeader:
    def test_hash_is_stable(self):
        block = build_block()
        assert block.header.block_hash == block.header.block_hash

    def test_hash_changes_with_state_root(self):
        a = build_block(state_root="aa" * 32)
        b = build_block(state_root="bb" * 32)
        assert a.block_hash != b.block_hash

    def test_rejects_negative_height(self):
        with pytest.raises(ValidationError):
            BlockHeader(height=-1, parent_hash=GENESIS_PARENT_HASH, proposer="x", tx_root="a", receipt_root="b", state_root="c")

    def test_rejects_negative_view(self):
        with pytest.raises(ValidationError, match="view"):
            BlockHeader(height=1, parent_hash=GENESIS_PARENT_HASH, proposer="x", tx_root="a",
                        receipt_root="b", state_root="c", view=-1)

    def test_view_zero_is_hashed_and_an_absent_view_is_not(self):
        fields = dict(height=0, parent_hash=GENESIS_PARENT_HASH, proposer="x", tx_root="a",
                      receipt_root="b", state_root="c")
        absent, zero = BlockHeader(**fields), BlockHeader(**fields, view=0)
        assert "view" not in absent.to_record() and zero.to_record()["view"] == 0
        assert absent.block_hash != zero.block_hash

    def test_rejects_malformed_parent_hash(self):
        with pytest.raises(ValidationError):
            BlockHeader(height=1, parent_hash="short", proposer="x", tx_root="a", receipt_root="b", state_root="c")


HEADER_FIELDS = [f.name for f in dataclasses.fields(BlockHeader)]


def header_payload(header):
    """What a header hashes over, spelled independently of ``block_hash``."""
    payload = {name: getattr(header, name) for name in HEADER_FIELDS}
    if payload["view"] is None:
        del payload["view"]
    return payload


class TestBlockHashMemo:
    """``block_hash`` is computed once per header and never accepted from outside."""

    def test_the_memo_is_a_digest_and_does_not_travel(self):
        block = build_block()
        header = block.header
        assert header.block_hash is header.block_hash is block.block_hash  # computed once
        assert header.block_hash == hash_payload(header_payload(header))
        assert sorted(set(header.__dict__) - set(HEADER_FIELDS)) == ["block_hash"]
        for clone in (pickle.loads(pickle.dumps(header)), copy.copy(header), copy.deepcopy(header)):
            assert list(clone.__dict__) == HEADER_FIELDS
            assert clone == header and clone.block_hash == header.block_hash
        carried = pickle.loads(pickle.dumps(block)).header  # inside a gossiped block too
        assert list(carried.__dict__) == HEADER_FIELDS and carried.block_hash == block.block_hash

    def test_a_forged_memo_in_a_pickled_state_is_ignored(self):
        honest = build_block().header
        state = {**honest.__getstate__(), "state_root": "cd" * 32, "block_hash": honest.block_hash}
        forged = pickle.loads(pickle.dumps(ForgedState(BlockHeader, state)))
        assert type(forged) is BlockHeader and list(forged.__dict__) == HEADER_FIELDS
        assert forged.block_hash == hash_payload(header_payload(forged)) != honest.block_hash

    def test_replace_never_inherits_the_memo(self):
        header = build_block().header
        assert header.block_hash
        for change in ({"state_root": "cd" * 32}, {"view": 0}, {"height": 2}):
            replaced = dataclasses.replace(header, **change)
            assert list(replaced.__dict__) == HEADER_FIELDS
            assert replaced.block_hash == hash_payload(header_payload(replaced)) != header.block_hash


class TestBlock:
    def test_build_computes_matching_roots(self):
        block = build_block()
        block.verify_roots()

    def test_roots_detect_transaction_tampering(self):
        block = build_block(n_txs=3)
        tampered_txs = list(block.transactions)
        tampered_txs[0] = Transaction(
            sender="mallory", contract="registry", method="register_participant", args={"public_key": 99}, nonce=0
        )
        tampered = Block(header=block.header, transactions=tuple(tampered_txs), receipts=block.receipts)
        with pytest.raises(InvalidBlockError):
            tampered.verify_roots()

    def test_roots_detect_receipt_tampering(self):
        block = build_block(n_txs=2)
        tampered_receipts = list(block.receipts)
        tampered_receipts[0] = TransactionReceipt(tx_hash=block.transactions[0].tx_hash, success=False, error="forged")
        tampered = Block(header=block.header, transactions=block.transactions, receipts=tuple(tampered_receipts))
        with pytest.raises(InvalidBlockError):
            tampered.verify_roots()

    def test_requires_one_receipt_per_transaction(self):
        txs = make_txs(2)
        receipts = make_receipts(txs)[:1]
        header = build_block().header
        with pytest.raises(ValidationError):
            Block(header=header, transactions=tuple(txs), receipts=tuple(receipts))

    def test_empty_block_is_valid(self):
        block = Block.build(
            height=1,
            parent_hash=GENESIS_PARENT_HASH,
            proposer="x",
            transactions=[],
            receipts=[],
            state_root="cd" * 32,
        )
        block.verify_roots()
        assert block.tx_hashes() == []

    def test_total_gas_sums_receipts(self):
        block = build_block(n_txs=3)
        assert block.total_gas() == 300

    def test_height_property(self):
        assert build_block(height=7).height == 7

    def test_tx_hashes_match_transactions(self):
        block = build_block(n_txs=2)
        assert block.tx_hashes() == [tx.tx_hash for tx in block.transactions]
