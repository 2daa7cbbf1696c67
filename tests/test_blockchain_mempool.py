"""Tests for the mempool (repro.blockchain.mempool)."""

from __future__ import annotations

import pytest

from repro.blockchain.mempool import Mempool
from repro.blockchain.transaction import Transaction
from repro.exceptions import InvalidTransactionError


def tx(sender="alice", nonce=0, key=5):
    return Transaction(sender=sender, contract="registry", method="register_participant", args={"public_key": key}, nonce=nonce)


class TestMempool:
    def test_add_and_len(self):
        pool = Mempool()
        assert pool.add(tx())
        assert len(pool.peek()) == 1

    def test_duplicate_is_ignored(self):
        pool = Mempool()
        transaction = tx()
        assert pool.add(transaction) is True
        assert pool.add(transaction) is False
        assert len(pool.peek()) == 1

    def test_contains_by_hash(self):
        pool = Mempool()
        transaction = tx()
        pool.add(transaction)
        assert transaction.tx_hash in pool

    def test_peek_preserves_arrival_order(self):
        pool = Mempool()
        txs = [tx(nonce=i, key=i + 2) for i in range(5)]
        pool.add_many(txs[:3])
        pool.add(txs[3])
        pool.add_many([txs[4], txs[0]])  # a re-admitted transaction keeps its first slot
        assert [t.tx_hash for t in pool.peek()] == [t.tx_hash for t in txs]

    def test_peek_does_not_remove(self):
        pool = Mempool()
        pool.add(tx())
        assert len(pool.peek()) == 1
        assert len(pool.peek()) == 1

    def test_remove_included_transactions(self):
        pool = Mempool()
        txs = [tx(nonce=i, key=i + 2) for i in range(3)]
        pool.add_many(txs)
        pool.remove([txs[0].tx_hash, txs[2].tx_hash])
        remaining = pool.peek()
        assert [t.tx_hash for t in remaining] == [txs[1].tx_hash]

    def test_peek_after_remove_keeps_the_order_of_the_rest(self):
        pool = Mempool()
        txs = [tx(nonce=i, key=i + 2) for i in range(5)]
        pool.add_many(txs)
        pool.remove([txs[1].tx_hash, txs[3].tx_hash])
        assert [t.tx_hash for t in pool.peek()] == [txs[0].tx_hash, txs[2].tx_hash, txs[4].tx_hash]

    def test_readmitted_after_removal_goes_to_the_back(self):
        pool = Mempool()
        txs = [tx(nonce=i, key=i + 2) for i in range(3)]
        pool.add_many(txs)
        pool.remove([txs[0].tx_hash])
        assert pool.add(txs[0])
        assert [t.tx_hash for t in pool.peek()] == [txs[1].tx_hash, txs[2].tx_hash, txs[0].tx_hash]

    def test_add_many_counts_new_only(self):
        pool = Mempool()
        first = tx(nonce=0)
        assert pool.add_many([first, first, tx(nonce=1)]) == 2

    def test_full_pool_rejects(self):
        pool = Mempool(max_size=1)
        pool.add(tx(nonce=0))
        with pytest.raises(InvalidTransactionError):
            pool.add(tx(nonce=1))

    def test_invalid_transaction_rejected_on_admission(self):
        pool = Mempool()
        bad = Transaction(
            sender="alice",
            contract="registry",
            method="register_participant",
            args={"public_key": 5},
            nonce=0,
            signature="00" * 32,
        )
        with pytest.raises(InvalidTransactionError):
            pool.add(bad)
