"""Mempool: pending transactions awaiting inclusion in a block."""

from __future__ import annotations

from repro.blockchain.transaction import Transaction
from repro.exceptions import InvalidTransactionError


class Mempool:
    """A FIFO pool of pending transactions, deduplicated by hash.

    Transactions are validated on admission (signature and serializability);
    nonce ordering is enforced later by the chain at execution time.
    """

    def __init__(self, max_size: int = 100_000) -> None:
        self._pool: dict[str, Transaction] = {}
        self.max_size = max_size

    def add(self, tx: Transaction) -> bool:
        """Admit a transaction; returns False if it is a duplicate."""
        tx.validate()
        if tx.tx_hash in self._pool:
            return False
        if len(self._pool) >= self.max_size:
            raise InvalidTransactionError("mempool is full")
        self._pool[tx.tx_hash] = tx
        return True

    def add_many(self, txs: list[Transaction]) -> int:
        """Admit a batch; returns how many were newly added."""
        return sum(1 for tx in txs if self.add(tx))

    def peek(self) -> list[Transaction]:
        """The pending transactions in arrival order, without removing them."""
        return list(self._pool.values())

    def remove(self, tx_hashes: list[str]) -> None:
        """Drop transactions that were included in an accepted block."""
        for tx_hash in tx_hashes:
            self._pool.pop(tx_hash, None)

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, tx_hash: str) -> bool:
        return tx_hash in self._pool
