"""Blocks: batches of transactions committed to the chain by a leader."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.blockchain.merkle import MerkleTree
from repro.blockchain.transaction import Transaction, TransactionReceipt, _FieldsOnlyState
from repro.exceptions import InvalidBlockError, ValidationError
from repro.utils.hashing import hash_payload

GENESIS_PARENT_HASH = "0" * 64


@dataclass(frozen=True)
class BlockHeader(_FieldsOnlyState):
    """The hashed header committing to a block's contents.

    Attributes:
        height: block number (0 for genesis).
        parent_hash: hash of the previous block header.
        proposer: identity of the leader that proposed the block.
        tx_root: Merkle root of the transaction hashes.
        receipt_root: Merkle root of the receipt hashes.
        state_root: hash of the world state *after* executing the block.
        timestamp: logical timestamp (simulation tick, not wall clock).
        view: consensus view number under epoch-authority rotation (``None``
            on chains without rotation).  View 0 is the round's scheduled
            proposer; each view change hands the proposal to the next owner in
            the rotation.  The view is hashed into the block identity so an
            auditor can recompute the proposer schedule, but it is *omitted*
            from the hash payload when ``None`` — pre-rotation chains keep
            their historical block hashes byte for byte.
    """

    height: int
    parent_hash: str
    proposer: str
    tx_root: str
    receipt_root: str
    state_root: str
    timestamp: int = 0
    view: int | None = None

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValidationError("block height must be non-negative")
        if len(self.parent_hash) != 64:
            raise ValidationError("parent_hash must be a 64-char hex digest")
        if self.view is not None and self.view < 0:
            raise ValidationError("view number must be non-negative")

    def to_record(self) -> dict[str, Any]:
        """The hashed (and stored) fields; ``view`` is omitted when ``None``."""
        record = {
            "height": self.height,
            "parent_hash": self.parent_hash,
            "proposer": self.proposer,
            "tx_root": self.tx_root,
            "receipt_root": self.receipt_root,
            "state_root": self.state_root,
            "timestamp": self.timestamp,
        }
        if self.view is not None:
            record["view"] = self.view
        return record

    @cached_property
    def block_hash(self) -> str:
        """The hash identifying this block (a memo, like ``Transaction.tx_hash``)."""
        return hash_payload(self.to_record())


@dataclass(frozen=True)
class Block:
    """A block: header plus the full transaction and receipt lists."""

    header: BlockHeader
    transactions: tuple[Transaction, ...] = ()
    receipts: tuple[TransactionReceipt, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "transactions", tuple(self.transactions))
        object.__setattr__(self, "receipts", tuple(self.receipts))
        if len(self.transactions) != len(self.receipts):
            raise ValidationError("block must carry one receipt per transaction")

    @property
    def block_hash(self) -> str:
        """Hash of the block header."""
        return self.header.block_hash

    @property
    def height(self) -> int:
        """Block number."""
        return self.header.height

    def tx_hashes(self) -> list[str]:
        """Hashes of the block's transactions, in order."""
        return [tx.tx_hash for tx in self.transactions]

    def receipt_hashes(self) -> list[str]:
        """Hashes of the block's receipts, in order."""
        return [receipt.receipt_hash for receipt in self.receipts]

    def verify_roots(self) -> None:
        """Check the header's Merkle roots match the carried transactions/receipts."""
        expected_tx_root = MerkleTree.root_of(self.tx_hashes())
        if expected_tx_root != self.header.tx_root:
            raise InvalidBlockError(
                f"block {self.height}: tx root mismatch ({expected_tx_root[:12]} != {self.header.tx_root[:12]})"
            )
        expected_receipt_root = MerkleTree.root_of(self.receipt_hashes())
        if expected_receipt_root != self.header.receipt_root:
            raise InvalidBlockError(f"block {self.height}: receipt root mismatch")

    def total_gas(self) -> int:
        """Sum of abstract gas used by the block's transactions."""
        return sum(receipt.gas_used for receipt in self.receipts)

    @staticmethod
    def build(
        height: int,
        parent_hash: str,
        proposer: str,
        transactions: list[Transaction],
        receipts: list[TransactionReceipt],
        state_root: str,
        timestamp: int = 0,
        view: int | None = None,
    ) -> "Block":
        """Assemble a block, computing the Merkle roots from the given lists."""
        tx_root = MerkleTree.root_of([tx.tx_hash for tx in transactions])
        receipt_root = MerkleTree.root_of([r.receipt_hash for r in receipts])
        header = BlockHeader(
            height=height,
            parent_hash=parent_hash,
            proposer=proposer,
            tx_root=tx_root,
            receipt_root=receipt_root,
            state_root=state_root,
            timestamp=timestamp,
            view=view,
        )
        return Block(header=header, transactions=tuple(transactions), receipts=tuple(receipts))
