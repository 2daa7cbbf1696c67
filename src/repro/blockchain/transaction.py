"""Transactions: the unit of on-chain activity.

Every interaction with the chain — registering a public key, submitting a
masked update, triggering the contribution evaluation — is a transaction that
names a contract, a method, and arguments.  Transactions are hashed over their
canonical serialization and carry a lightweight HMAC-style signature binding
them to the sender (sufficient for a simulation; a deployment would use ECDSA).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any

from repro.exceptions import InvalidTransactionError, ValidationError
from repro.utils.hashing import hash_payload
from repro.utils.serialization import canonical_dumps, freeze_value


class _FieldsOnlyState:
    """Pickle a dataclass by its fields alone.  Its hashes are memos
    (``cached_property``; sound because a transaction's ``args`` are frozen):
    stripped on the way out, ignored on the way in, never taken from a peer."""

    def __getstate__(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for f in fields(self):  # attribute by attribute: keeps the compact instance layout
            object.__setattr__(self, f.name, state[f.name])


def _signing_key(sender: str) -> bytes:
    """Derive the simulation signing key for a sender identity.

    In this in-process simulation identities are not adversarially forgeable at
    the cryptographic level; the signature exists so that tampering with a
    transaction after creation is detected during verification.
    """
    return hashlib.sha256(f"repro-signing-key/{sender}".encode("utf-8")).digest()


@dataclass(frozen=True)
class Transaction(_FieldsOnlyState):
    """A contract call submitted by a participant.

    Attributes:
        sender: the identity submitting the transaction.
        contract: name of the target contract (e.g. ``"fl_training"``).
        method: contract method to invoke.
        args: method arguments; canonically serializable, arrays frozen on build.
        nonce: per-sender sequence number preventing replay.
        signature: hex HMAC over the canonical body.
    """

    sender: str
    contract: str
    method: str
    args: dict[str, Any] = field(default_factory=dict)
    nonce: int = 0
    signature: str = ""

    def __post_init__(self) -> None:
        if not self.sender:
            raise ValidationError("transaction sender must be non-empty")
        if not self.contract or not self.method:
            raise ValidationError("transaction must name a contract and method")
        if self.nonce < 0:
            raise ValidationError("nonce must be non-negative")
        object.__setattr__(self, "args", freeze_value(self.args))  # one buffer per payload
        if not self.signature:
            object.__setattr__(self, "signature", self._expected_signature)

    def __setstate__(self, state: dict[str, Any]) -> None:
        super().__setstate__({**state, "args": freeze_value(state["args"])})

    def body(self) -> dict[str, Any]:
        """The signed portion of the transaction."""
        return {
            "sender": self.sender,
            "contract": self.contract,
            "method": self.method,
            "args": self.args,
            "nonce": self.nonce,
        }

    def to_record(self) -> dict[str, Any]:
        """The canonical record: what is hashed, stored and sized on the wire."""
        return {**self.body(), "signature": self.signature}

    @cached_property
    def _expected_signature(self) -> str:
        message = canonical_dumps(self.body()).encode("utf-8")
        return hmac.new(_signing_key(self.sender), message, hashlib.sha256).hexdigest()

    @cached_property
    def tx_hash(self) -> str:
        """Content hash identifying this transaction."""
        return hash_payload(self.to_record())

    def verify_signature(self) -> bool:
        """Check the signature matches the body and claimed sender."""
        return hmac.compare_digest(self.signature, self._expected_signature)

    def validate(self) -> None:
        """Raise :class:`InvalidTransactionError` if the transaction is malformed."""
        try:
            signed = self.verify_signature()  # serializes the whole body, ``args`` included
        except ValidationError as exc:
            raise InvalidTransactionError(f"arguments are not serializable: {exc}") from exc
        if not signed:
            raise InvalidTransactionError(
                f"bad signature on transaction {self.tx_hash[:12]} from {self.sender}"
            )


@dataclass(frozen=True)
class TransactionReceipt(_FieldsOnlyState):
    """The outcome of executing a transaction inside a block.

    Attributes:
        tx_hash: hash of the executed transaction.
        success: whether the contract call committed.
        result: the contract return value (canonically serializable) or ``None``.
        error: error message when ``success`` is ``False``.
        events: contract-emitted events, each ``{"name": ..., "data": {...}}``.
        gas_used: abstract execution cost (used by the throughput analysis).
    """

    tx_hash: str
    success: bool
    result: Any = None
    error: str = ""
    events: tuple = ()
    gas_used: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Serializable view used when hashing a block's receipts root."""
        return {
            "tx_hash": self.tx_hash,
            "success": self.success,
            "result": self.result,
            "error": self.error,
            "events": list(self.events),
            "gas_used": self.gas_used,
        }

    @cached_property
    def receipt_hash(self) -> str:
        """The leaf a block's ``receipt_root`` is built from (bit-exact for arrays)."""
        return hash_payload(self.to_dict())
