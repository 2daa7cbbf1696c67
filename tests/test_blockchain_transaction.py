"""Tests for transactions and receipts (repro.blockchain.transaction)."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.blockchain.transaction import Transaction, TransactionReceipt
from repro.exceptions import InvalidTransactionError, ValidationError
from repro.utils.hashing import hash_payload
from repro.utils.serialization import canonical_dumps, canonical_loads
from tests.helpers import ForgedState


def make_tx(**overrides):
    defaults = dict(sender="alice", contract="registry", method="register_participant", args={"public_key": 5}, nonce=0)
    defaults.update(overrides)
    return Transaction(**defaults)


class TestTransaction:
    def test_signature_is_generated_automatically(self):
        assert make_tx().signature != ""

    def test_signature_verifies(self):
        assert make_tx().verify_signature()

    def test_tampered_args_fail_verification(self):
        tx = make_tx()
        tampered = dataclasses.replace(tx, args={"public_key": 6})
        forged = Transaction(
            sender=tampered.sender,
            contract=tampered.contract,
            method=tampered.method,
            args=tampered.args,
            nonce=tampered.nonce,
            signature=tx.signature,
        )
        assert not forged.verify_signature()
        with pytest.raises(InvalidTransactionError):
            forged.validate()

    def test_wrong_sender_cannot_reuse_signature(self):
        tx = make_tx()
        forged = Transaction(
            sender="mallory",
            contract=tx.contract,
            method=tx.method,
            args=tx.args,
            nonce=tx.nonce,
            signature=tx.signature,
        )
        assert not forged.verify_signature()

    def test_hash_changes_with_content(self):
        assert make_tx().tx_hash != make_tx(nonce=1).tx_hash

    def test_hash_is_stable(self):
        assert make_tx().tx_hash == make_tx().tx_hash

    def test_array_arguments_are_allowed(self):
        tx = make_tx(args={"payload": np.arange(4, dtype=np.uint64)})
        tx.validate()

    def test_a_caller_mutating_its_array_after_building_does_not_change_the_transaction(self):
        payload = np.arange(4, dtype=np.uint64)
        tx = make_tx(args={"payload": payload})
        tx_hash = tx.tx_hash
        payload[0] = 99
        assert not tx.args["payload"].flags.writeable and tx.args["payload"][0] == 0
        assert make_tx(args={"payload": payload}).tx_hash != tx_hash
        assert dataclasses.replace(tx).tx_hash == tx_hash and tx.verify_signature()

    def test_a_pickled_transaction_comes_back_with_frozen_args(self):
        tx = make_tx(args={"payload": np.arange(4, dtype=np.uint64), "nested": [np.zeros(2)]})
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            clone = pickle.loads(pickle.dumps(tx, protocol=protocol))
            arrays = [clone.args["payload"], clone.args["nested"][0]]
            assert not any(array.flags.writeable for array in arrays)
            assert clone.tx_hash == tx.tx_hash
            with pytest.raises(ValueError, match="read-only"):
                clone.args["payload"][0] = 1

    def test_rejects_empty_sender(self):
        with pytest.raises(ValidationError):
            make_tx(sender="")

    def test_rejects_missing_contract_or_method(self):
        with pytest.raises(ValidationError):
            make_tx(contract="")
        with pytest.raises(ValidationError):
            make_tx(method="")

    def test_rejects_negative_nonce(self):
        with pytest.raises(ValidationError):
            make_tx(nonce=-1)

    def test_unserializable_args_rejected_at_construction(self):
        # Signing canonically serializes the body, so unserializable arguments
        # cannot even produce a signed transaction.
        with pytest.raises(ValidationError):
            make_tx(args={"bad": object()})


    def test_a_forged_signature_over_unserializable_args_is_an_invalid_transaction(self):
        forged = make_tx(args={"bad": object()}, signature="ab" * 32)
        with pytest.raises(InvalidTransactionError, match="not serializable"):
            forged.validate()


TX_FIELDS = ["sender", "contract", "method", "args", "nonce", "signature"]
RECEIPT_FIELDS = ["tx_hash", "success", "result", "error", "events", "gas_used"]


class TestHashMemos:
    """Hashes are computed once per object and never accepted from outside."""

    def test_the_memos_are_digests_and_do_not_travel(self):
        tx = make_tx(args={"payload": np.arange(64, dtype=np.uint64)})
        tx.validate()
        assert tx.tx_hash is tx.tx_hash  # computed once
        assert sorted(set(tx.__dict__) - set(TX_FIELDS)) == ["_expected_signature", "tx_hash"]
        assert len(tx.tx_hash) == len(tx._expected_signature) == 64  # not canonical bytes
        for clone in (pickle.loads(pickle.dumps(tx)), copy.copy(tx), copy.deepcopy(tx)):
            assert list(clone.__dict__) == TX_FIELDS
            assert clone.tx_hash == tx.tx_hash and clone.verify_signature()
        receipt = TransactionReceipt(tx_hash=tx.tx_hash, success=True, result=np.arange(3.0))
        assert receipt.receipt_hash == hash_payload(receipt.to_dict())
        assert list(pickle.loads(pickle.dumps(receipt)).__dict__) == RECEIPT_FIELDS

    def test_a_forged_memo_in_a_pickled_state_is_ignored(self):
        honest = make_tx()
        tampered = {**honest.__getstate__(), "args": {"public_key": 6}}
        lies = {"tx_hash": honest.tx_hash, "_expected_signature": honest.signature}
        forged = pickle.loads(pickle.dumps(ForgedState(Transaction, {**tampered, **lies})))
        assert type(forged) is Transaction and list(forged.__dict__) == TX_FIELDS
        assert forged.tx_hash == hash_payload({**forged.body(), "signature": forged.signature})
        assert forged.tx_hash != honest.tx_hash
        assert not forged.verify_signature()
        with pytest.raises(InvalidTransactionError, match="bad signature"):
            forged.validate()
        receipt = TransactionReceipt(tx_hash="ab", success=True, result=1)
        state = {**receipt.__getstate__(), "result": 2, "receipt_hash": receipt.receipt_hash}
        forged_receipt = pickle.loads(pickle.dumps(ForgedState(TransactionReceipt, state)))
        assert list(forged_receipt.__dict__) == RECEIPT_FIELDS
        assert forged_receipt.receipt_hash == hash_payload(forged_receipt.to_dict())
        assert forged_receipt.receipt_hash != receipt.receipt_hash

    def test_a_state_missing_a_field_does_not_unpickle(self):
        state = make_tx().__getstate__()
        del state["signature"]
        with pytest.raises(KeyError):
            pickle.loads(pickle.dumps(ForgedState(Transaction, state)))

    def test_replace_never_inherits_a_memo(self):
        tx = make_tx()
        tx.validate()
        replaced = dataclasses.replace(tx, args={"public_key": 6})
        assert list(replaced.__dict__) == TX_FIELDS
        assert replaced.tx_hash != tx.tx_hash and not replaced.verify_signature()
        resigned = dataclasses.replace(tx, args={"public_key": 6}, signature="")
        assert resigned.verify_signature() and resigned.signature != tx.signature
        receipt = TransactionReceipt(tx_hash="ab", success=True, result=1)
        assert dataclasses.replace(receipt, result=2).receipt_hash != receipt.receipt_hash


class TestRecord:
    """``to_record`` is the one spelling of what is hashed, stored and sized."""

    def test_the_record_is_the_signed_body_plus_the_signature(self):
        tx = make_tx(args={"payload": np.arange(5, dtype=np.uint64), "round_number": 3}, nonce=2)
        assert tx.to_record() == {**tx.body(), "signature": tx.signature}
        assert list(tx.to_record()) == TX_FIELDS
        assert hash_payload(tx.to_record()) == tx.tx_hash

    def test_the_record_round_trips_through_its_canonical_bytes(self):
        tx = make_tx(args={"payload": np.arange(5, dtype=np.uint64), "key": 2**80, "raw": b"\x00\x01"})
        rebuilt = Transaction(**canonical_loads(canonical_dumps(tx.to_record())))
        assert rebuilt.tx_hash == tx.tx_hash and rebuilt.verify_signature()
        assert canonical_dumps(rebuilt.to_record()) == canonical_dumps(tx.to_record())


class TestTransactionReceipt:
    def test_to_dict_shape(self):
        receipt = TransactionReceipt(tx_hash="ab", success=True, result={"x": 1}, gas_used=10)
        payload = receipt.to_dict()
        assert payload["tx_hash"] == "ab"
        assert payload["success"] is True
        assert payload["gas_used"] == 10

    def test_failed_receipt_carries_error(self):
        receipt = TransactionReceipt(tx_hash="cd", success=False, error="boom")
        assert receipt.to_dict()["error"] == "boom"

    def test_events_round_trip_through_dict(self):
        receipt = TransactionReceipt(tx_hash="ef", success=True, events=({"name": "E", "data": {}},))
        assert receipt.to_dict()["events"] == [{"name": "E", "data": {}}]
