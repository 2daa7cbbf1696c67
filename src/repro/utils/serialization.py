"""Canonical, deterministic serialization used throughout the blockchain layer.

Transactions, blocks, and contract state must hash identically on every miner,
so all on-chain payloads are serialized with a *canonical* JSON encoding:
sorted keys, no insignificant whitespace, ASCII-only strings, and explicit
encodings for the few non-JSON types we need (bytes, big integers, NumPy arrays).

A NumPy array is stored as a dict whose sentinel key ``__ndarray__`` holds the
base64 of its C-ordered ``tobytes()`` in the array's own byte order, tagged
with its dtype string and shape, so decoding restores an identical array.
Floats are written by ``float.__repr__``, which round-trips exactly for float64.

:func:`canonical_dumps` writes the text in one pass, one writer per exact type:
strings go through ``encode_basestring_ascii`` and an array's base64 is spliced
in unescaped (its alphabet needs no escaping).
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

from repro.exceptions import ValidationError

_NDARRAY_KEY = "__ndarray__"
_BYTES_KEY = "__bytes__"
_INT_KEY = "__bigint__"

# JSON numbers lose precision beyond 2**53; integers larger than this (e.g. DH
# public keys) are encoded as decimal strings under a sentinel key.
_MAX_SAFE_INT = 2**53 - 1

_escape = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def encode_array(array: np.ndarray) -> dict[str, Any]:
    """Encode a NumPy array into a JSON-compatible dict.

    The C-ordered ``tobytes()`` in the array's own byte order is base64
    encoded and tagged with its dtype string and shape, which round-trips
    bit-exactly (important for hashing model updates).
    """
    arr = np.ascontiguousarray(array)
    return {
        _NDARRAY_KEY: base64.b64encode(arr.tobytes()).decode("ascii"),
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
    }


def decode_array(payload: dict[str, Any]) -> np.ndarray:
    """Decode an array previously encoded with :func:`encode_array`."""
    if _NDARRAY_KEY not in payload:
        raise ValidationError("payload is not an encoded ndarray")
    raw = base64.b64decode(payload[_NDARRAY_KEY])
    arr = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return arr.reshape(payload["shape"]).copy()


def _emit_int(value: int) -> str:
    if abs(value) > _MAX_SAFE_INT:
        return _emit_dict({_INT_KEY: str(value)})
    return int.__repr__(value)


def _emit_float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _emit_dict(value: dict) -> str:
    # Keys are checked and values written in insertion order, so the first bad
    # entry is the one reported; the written members are then sorted by key.
    members = []
    for key, item in value.items():
        if not isinstance(key, str):
            raise ValidationError(f"canonical serialization requires string keys, got {type(key).__name__}")
        members.append((key, canonical_dumps(item)))
    members.sort()
    return "{" + ",".join([_escape(key) + ":" + text for key, text in members]) + "}"


def _emit_list(value: list | tuple) -> str:
    return "[" + ",".join([canonical_dumps(item) for item in value]) + "]"


def _emit_array(value: np.ndarray) -> str:
    record = encode_array(value)  # its three keys, written in sorted order
    return (
        '{"' + _NDARRAY_KEY + '":"' + record[_NDARRAY_KEY] + '","dtype":' + _escape(record["dtype"])
        + ',"shape":' + _emit_list(record["shape"]) + "}"
    )


def _emit_subclass(value: Any) -> str:
    """Subclasses, NumPy scalars and bytes, by ``isinstance`` in the two-pass encoder's order."""
    if isinstance(value, np.ndarray):
        return _emit_array(value)
    if isinstance(value, np.generic):
        return canonical_dumps(value.item())
    if isinstance(value, bytes):
        return _emit_dict({_BYTES_KEY: base64.b64encode(value).decode("ascii")})
    for base in (str, float, int, dict, list, tuple):
        if isinstance(value, base):
            return _EXACT[base](value)
    raise ValidationError(f"cannot canonically serialize value of type {type(value).__name__}")


# One writer per exact type; anything else goes through `_emit_subclass`.
_EXACT = {
    str: _escape, dict: _emit_dict, list: _emit_list, tuple: _emit_list, int: _emit_int,
    float: _emit_float, np.ndarray: _emit_array, bool: lambda flag: "true" if flag else "false",
    type(None): lambda _: "null",
}


def canonical_dumps(obj: Any) -> str:
    """Serialize ``obj`` to a canonical JSON string.

    The output is deterministic: keys sorted, compact separators, arrays and
    bytes base64 encoded. Two structurally equal objects always produce the
    same string, so the string can be hashed for on-chain commitments.
    """
    return _EXACT.get(type(obj), _emit_subclass)(obj)


def _decode_value(value: Any) -> Any:
    """Inverse of the sentinel encodings :func:`canonical_dumps` writes."""
    if isinstance(value, dict):
        if _NDARRAY_KEY in value:
            return decode_array(value)
        if _BYTES_KEY in value:
            return base64.b64decode(value[_BYTES_KEY])
        if _INT_KEY in value:
            return int(value[_INT_KEY])
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def canonical_loads(text: str) -> Any:
    """Deserialize a canonical JSON string produced by :func:`canonical_dumps`."""
    return _decode_value(json.loads(text))


def freeze_value(value: Any) -> Any:
    """A canonical value with its containers rebuilt and its arrays read-only.

    An array that is read-only and owns its memory is shared as is; any other
    (writable, or a view) is copied once and frozen, so no holder can change
    what another holds.  Setting ``writeable`` back on a shared array is misuse.
    """
    if isinstance(value, dict):
        return {key: freeze_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [freeze_value(item) for item in value]
    if isinstance(value, tuple):
        return tuple(freeze_value(item) for item in value)
    if isinstance(value, np.ndarray) and (value.flags.writeable or value.base is not None):
        value = value.copy()
        value.flags.writeable = False
    return value
