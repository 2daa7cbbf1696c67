"""Hashing helpers shared by the blockchain and crypto layers."""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

from repro.utils.serialization import canonical_dumps


def sha256_hex(data: bytes | str) -> str:
    """Return the hex-encoded SHA-256 digest of ``data``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def hash_payload(payload: Any) -> str:
    """Hash an arbitrary payload via its canonical serialization.

    This is the single hashing entry point for transactions, contract state,
    and model commitments, so equal payloads hash equally on every node.
    """
    return sha256_hex(canonical_dumps(payload))


def hash_concat(parts: Iterable[str]) -> str:
    """Hash the concatenation of already-hex hashes (used by Merkle trees)."""
    joined = "".join(parts)
    return sha256_hex(joined)
