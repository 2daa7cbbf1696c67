"""Shared utilities: canonical serialization, hashing, RNG management."""

from repro.utils.hashing import sha256_hex, hash_payload, hash_concat
from repro.utils.rng import RngRegistry, derive_seed, spawn_rng
from repro.utils.serialization import canonical_dumps, canonical_loads, encode_array, decode_array

__all__ = [
    "sha256_hex",
    "hash_payload",
    "hash_concat",
    "RngRegistry",
    "derive_seed",
    "spawn_rng",
    "canonical_dumps",
    "canonical_loads",
    "encode_array",
    "decode_array",
]
