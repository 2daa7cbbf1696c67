"""Tests for hashing helpers (repro.utils.hashing)."""

from __future__ import annotations

import numpy as np

from repro.utils.hashing import hash_concat, hash_payload, sha256_hex


class TestSha256:
    def test_known_vector(self):
        # SHA-256 of the empty string is a well-known constant.
        assert sha256_hex(b"") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

    def test_str_and_bytes_agree(self):
        assert sha256_hex("abc") == sha256_hex(b"abc")

    def test_hex_digest_length(self):
        assert len(sha256_hex("anything")) == 64


class TestHashPayload:
    def test_equal_payloads_hash_equal(self):
        assert hash_payload({"a": 1, "b": [2, 3]}) == hash_payload({"b": [2, 3], "a": 1})

    def test_different_payloads_hash_differently(self):
        assert hash_payload({"a": 1}) != hash_payload({"a": 2})

    def test_array_payloads_hash_by_content(self):
        a = np.arange(5, dtype=np.float64)
        assert hash_payload({"w": a}) == hash_payload({"w": a.copy()})

    def test_array_dtype_affects_hash(self):
        a64 = np.arange(5, dtype=np.float64)
        a32 = np.arange(5, dtype=np.float32)
        assert hash_payload({"w": a64}) != hash_payload({"w": a32})


class TestHashConcat:
    def test_order_matters(self):
        h1, h2 = sha256_hex("a"), sha256_hex("b")
        assert hash_concat([h1, h2]) != hash_concat([h2, h1])

    def test_single_element(self):
        h = sha256_hex("a")
        assert hash_concat([h]) == sha256_hex(h)
