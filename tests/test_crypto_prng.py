"""Tests for the SHAKE-256 mask expansion (repro.crypto.prng)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prng import expand_mask, expand_masks
from repro.exceptions import MaskingError, ValidationError


class TestExpandMask:
    def test_deterministic(self):
        a = expand_mask(b"\x07" * 32, 3, 100, 2**64)
        b = expand_mask(b"\x07" * 32, 3, 100, 2**64)
        assert np.array_equal(a, b)

    def test_round_dependence(self):
        a = expand_mask(b"\x07" * 32, 3, 100, 2**64)
        b = expand_mask(b"\x07" * 32, 4, 100, 2**64)
        assert not np.array_equal(a, b)

    def test_secret_dependence(self):
        a = expand_mask(b"\x07" * 32, 3, 100, 2**64)
        b = expand_mask(b"\x08" * 32, 3, 100, 2**64)
        assert not np.array_equal(a, b)

    def test_length_zero(self):
        assert expand_mask(b"\x07" * 32, 0, 0, 2**64).size == 0

    def test_respects_modulus(self):
        mask = expand_mask(b"\x07" * 32, 0, 1000, 2**32)
        assert np.all(mask < 2**32)

    def test_rejects_bad_modulus(self):
        with pytest.raises(MaskingError):
            expand_mask(b"\x07" * 32, 0, 10, 1)

    @pytest.mark.parametrize("modulus", [3 * 2**20, 2**64 - 1, 2**65])
    def test_rejects_modulus_not_a_power_of_two_in_range(self, modulus):
        # Only a modulus dividing 2**64 reduces a 64-bit word without bias.
        with pytest.raises(MaskingError):
            expand_mask(b"\x07" * 32, 0, 10, modulus)

    def test_rejects_negative_round(self):
        with pytest.raises(ValidationError):
            expand_mask(b"\x07" * 32, -1, 10, 2**64)

    def test_rejects_negative_length(self):
        with pytest.raises(ValidationError):
            expand_mask(b"\x07" * 32, 0, -5, 2**64)

    def test_values_look_uniform(self):
        # Coarse sanity check: the mean of 64-bit uniform values should be near 2**63.
        mask = expand_mask(b"\x07" * 32, 0, 5000, 2**64).astype(np.float64)
        assert abs(mask.mean() / 2**63 - 1.0) < 0.05

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=128))
    def test_property_deterministic_for_any_round_and_length(self, round_number, length):
        a = expand_mask(b"\x42" * 32, round_number, length, 2**64)
        b = expand_mask(b"\x42" * 32, round_number, length, 2**64)
        assert np.array_equal(a, b)
        assert a.size == length


class TestOnChainFormat:
    """Masked payloads are on chain, so the expansion is a format: pin it."""

    KNOWN_ANSWER = "66c6dc196cf6198e7bc45d2d60830eeb0415e8b70fb5190553823faa5db2b087"

    def test_known_answer(self):
        raw = expand_mask(b"\x07" * 32, 3, 68, 2**64).tobytes()
        assert hashlib.sha256(raw).hexdigest() == self.KNOWN_ANSWER

    def test_is_one_bare_shake_256_call(self):
        stream = hashlib.shake_256(
            b"repro/pair-mask" + b"\x07" * 32 + (3).to_bytes(8, "big")
        ).digest(8 * 68)
        assert expand_mask(b"\x07" * 32, 3, 68, 2**64).tobytes() == stream
        narrow = np.frombuffer(stream, dtype="<u8") % np.uint64(2**48)
        assert np.array_equal(expand_mask(b"\x07" * 32, 3, 68, 2**48), narrow)


class TestExpandMasks:
    @pytest.mark.parametrize("k", [0, 1, 31])
    def test_rows_equal_single_expansions(self, k):
        secrets = [bytes([i + 1]) * 32 for i in range(k)]
        stack = expand_masks(secrets, 5, 17, 2**48)
        assert stack.shape == (k, 17) and stack.dtype == np.uint64
        for row, secret in zip(stack, secrets):
            assert np.array_equal(row, expand_mask(secret, 5, 17, 2**48))

    def test_rejects_empty_secret(self):
        # The check HmacDrbg.__init__ used to make, now once per batch row.
        with pytest.raises(ValidationError):
            expand_masks([b"\x01" * 32, b""], 0, 4, 2**64)
        with pytest.raises(ValidationError):
            expand_mask(b"", 0, 4, 2**64)

    @pytest.mark.parametrize("bad", ["not-bytes", None, 7])
    def test_rejects_non_bytes_secret(self, bad):
        with pytest.raises(ValidationError):
            expand_masks([b"\x01" * 32, bad], 0, 4, 2**64)

    def test_rejects_round_that_does_not_fit_eight_bytes(self):
        with pytest.raises(ValidationError):
            expand_masks([b"\x01" * 32], 2**64, 4, 2**64)

    def test_domain_separates_equal_secrets(self):
        pair = expand_masks([b"\x01" * 32], 0, 8, 2**64)
        other = expand_masks([b"\x01" * 32], 0, 8, 2**64, domain=b"repro/self-mask")
        assert not np.array_equal(pair, other)

    def test_result_is_writable(self):
        stack = expand_masks([b"\x01" * 32], 0, 8, 2**64)
        stack[0, 0] = 0
        assert stack[0, 0] == 0
