"""Tests for fixed-point encoding (repro.crypto.fixed_point)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.fixed_point import FixedPointCodec
from repro.exceptions import EncodingRangeError, ValidationError


class TestCodecConstruction:
    def test_default_parameters(self):
        codec = FixedPointCodec()
        assert codec.modulus == 2**64
        assert codec.scale == 2**24

    def test_rejects_bad_precision(self):
        with pytest.raises(ValidationError):
            FixedPointCodec(precision_bits=0)
        with pytest.raises(ValidationError):
            FixedPointCodec(precision_bits=60)

    def test_rejects_bad_field(self):
        with pytest.raises(ValidationError):
            FixedPointCodec(field_bits=8)
        with pytest.raises(ValidationError):
            FixedPointCodec(field_bits=80)

    def test_rejects_precision_without_headroom(self):
        with pytest.raises(ValidationError):
            FixedPointCodec(precision_bits=31, field_bits=32)

    @pytest.mark.parametrize("precision_bits, field_bits", [(1, 16), (13, 16), (52, 64)])
    def test_the_edges_of_the_parameter_ranges_are_accepted(self, precision_bits, field_bits):
        codec = FixedPointCodec(precision_bits=precision_bits, field_bits=field_bits)
        assert (codec.scale, codec.modulus) == (2**precision_bits, 2**field_bits)

    @pytest.mark.parametrize("precision_bits, field_bits", [(53, 64), (8, 15), (8, 65)])
    def test_just_outside_the_parameter_ranges_is_rejected(self, precision_bits, field_bits):
        with pytest.raises(ValidationError, match="must be in"):
            FixedPointCodec(precision_bits=precision_bits, field_bits=field_bits)

    def test_headroom_boundary(self):
        with pytest.raises(ValidationError, match="headroom"):
            FixedPointCodec(precision_bits=14, field_bits=16)

    def test_max_summands_must_be_positive(self):
        with pytest.raises(ValidationError, match="max_summands"):
            FixedPointCodec(max_summands=0)

    def test_a_single_summand_codec_decodes_by_default(self):
        codec = FixedPointCodec(max_summands=1)
        assert codec.decode_sum(codec.encode(np.array([-2.5])))[0] == -2.5

    def test_default_capacity_is_256_summands(self):
        codec = FixedPointCodec()
        assert codec.decode_sum(np.zeros(2, dtype=np.uint64), n_summands=256).tolist() == [0.0, 0.0]
        with pytest.raises(EncodingRangeError):
            codec.decode_sum(np.zeros(2, dtype=np.uint64), n_summands=257)

    @pytest.mark.parametrize("field_bits", [16, 32, 64])
    def test_max_abs_value_is_the_half_ring_shared_by_every_summand(self, field_bits):
        codec = FixedPointCodec(precision_bits=8, field_bits=field_bits, max_summands=4)
        assert codec.max_abs_value == (2 ** (field_bits - 1) - 1) / (2**8 * 4)

    def test_max_abs_value_scales_with_summands(self):
        small = FixedPointCodec(max_summands=2)
        large = FixedPointCodec(max_summands=200)
        assert small.max_abs_value > large.max_abs_value


class TestEncodeDecode:
    def test_roundtrip_small_values(self):
        codec = FixedPointCodec()
        values = np.array([0.0, 1.0, -1.0, 0.5, -0.25, 3.14159])
        decoded = codec.decode_sum(codec.encode(values))
        assert np.allclose(decoded, values, atol=2.0 / codec.scale)

    def test_resolution_is_one_over_scale(self):
        codec = FixedPointCodec(precision_bits=16)
        value = np.array([1.0 / codec.scale])
        assert codec.decode_sum(codec.encode(value))[0] == pytest.approx(value[0])

    def test_rejects_values_beyond_range(self):
        codec = FixedPointCodec(precision_bits=24, field_bits=32, max_summands=4)
        with pytest.raises(EncodingRangeError):
            codec.encode(np.array([codec.max_abs_value * 2]))

    def test_the_bound_itself_encodes(self):
        codec = FixedPointCodec(precision_bits=4, field_bits=16, max_summands=2)
        bound = codec.max_abs_value
        decoded = codec.decode_sum(codec.encode(np.array([bound, -bound])))
        assert np.allclose(decoded, [bound, -bound], atol=1.0 / codec.scale)
        with pytest.raises(EncodingRangeError):
            codec.encode(np.array([np.nextafter(bound, np.inf)]))

    def test_rejects_non_finite(self):
        codec = FixedPointCodec()
        with pytest.raises(EncodingRangeError):
            codec.encode(np.array([np.nan]))

    def test_empty_vector(self):
        codec = FixedPointCodec()
        assert codec.decode_sum(codec.encode(np.array([]))).size == 0

    def test_decode_sum_rejects_too_many_summands(self):
        codec = FixedPointCodec(max_summands=4)
        with pytest.raises(EncodingRangeError):
            codec.decode_sum(np.zeros(3, dtype=np.uint64), n_summands=5)

    def test_decode_sum_rejects_non_positive_summands(self):
        codec = FixedPointCodec()
        with pytest.raises(ValidationError):
            codec.decode_sum(np.zeros(3, dtype=np.uint64), n_summands=0)

    def test_sum_of_encodings_decodes_to_sum(self):
        codec = FixedPointCodec()
        a = np.array([1.5, -2.0, 0.125])
        b = np.array([-0.5, 3.0, 10.0])
        total = codec.add(codec.encode(a), codec.encode(b))
        assert np.allclose(codec.decode_sum(total, 2), a + b, atol=4.0 / codec.scale)

    def test_subtract_inverts_add(self):
        codec = FixedPointCodec()
        a = codec.encode(np.array([0.25, -4.0]))
        b = codec.encode(np.array([1.0, 2.0]))
        assert np.array_equal(codec.subtract(codec.add(a, b), b), a)

    def test_smaller_field_wraps_consistently(self):
        codec = FixedPointCodec(precision_bits=10, field_bits=32, max_summands=8)
        values = np.array([5.0, -7.25])
        assert np.allclose(codec.decode_sum(codec.encode(values)), values, atol=2.0 / codec.scale)


class TestNarrowFields:
    """Fields under 64 bits reduce every ring result mod 2**field_bits."""

    @staticmethod
    def _codec(field_bits):
        return FixedPointCodec(precision_bits=4, field_bits=field_bits, max_summands=8)

    @staticmethod
    def _pair(field_bits):
        rng = np.random.default_rng(field_bits)
        return rng.integers(0, 2**field_bits, size=(2, 5), dtype=np.uint64)

    @pytest.mark.parametrize("field_bits", [16, 32, 48])
    def test_add_is_addition_mod_the_ring(self, field_bits):
        a, b = self._pair(field_bits)
        expected = [(int(x) + int(y)) % 2**field_bits for x, y in zip(a, b)]
        assert self._codec(field_bits).add(a, b).tolist() == expected

    @pytest.mark.parametrize("field_bits", [16, 32, 48])
    def test_subtract_is_subtraction_mod_the_ring(self, field_bits):
        a, b = self._pair(field_bits)
        expected = [(int(x) - int(y)) % 2**field_bits for x, y in zip(a, b)]
        assert self._codec(field_bits).subtract(a, b).tolist() == expected

    @pytest.mark.parametrize("field_bits", [16, 32])
    def test_decode_ignores_bits_above_the_field(self, field_bits):
        codec = self._codec(field_bits)
        encoded = codec.encode(np.array([1.5625, -3.3125]))
        lifted = encoded + np.uint64(5 << field_bits)
        assert codec.decode_sum(lifted).tolist() == [1.5625, -3.3125]

    @pytest.mark.parametrize("field_bits", [16, 32])
    def test_the_upper_half_of_the_ring_decodes_negative(self, field_bits):
        codec, half = self._codec(field_bits), 2 ** (field_bits - 1)
        decoded = codec.decode_sum(np.array([half - 1, half], dtype=np.uint64))
        assert decoded.tolist() == [(half - 1) / 16, -half / 16]


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=32),
        st.sampled_from([16, 20, 24]),
        st.sampled_from([48, 64]),
    )
    def test_property_roundtrip_within_resolution(self, values, precision_bits, field_bits):
        codec = FixedPointCodec(precision_bits=precision_bits, field_bits=field_bits, max_summands=64)
        arr = np.array(values)
        decoded = codec.decode_sum(codec.encode(arr))
        assert np.allclose(decoded, arr, atol=1.5 / codec.scale)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=4),
            min_size=2,
            max_size=8,
        )
    )
    def test_property_ring_sum_equals_real_sum(self, vectors):
        codec = FixedPointCodec()
        arrays = [np.array(vector) for vector in vectors]
        total = codec.encode(np.zeros(4))
        for array in arrays:
            total = codec.add(total, codec.encode(array))
        expected = np.sum(arrays, axis=0)
        tolerance = (len(arrays) + 1) / codec.scale
        assert np.allclose(codec.decode_sum(total, len(arrays) + 1), expected, atol=tolerance)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=16))
    def test_property_add_subtract_roundtrip(self, values):
        codec = FixedPointCodec()
        rng = np.random.default_rng(0)
        mask = rng.integers(0, 2**63, size=len(values), dtype=np.uint64)
        encoded = codec.encode(np.array(values))
        assert np.array_equal(codec.subtract(codec.add(encoded, mask), mask), encoded)
