"""Tests for canonical serialization (repro.utils.serialization)."""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ValidationError
from repro.utils.serialization import canonical_dumps, canonical_loads, decode_array, encode_array


# ----------------------------------------------------------------------
# The oracle: the two-pass encoder ``canonical_dumps`` replaced.  Its first
# pass builds a JSON-ready tree, its second lets ``json.dumps`` write it.
# ----------------------------------------------------------------------

def _oracle_tree(value):
    if isinstance(value, np.ndarray):
        return _oracle_tree(encode_array(value))
    if isinstance(value, np.generic):
        return _oracle_tree(value.item())
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        if abs(value) > 2**53 - 1:
            return {"__bigint__": str(value)}
        return value
    if isinstance(value, dict):
        tree = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"canonical serialization requires string keys, got {type(key).__name__}")
            tree[key] = _oracle_tree(item)
        return tree
    if isinstance(value, (list, tuple)):
        return [_oracle_tree(item) for item in value]
    raise ValidationError(f"cannot canonically serialize value of type {type(value).__name__}")


def oracle_dumps(value) -> str:
    return json.dumps(_oracle_tree(value), sort_keys=True, separators=(",", ":"))


def outcome(dumps, value):
    """The text ``dumps`` writes, or the type and message of the error it raises."""
    try:
        return dumps(value)
    except ValidationError as exc:
        return type(exc), str(exc)


# Subclasses whose own hooks differ from the base type's: the oracle reads a
# big int through ``str`` and everything else through the base type.
class _Str(str):
    def __str__(self):
        return "not-the-text"


class _Int(int):
    def __repr__(self):
        return "not-the-number"

    def __str__(self):
        return "int:" + int.__repr__(self)


class _Float(float):
    def __repr__(self):
        return "not-the-number"


_EDGE_INTS = [0, 2**53 - 1, 2**53, 2**53 + 1, -(2**53 - 1), -(2**53), -(2**53) - 1, 2**64, -(2**100)]
_EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308]
_INTS = st.one_of(st.integers(), st.integers(-(2**80), 2**80), st.sampled_from(_EDGE_INTS))
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))


@st.composite
def _laid_out_arrays(draw):
    """Arrays of several dtypes and byte orders, 0-d included, in C, Fortran and strided layouts."""
    dtype = draw(st.sampled_from(["<f8", ">f8", "<f4", "<f2", "<i8", ">i4", "<u8", "|u1", "|b1", "<c16"]))
    arr = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)))
    layout = draw(st.sampled_from(["c", "fortran", "reversed", "transposed"]))
    if layout == "fortran":
        return np.asfortranarray(arr)
    if layout == "reversed" and arr.ndim:
        return arr[::-1, ...][::2]
    return arr.T if layout == "transposed" else arr


_NUMPY_SCALARS = st.one_of(
    st.integers(-128, 127).map(np.int8),
    st.integers(0, 2**64 - 1).map(np.uint64),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.text(max_size=4).map(np.str_),
    st.binary(max_size=4).map(np.bytes_),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), _INTS, _FLOATS, st.text(max_size=8), st.binary(max_size=8),
    st.text(max_size=4).map(_Str), _INTS.map(_Int), _FLOATS.map(_Float),
    _NUMPY_SCALARS, _laid_out_arrays(),
    st.sampled_from([
        np.array(3.5), np.zeros(2, dtype=[('q"\\é', "<i4"), ("b", ">f8")]),  # a dtype string to escape
        np.arange(0, 3, dtype="datetime64[s]"), np.array(["a", "bc"]),
    ]),
)


def _trees(leaves, keys=st.one_of(st.text(max_size=6), st.text(max_size=3).map(_Str))):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(keys, children, max_size=4),
        ),
        max_leaves=16,
    )


_POISON = st.sampled_from([object(), complex(1, 2), {1, 2}, bytearray(b"x"), np.complex128(1j),
                           np.datetime64("2020-01-01"), range(2)])
_ANY_KEY = st.one_of(st.text(max_size=3), st.integers(-2, 2), st.none(), st.binary(max_size=2),
                     st.tuples(st.integers(0, 2)))


class TestOnePassEqualsTheTwoPassOracle:
    @settings(max_examples=400, deadline=None)
    @given(_trees(_LEAVES))
    def test_canonical_dumps_writes_what_the_oracle_writes(self, value):
        assert canonical_dumps(value) == oracle_dumps(value)

    @settings(max_examples=300, deadline=None)
    @given(_trees(st.one_of(_LEAVES, _POISON), keys=_ANY_KEY))
    def test_errors_are_the_oracles_errors(self, value):
        # The first bad entry in insertion order is the one reported, by both.
        assert outcome(canonical_dumps, value) == outcome(oracle_dumps, value)

    @pytest.mark.parametrize("value", [
        {1: "a"}, {"a": 1, 2.5: 3}, {"a": object(), 1: 2}, {1: 2, "a": object()},
        [1, {"x": {None: 1}}], {b"k": 1}, {("t",): 1}, {"a": [1, {"b": complex(1, 1)}]},
        object(), np.complex128(1j), bytearray(b"x"), {1, 2}, np.datetime64("2020-01-01"),
        {_Str("k"): {"n": [object()]}},
    ])
    def test_non_str_keys_and_unsupported_types_raise_the_same_error(self, value):
        with pytest.raises(ValidationError) as expected:
            oracle_dumps(value)
        with pytest.raises(ValidationError) as got:
            canonical_dumps(value)
        assert type(got.value) is type(expected.value) and str(got.value) == str(expected.value)

    @pytest.mark.parametrize("value, text, digest", [
        (
            {"round": 0, "owner": "owner-1", "payload": np.arange(4, dtype=np.uint64), "n_samples": 80},
            '{"n_samples":80,"owner":"owner-1","payload":{"__ndarray__":"AAAAAAAAAAABAAAAAAAAAAIAAAAAAAAA'
            'AwAAAAAAAAA=","dtype":"uint64","shape":[4]},"round":0}',
            "f70b328fdc616e5e724c6a6074be25db550ff43fdc21a23c65391d18e670bf62",
        ),
        (
            [None, True, False, 0.1, -0.0, float("nan"), float("inf"), -float("inf"), 2**53 - 1, -(2**53)],
            '[null,true,false,0.1,-0.0,NaN,Infinity,-Infinity,9007199254740991,{"__bigint__":"-9007199254740992"}]',
            "897d2efee338998e78665e8874c2d16391d8c43c34ead5b13dbe6674ba44bb26",
        ),
        (
            {"é\"\n\\": "☃\U0001F600", "": []},
            '{"":[],"\\u00e9\\"\\n\\\\":"\\u2603\\ud83d\\ude00"}',
            "3b95fc8e3709c57ddbb6f51a49978008e1ad692a8751c7c297ffc5138be31f8f",
        ),
        (
            (b"\x00\xff", {}, ()),
            '[{"__bytes__":"AP8="},{},[]]',
            "56f2ceb517a626d781c2089998f05de979b615b0116bef9108f6e93f40788588",
        ),
        (
            np.asfortranarray(np.arange(6, dtype=">i2").reshape(2, 3)),
            '{"__ndarray__":"AAAAAQACAAMABAAF","dtype":">i2","shape":[2,3]}',
            "09e3a2fad642c23f3efcefcc0da4e34886bcb120ff3bda818d961408859d749f",
        ),
    ])
    def test_golden_strings(self, value, text, digest):
        assert canonical_dumps(value) == text == oracle_dumps(value)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


class TestCanonicalDumps:
    def test_dict_key_order_does_not_matter(self):
        assert canonical_dumps({"a": 1, "b": 2}) == canonical_dumps({"b": 2, "a": 1})

    def test_output_is_compact(self):
        text = canonical_dumps({"a": [1, 2, 3]})
        assert " " not in text

    def test_none_roundtrip(self):
        assert canonical_loads(canonical_dumps(None)) is None

    def test_bool_roundtrip(self):
        assert canonical_loads(canonical_dumps({"flag": True})) == {"flag": True}

    def test_nested_structures_roundtrip(self):
        obj = {"a": [1, 2, {"b": [3.5, "x"]}], "c": None}
        assert canonical_loads(canonical_dumps(obj)) == obj

    def test_bytes_roundtrip(self):
        obj = {"blob": b"\x00\x01\xffhello"}
        assert canonical_loads(canonical_dumps(obj)) == obj

    def test_big_int_roundtrip(self):
        value = 2**521 - 1
        assert canonical_loads(canonical_dumps({"k": value})) == {"k": value}

    def test_small_int_stays_plain_json_number(self):
        assert canonical_dumps(42) == "42"

    def test_tuple_becomes_list(self):
        assert canonical_loads(canonical_dumps((1, 2))) == [1, 2]

    def test_numpy_scalar_is_serialized_as_python_number(self):
        assert canonical_loads(canonical_dumps({"x": np.int64(7)})) == {"x": 7}

    def test_non_string_keys_rejected(self):
        with pytest.raises(ValidationError):
            canonical_dumps({1: "a"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(ValidationError):
            canonical_dumps({"x": object()})

    def test_determinism_across_calls(self):
        obj = {"z": [1, 2], "a": {"nested": True}}
        assert canonical_dumps(obj) == canonical_dumps(obj)


class TestArrayEncoding:
    def test_roundtrip_float_array(self):
        arr = np.array([[1.5, -2.25], [0.0, 1e-30]])
        assert np.array_equal(decode_array(encode_array(arr)), arr)

    def test_roundtrip_preserves_dtype(self):
        arr = np.arange(10, dtype=np.uint64)
        decoded = decode_array(encode_array(arr))
        assert decoded.dtype == np.uint64
        assert np.array_equal(decoded, arr)

    def test_roundtrip_preserves_shape(self):
        arr = np.zeros((3, 4, 5))
        assert decode_array(encode_array(arr)).shape == (3, 4, 5)

    def test_roundtrip_through_canonical_json(self):
        arr = np.linspace(-1, 1, 17)
        restored = canonical_loads(canonical_dumps({"w": arr}))["w"]
        assert np.array_equal(restored, arr)

    def test_decode_rejects_non_array_payload(self):
        with pytest.raises(ValidationError):
            decode_array({"dtype": "float64", "shape": [1]})

    def test_nan_and_inf_roundtrip_bit_exact(self):
        arr = np.array([np.nan, np.inf, -np.inf, 0.0])
        decoded = decode_array(encode_array(arr))
        assert np.array_equal(decoded, arr, equal_nan=True)

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.float64, np.int64, np.uint64]),
            shape=hnp.array_shapes(max_dims=3, max_side=6),
            elements=st.integers(min_value=0, max_value=1000),
        )
    )
    def test_property_roundtrip_any_array(self, arr):
        decoded = canonical_loads(canonical_dumps({"a": arr}))["a"]
        assert decoded.dtype == arr.dtype
        assert np.array_equal(decoded, arr)

    @settings(max_examples=50, deadline=None)
    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**60), max_value=2**60),
                st.floats(allow_nan=False, allow_infinity=False, width=32).map(float),
                st.text(max_size=12),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=6), children, max_size=4),
            ),
            max_leaves=12,
        )
    )
    def test_property_roundtrip_json_like_objects(self, obj):
        assert canonical_loads(canonical_dumps(obj)) == obj

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(st.text(min_size=1, max_size=8), st.integers(-5, 5), min_size=1, max_size=6)
    )
    def test_property_hash_stability_under_key_insertion_order(self, mapping):
        reversed_mapping = dict(reversed(list(mapping.items())))
        assert canonical_dumps(mapping) == canonical_dumps(reversed_mapping)
