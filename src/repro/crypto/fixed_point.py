"""Fixed-point encoding of float vectors for additive masking.

Pairwise masks cancel exactly only if arithmetic happens in a finite ring, so
model updates (float64 vectors) are encoded into integers modulo ``2**field_bits``
before masking.  The codec supports *sums* of up to ``max_summands`` encoded
vectors: the decode step interprets the aggregate in a symmetric range wide
enough to hold the sum without wrap-around ambiguity.

Encoding: ``q = round(x * 2**precision_bits) mod M`` where negative values wrap
to the top of the ring (two's-complement style).
Decoding a sum of ``k`` encodings: values above ``M/2`` are interpreted as
negative, then divided by ``2**precision_bits``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import EncodingRangeError, ValidationError


@dataclass(frozen=True)
class FixedPointCodec:
    """Encode/decode float vectors as integers in Z_{2**field_bits}.

    Attributes:
        precision_bits: number of fractional bits; resolution is 2**-precision_bits.
        field_bits: ring size in bits; must be <= 64 so masks fit in uint64.
        max_summands: the largest number of encoded vectors that may be summed
            before decoding; bounds the representable magnitude per value.
    """

    precision_bits: int = 24
    field_bits: int = 64
    max_summands: int = 256

    def __post_init__(self) -> None:
        if not 1 <= self.precision_bits <= 52:
            raise ValidationError("precision_bits must be in [1, 52]")
        if not 16 <= self.field_bits <= 64:
            raise ValidationError("field_bits must be in [16, 64]")
        if self.max_summands < 1:
            raise ValidationError("max_summands must be positive")
        if self.precision_bits >= self.field_bits - 2:
            raise ValidationError("precision_bits must leave integer headroom in the field")

    @property
    def modulus(self) -> int:
        """The ring modulus M = 2**field_bits."""
        return 1 << self.field_bits

    @property
    def scale(self) -> int:
        """The fixed-point scale factor 2**precision_bits."""
        return 1 << self.precision_bits

    @property
    def max_abs_value(self) -> float:
        """Largest |x| a single vector may contain and still sum safely.

        The symmetric decode range is ``(-M/2, M/2)``; dividing by the scale and
        the maximum number of summands gives the per-value bound.
        """
        half_range = self.modulus // 2 - 1
        return half_range / (self.scale * self.max_summands)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Encode a float array into ring elements (dtype ``object`` ints avoided;
        uint64 is used since field_bits <= 64).

        Raises:
            EncodingRangeError: if any value exceeds :attr:`max_abs_value`.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.size and not np.all(np.isfinite(arr)):
            raise EncodingRangeError("cannot encode non-finite values")
        limit = self.max_abs_value
        if arr.size and np.max(np.abs(arr)) > limit:
            raise EncodingRangeError(
                f"value magnitude {np.max(np.abs(arr)):.4g} exceeds fixed-point bound {limit:.4g}"
            )
        scaled = np.rint(arr * self.scale).astype(np.int64)
        return scaled.astype(np.uint64) & np.uint64(self.modulus - 1) if self.field_bits < 64 else scaled.astype(np.uint64)

    def decode_sum(self, encoded_sum: np.ndarray, n_summands: int = 1) -> np.ndarray:
        """Decode an element-wise sum (mod M) of ``n_summands`` encoded vectors.

        Args:
            encoded_sum: uint64 array holding the ring sum.
            n_summands: how many encoded vectors were added; only used for a
                sanity check against :attr:`max_summands`.
        """
        if n_summands < 1:
            raise ValidationError("n_summands must be positive")
        if n_summands > self.max_summands:
            raise EncodingRangeError(
                f"{n_summands} summands exceeds codec capacity {self.max_summands}"
            )
        arr = np.ascontiguousarray(np.asarray(encoded_sum, dtype=np.uint64))
        if self.field_bits < 64:
            arr = arr & np.uint64(self.modulus - 1)
            # Values in the upper half of the ring represent negatives. Work in
            # int64 (exact for field_bits < 64) before converting to float.
            signed_int = arr.astype(np.int64)
            signed_int = np.where(arr >= np.uint64(self.modulus // 2), signed_int - self.modulus, signed_int)
            signed = signed_int.astype(np.float64)
        else:
            # For a full 64-bit field the int64 two's-complement view applies
            # the wrap exactly.
            signed = arr.view(np.int64).astype(np.float64)
        return signed / self.scale

    def sum_encoded(self, stacked: np.ndarray) -> np.ndarray:
        """Ring sum of a ``(k, d)`` stack of encoded/masked vectors in one reduction.

        Because the ring modulus divides 2**64, letting the uint64 sum wrap and
        reducing once at the end is exactly equal to folding :meth:`add` over
        the rows — but it is a single vectorized pass instead of k Python-level
        ring additions.
        """
        stacked = np.asarray(stacked, dtype=np.uint64)
        if stacked.ndim != 2:
            raise ValidationError("sum_encoded expects a (k, d) stack of ring vectors")
        with np.errstate(over="ignore"):
            total = stacked.sum(axis=0, dtype=np.uint64)
        if self.field_bits < 64:
            total = total & np.uint64(self.modulus - 1)
        return total

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Ring addition of two encoded/masked vectors."""
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        with np.errstate(over="ignore"):
            total = a + b
        if self.field_bits < 64:
            total = total & np.uint64(self.modulus - 1)
        return total

    def subtract(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Ring subtraction ``a - b`` of two encoded/masked vectors."""
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        with np.errstate(over="ignore"):
            diff = a - b
        if self.field_bits < 64:
            diff = diff & np.uint64(self.modulus - 1)
        return diff
