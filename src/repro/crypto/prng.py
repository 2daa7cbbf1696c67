"""Deterministic pseudorandom generation for mask expansion.

The paper writes ``PRNG(g^ab, r) -> m_ab^r``: a pseudorandom number generator
keyed by the pairwise Diffie–Hellman secret and the round number produces the
mask vector.  The PRNG is SHAKE-256 used as an extendable-output function: one
``hashlib`` call per mask squeezes the whole vector, deterministic and platform
independent, read as little-endian 64-bit words and reduced into the ring.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.exceptions import MaskingError, ValidationError

PAIR_MASK_DOMAIN = b"repro/pair-mask"


def expand_masks(
    secrets: Sequence[bytes],
    round_number: int,
    length: int,
    modulus: int,
    domain: bytes = PAIR_MASK_DOMAIN,
) -> np.ndarray:
    """Expand ``k`` secrets into a ``(k, length)`` stack of mask vectors.

    Row ``i`` is ``shake_256(domain ‖ secrets[i] ‖ round_number as 8
    big-endian bytes).digest(8 * length)`` read as ``<u8`` words and reduced
    into ``[0, modulus)``.  The domain label separates mask families (pair
    masks, self masks) keyed by equal bytes.

    Args:
        secrets: non-empty byte strings, e.g. the 32-byte shared secrets from
            :func:`repro.crypto.dh.shared_secret`.
        round_number: the FL round ``r``; each round produces independent masks.
        length: number of mask elements (the flattened model dimension).
        modulus: a power of two in ``[2, 2**64]`` — the ring every
            :class:`~repro.crypto.fixed_point.FixedPointCodec` uses.
    """
    if length < 0:
        raise ValidationError("mask length must be non-negative")
    if not 0 <= round_number < 2**64:
        raise ValidationError("round_number must be in [0, 2**64)")
    if not 2 <= modulus <= 2**64 or modulus & (modulus - 1):
        raise MaskingError("modulus must be a power of two in [2, 2**64]")
    for secret in secrets:
        if not isinstance(secret, (bytes, bytearray)) or len(secret) == 0:
            raise ValidationError("mask secret must be non-empty bytes")
    suffix = int(round_number).to_bytes(8, "big")
    stream = b"".join(
        hashlib.shake_256(domain + secret + suffix).digest(8 * length) for secret in secrets
    )
    words = np.frombuffer(stream, dtype="<u8").reshape(len(secrets), length)
    # A power-of-two modulus divides 2**64, so keeping the low bits of a
    # uniform 64-bit word is exactly uniform in the ring: no modulo bias.
    # The ``&`` also makes the writable copy ``frombuffer`` does not give.
    return words & np.uint64(modulus - 1)


def expand_mask(secret: bytes, round_number: int, length: int, modulus: int) -> np.ndarray:
    """The pair mask ``m_ab^r``: :func:`expand_masks` for one secret, shape ``(length,)``."""
    return expand_masks([secret], round_number, length, modulus)[0]
