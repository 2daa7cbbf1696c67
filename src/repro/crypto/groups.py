"""Multiplicative group parameters for Diffie–Hellman key agreement.

The secure-aggregation scheme in the paper is "based on discrete logarithm
cryptography": every user publishes ``g**a mod p`` and derives pairwise
Diffie–Hellman keys.  This module provides the group parameters ``(p, g)``:

* the standard RFC 3526 MODP groups (1536/2048/3072 bit), hard-coded, which a
  production deployment would use, and
* a deterministic safe-prime generator for small parameter sizes so the test
  suite can exercise the full protocol quickly without multi-thousand-bit
  arithmetic dominating runtime.

Primality testing uses deterministic Miller–Rabin bases for 64-bit inputs and
a fixed set of rounds (sufficient for our deterministic generator) above that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import CryptoError, ValidationError
from repro.utils.rng import derive_seed

# RFC 3526 groups. The generator is 2 for all of them.
_MODP_1536_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"
)

_MODP_2048_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF"
)

_MODP_3072_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33"
    "A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7"
    "ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864"
    "D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2"
    "08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF"
)


@dataclass(frozen=True)
class GroupParameters:
    """Parameters of a multiplicative group modulo a prime.

    Attributes:
        prime: the modulus ``p`` (a safe prime for the built-in groups).
        generator: the group generator ``g``.
        name: human-readable identifier (e.g. ``"modp-2048"``).
    """

    prime: int
    generator: int
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.prime <= 3:
            raise ValidationError("group prime must exceed 3")
        if not 1 < self.generator < self.prime:
            raise ValidationError("generator must lie strictly between 1 and the prime")

    @property
    def bit_length(self) -> int:
        """Number of bits in the modulus."""
        return self.prime.bit_length()

    def power(self, base: int, exponent: int) -> int:
        """Compute ``base ** exponent mod p``."""
        return pow(base, exponent, self.prime)

    @property
    def n_limbs(self) -> int:
        """27-bit limbs per value in :meth:`power_limbs` rows: ``R = 2**(27 L) >= 4p``."""
        return -(-(self.prime.bit_length() + 2) // _LIMB)

    def generator_powers(self, exponents: Sequence[int]) -> list[int]:
        """``[pow(g, x, p) for x in exponents]`` for x below p: a fixed-base comb, one multiply a 6-bit window."""
        prime, base, powers = self.prime, self.generator, [1] * len(exponents)
        for shift in range(0, prime.bit_length(), 6):
            row, base = [pow(base, j, prime) for j in range(64)], pow(base, 64, prime)  # row[j] = g**(j 2**shift)
            powers = [power * row[x >> shift & 63] % prime for power, x in zip(powers, exponents)]
        return powers

    def power_limbs(self, bases: np.ndarray, exponents: np.ndarray) -> np.ndarray:
        """Lane ``j``'s ``bases[:, j] ** exponents[:, j] mod p`` on :func:`limbs` rows, bases and powers below p.

        Left to right in 3-bit windows over Montgomery form.  Exponents (any number of rows) are not
        reduced mod q: on a base outside the subgroup that would change the value."""
        prime, (n_limbs, n) = self.prime, bases.shape
        if n_limbs >= 1 << 9:
            raise ValidationError("power_limbs takes p below 2**13795")
        modulus, r_squared, one = (limbs([v], n_limbs) for v in (prime, pow(2, 2 * _LIMB * n_limbs, prime), 1))
        p_inv, limb, mask = (np.uint64(v) for v in (-pow(prime, -1, 1 << _LIMB) % (1 << _LIMB), _LIMB, _LIMB_MASK))
        window_mask = np.uint64((1 << _WINDOW) - 1)

        def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            # a b / R mod p, limb j of every lane in row j: with R >= 4p, operands
            # below 2p give a result below 2p, and no row outgrows uint64.
            t = np.zeros((2 * n_limbs, a.shape[1]), dtype=np.uint64)
            for i in range(n_limbs):
                t[i : i + n_limbs] += a[i] * b
                t[i : i + n_limbs] += modulus * (t[i] * p_inv & mask)
                t[i + 1] += t[i] >> limb  # t[i] is now a multiple of 2**27
            for row in range(n_limbs, 2 * n_limbs - 1):
                t[row + 1] += t[row] >> limb
                t[row] &= mask
            return t[n_limbs:]

        table = np.empty((n_limbs, 1 << _WINDOW, n), dtype=np.uint64)  # each lane's b**k R, k < 2**w
        table[:, 0] = mul(one, r_squared)
        table[:, 1] = mul(bases, r_squared)
        for k in range(2, 1 << _WINDOW):
            table[:, k] = mul(table[:, k - 1], table[:, 1])
        acc, table, lanes = table[:, 0], table.reshape(n_limbs, -1), np.arange(n)
        bits = max((_LIMB * j + int(row.max()).bit_length() for j, row in enumerate(exponents) if row.any()), default=0)
        for k in range(max(1, -(-bits // _WINDOW)) - 1, -1, -1):
            row, shift = divmod(_WINDOW * k, _LIMB)  # 3-bit windows tile a 27-bit limb
            window = exponents[row] >> np.uint64(shift) & window_mask
            entry = np.take(table, window.astype(np.intp) * n + lanes, axis=1)
            for _ in range(_WINDOW):
                acc = mul(acc, acc)
            # The last multiply takes its entry out of Montgomery form, leaving the power in [0, 2p).
            acc = mul(acc, mul(entry, one) if k == 0 else entry)
        diff = acc.astype(np.int64) - modulus.astype(np.int64)  # acc - p, borrowing: a negative limb >> 27 is -1
        for row in range(n_limbs - 1):
            diff[row + 1] += diff[row] >> _LIMB
            diff[row] &= _LIMB_MASK
        return np.where(diff[-1] < 0, acc, diff.view(np.uint64))  # acc where acc - p went negative

    def element_from_seed(self, *parts: object) -> int:
        """Derive a deterministic exponent in ``[2, p - 2]`` from label parts.

        Used to generate private keys reproducibly in simulations; a production
        deployment would draw from an OS CSPRNG instead.
        """
        seed = derive_seed(*parts)
        span = self.prime - 3
        return 2 + (seed % span)


#: :meth:`GroupParameters.power_limbs` works on 27-bit limbs, so a uint64 row can
#: take two limb products a step for 2**9 steps, and on 3-bit windows (~97
#: multiplies at 65 bits, against ~102 for 4 bits and ~104 for 2).
_LIMB, _WINDOW = 27, 3
_LIMB_MASK = (1 << _LIMB) - 1


def limbs(values: Sequence[int], n_limbs: int) -> np.ndarray:
    """``(n_limbs, len(values))`` uint64 rows of 27-bit limbs, least significant first."""
    rows = [[v >> shift & _LIMB_MASK for v in values] for shift in range(0, _LIMB * n_limbs, _LIMB)]
    return np.array(rows, dtype=np.uint64)


def limb_bytes(rows: np.ndarray, n_bytes: int) -> np.ndarray:
    """``(n, n_bytes)`` uint8: lane ``j`` of :func:`limbs` ``rows`` as ``int.to_bytes(n_bytes, "big")``."""
    limb, shift = np.divmod(8 * np.arange(n_bytes, dtype=np.uint64)[::-1], np.uint64(_LIMB))  # top byte first
    lanes = np.vstack((rows, np.zeros_like(rows[:1]))).T  # a byte may run past the top limb
    return ((lanes[:, limb] >> shift | lanes[:, limb + 1] << (np.uint64(_LIMB) - shift)) & np.uint64(0xFF)).astype(np.uint8)


MODP_GROUPS: dict[str, GroupParameters] = {
    "modp-1536": GroupParameters(prime=int(_MODP_1536_HEX, 16), generator=2, name="modp-1536"),
    "modp-2048": GroupParameters(prime=int(_MODP_2048_HEX, 16), generator=2, name="modp-2048"),
    "modp-3072": GroupParameters(prime=int(_MODP_3072_HEX, 16), generator=2, name="modp-3072"),
}

# Deterministic Miller-Rabin witness sets. The first set is provably sufficient
# for all n < 3.3 * 10**24 (covers 64-bit and a bit beyond).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int, rounds: int = 16) -> bool:
    """Miller–Rabin primality test.

    Deterministic for n below ~3.3e24 using fixed witnesses; otherwise performs
    ``rounds`` additional pseudo-random rounds derived deterministically from n.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a: int) -> bool:
        """Return True if ``a`` proves ``n`` composite."""
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                return False
        return True

    for a in _SMALL_PRIMES:
        if witness(a):
            return False

    if n >= 3_317_044_064_679_887_385_961_981:
        for i in range(rounds):
            a = 2 + derive_seed("miller-rabin", n, i) % (n - 3)
            if witness(a):
                return False
    return True


def generate_safe_prime_group(bits: int, seed: object = "repro") -> GroupParameters:
    """Deterministically generate a small safe-prime group for tests.

    A safe prime is ``p = 2q + 1`` with ``q`` prime.  The generator returned is
    a quadratic residue (``g = h**2 mod p``) so it generates the order-``q``
    subgroup, which avoids leaking the low bit of exponents.

    Args:
        bits: size of q in bits, so p has ``bits + 1`` (8..512; RFC groups above).
        seed: any hashable label; the same label always yields the same group.

    Raises:
        CryptoError: if no safe prime is found in a bounded search window.
    """
    if bits < 8 or bits > 512:
        raise ValidationError("generate_safe_prime_group supports 8..512 bit moduli")
    base = derive_seed("safe-prime", seed, bits)
    # Start the search from a deterministic odd candidate with the top bit set.
    start = (1 << (bits - 1)) | (base % (1 << (bits - 1))) | 1
    candidate = start
    for _ in range(200_000):
        q = candidate
        p = 2 * q + 1
        if p.bit_length() <= bits + 1 and is_probable_prime(q) and is_probable_prime(p):
            # Find a generator of the order-q subgroup.
            for h in range(2, 64):
                g = pow(h, 2, p)
                if g not in (0, 1, p - 1):
                    return GroupParameters(prime=p, generator=g, name=f"safe-{bits}")
        candidate += 2
    raise CryptoError(f"no safe prime found near seed {seed!r} for {bits} bits")
