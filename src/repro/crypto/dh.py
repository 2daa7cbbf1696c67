"""Diffie–Hellman key agreement.

Each data owner generates a private exponent ``a`` and publishes ``g**a mod p``
to the blockchain.  Any pair of owners (A, B) can then derive the shared key
``g**(ab) mod p`` without interaction, which seeds the pairwise masks of the
secure-aggregation protocol (see :mod:`repro.crypto.masking`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

from repro.crypto.groups import MODP_GROUPS, GroupParameters
from repro.exceptions import KeyExchangeError, ValidationError
from repro.utils.hashing import sha256_bytes

#: Lanes per ``power_many`` call in :func:`shared_secrets`, from a time x peak-RSS sweep.
SECRET_LANES = 4096


@dataclass(frozen=True)
class DHParameters:
    """Public Diffie–Hellman parameters agreed at the off-chain setup stage."""

    group: GroupParameters

    @classmethod
    def default(cls) -> "DHParameters":
        """The 2048-bit RFC 3526 group — the sensible production default."""
        return cls(group=MODP_GROUPS["modp-2048"])

    @classmethod
    def for_testing(cls, bits: int = 64, seed: object = "test") -> "DHParameters":
        """A small deterministic group for fast tests and simulations."""
        from repro.crypto.groups import generate_safe_prime_group

        return cls(group=generate_safe_prime_group(bits, seed))


@dataclass(frozen=True)
class DHKeyPair:
    """A private/public Diffie–Hellman key pair bound to a set of parameters."""

    params: DHParameters
    private_key: int
    public_key: int = field(default=0)

    def __post_init__(self) -> None:
        prime = self.params.group.prime
        if not 1 < self.private_key < prime - 1:
            raise ValidationError("private key must lie in (1, p - 1)")
        expected_public = self.params.group.power(self.params.group.generator, self.private_key)
        if self.public_key == 0:
            object.__setattr__(self, "public_key", expected_public)
        elif self.public_key != expected_public:
            raise KeyExchangeError("public key does not match private key")

    @classmethod
    def generate(cls, params: DHParameters, owner_id: str, seed: object = 0) -> "DHKeyPair":
        """Deterministically generate a key pair for ``owner_id``.

        Simulation convenience: the private exponent is derived from
        ``(owner_id, seed)`` so the whole protocol run is reproducible.  A real
        deployment would use an OS CSPRNG here; nothing downstream depends on
        how the exponent was chosen.
        """
        private = params.group.element_from_seed("dh-private", owner_id, seed)
        return cls(params=params, private_key=private)


def shared_secret(own: DHKeyPair, other_public_key: int) -> bytes:
    """Derive the pairwise shared secret between ``own`` and another public key.

    The raw group element ``other_pub ** own_priv mod p`` is hashed to 32 bytes
    so it can key the mask XOF (:func:`repro.crypto.prng.expand_masks`)
    regardless of group size.  Both directions of a pair derive the same bytes:
    ``(g**b)**a == (g**a)**b``.
    """
    prime = own.params.group.prime
    return _checked_secret(other_public_key, pow(other_public_key, own.private_key, prime), prime)


def shared_secrets(
    private_keys: Iterable[int], public_keys: Iterable[int], params: DHParameters
) -> Iterator[bytes]:
    """:func:`shared_secret` per (own private key, peer public key) lane, lazily.

    The lanes run :data:`SECRET_LANES` at a time through one ``power_many`` call.
    """
    private_keys, public_keys = iter(private_keys), iter(public_keys)
    while own := list(islice(private_keys, SECRET_LANES)):
        other = list(islice(public_keys, SECRET_LANES))
        for key, element in zip(other, params.group.power_many(other, own)):
            yield _checked_secret(key, element, params.group.prime)


def _checked_secret(public_key: int, element: int, prime: int) -> bytes:
    if not 1 < public_key < prime:
        raise KeyExchangeError("peer public key is outside the group")
    # p - 1 has order 2: with an odd key the secret is public, and refusing only 1 leaks parity.
    if element in (0, 1, prime - 1):
        raise KeyExchangeError("degenerate shared secret; peer key is invalid")
    return sha256_bytes(element.to_bytes((prime.bit_length() + 7) // 8, "big"))
