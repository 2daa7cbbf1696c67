"""Diffie–Hellman key agreement.

Each data owner generates a private exponent ``a`` and publishes ``g**a mod p``
to the blockchain.  Any pair of owners (A, B) can then derive the shared key
``g**(ab) mod p`` without interaction, which seeds the pairwise masks of the
secure-aggregation protocol (see :mod:`repro.crypto.masking`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.crypto.groups import MODP_GROUPS, GroupParameters, limb_bytes, limbs
from repro.exceptions import KeyExchangeError, ValidationError


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
    if not 1 < other_public_key < prime:
        raise KeyExchangeError("peer public key is outside the group")
    element = pow(other_public_key, own.private_key, prime)
    # p - 1 has order 2: with an odd key the secret is public, and refusing only 1 leaks parity.
    if element in (0, 1, prime - 1):
        raise KeyExchangeError("degenerate shared secret; peer key is invalid")
    return hashlib.sha256(element.to_bytes((prime.bit_length() + 7) // 8, "big")).digest()


def key_table(params: DHParameters, private_keys: Sequence[int], public_keys: Sequence[int]) -> tuple[np.ndarray, ...]:
    """A cohort's ``(private, public)`` key limb rows, member ``k`` in column ``k``; each public key is checked here, once."""
    if not all(1 < key < params.group.prime for key in public_keys):
        raise KeyExchangeError("peer public key is outside the group")
    return limbs(private_keys, params.group.n_limbs), limbs(public_keys, params.group.n_limbs)


def shared_secrets(params: DHParameters, keys: tuple[np.ndarray, ...], own: np.ndarray, other: np.ndarray) -> list[bytes]:
    """:func:`shared_secret` of private key ``own[i]`` with public key ``other[i]`` of ``keys``, per lane ``i``:
    one :meth:`~repro.crypto.groups.GroupParameters.power_limbs` call, the same refusals, the same bytes hashed."""
    group, (private, public) = params.group, keys
    powers = group.power_limbs(public[:, other], private[:, own])
    if (powers[:, None] == limbs([0, 1, group.prime - 1], len(powers))[..., None]).all(axis=0).any():
        raise KeyExchangeError("degenerate shared secret; peer key is invalid")
    n_bytes = (group.bit_length + 7) // 8
    data = limb_bytes(powers, n_bytes).tobytes()
    return [hashlib.sha256(data[i : i + n_bytes]).digest() for i in range(0, len(data), n_bytes)]
