"""Shamir secret sharing over a prime field.

The full Bonawitz secure-aggregation protocol secret-shares each user's mask
seed so the aggregate remains recoverable when users drop out mid-round.  The
paper assumes all owners participate in every round (Section III), so dropout
recovery is an *extension* in this reproduction — but we implement the
primitive faithfully: (t, n) Shamir sharing with Lagrange reconstruction over a
Mersenne-prime field large enough to hold 128-bit secrets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SecretSharingError, ValidationError
from repro.utils.rng import derive_seed

# 2**521 - 1 is prime (a Mersenne prime) and comfortably exceeds any secret we
# share (32-byte mask seeds / DH secret hashes).
_FIELD_PRIME = (1 << 521) - 1


@dataclass(frozen=True)
class Share:
    """One Shamir share: the evaluation of the sharing polynomial at ``x``."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x <= 0:
            raise ValidationError("share x-coordinate must be positive")
        if not 0 <= self.y < _FIELD_PRIME:
            raise ValidationError("share y-coordinate outside the field")


class ShamirSecretSharing:
    """(threshold, n_shares) secret sharing over GF(2**521 - 1)."""

    def __init__(self, threshold: int, n_shares: int) -> None:
        if threshold < 1:
            raise ValidationError("threshold must be at least 1")
        if n_shares < threshold:
            raise ValidationError("n_shares must be >= threshold")
        if n_shares >= _FIELD_PRIME:
            raise ValidationError("too many shares for the field")
        self.threshold = threshold
        self.n_shares = n_shares

    @property
    def prime(self) -> int:
        """The field modulus."""
        return _FIELD_PRIME

    def split(self, secret: int | bytes, seed: object = 0) -> list[Share]:
        """Split ``secret`` into ``n_shares`` shares, any ``threshold`` of which reconstruct it.

        Coefficients are derived deterministically from ``seed`` for simulation
        reproducibility.
        """
        if isinstance(secret, (bytes, bytearray)):
            secret = int.from_bytes(bytes(secret), "big")
        if not 0 <= secret < _FIELD_PRIME:
            raise SecretSharingError("secret does not fit in the sharing field")
        coefficients = [secret]
        for degree in range(1, self.threshold):
            coefficients.append(derive_seed("shamir-coef", seed, degree) % _FIELD_PRIME)
        shares = []
        for x in range(1, self.n_shares + 1):
            y = 0
            for power, coef in enumerate(coefficients):
                y = (y + coef * pow(x, power, _FIELD_PRIME)) % _FIELD_PRIME
            shares.append(Share(x=x, y=y))
        return shares

    def reconstruct(self, shares: list[Share]) -> int:
        """Reconstruct the secret from at least ``threshold`` distinct shares."""
        if len({share.x for share in shares}) < self.threshold:
            raise SecretSharingError(
                f"need at least {self.threshold} distinct shares, got {len(set(s.x for s in shares))}"
            )
        points = list({share.x: share for share in shares}.values())[: self.threshold]
        secret = 0
        for i, share_i in enumerate(points):
            numerator = 1
            denominator = 1
            for j, share_j in enumerate(points):
                if i == j:
                    continue
                numerator = (numerator * (-share_j.x)) % _FIELD_PRIME
                denominator = (denominator * (share_i.x - share_j.x)) % _FIELD_PRIME
            lagrange = numerator * pow(denominator, -1, _FIELD_PRIME)
            secret = (secret + share_i.y * lagrange) % _FIELD_PRIME
        return secret

    def reconstruct_bytes(self, shares: list[Share], length: int = 32) -> bytes:
        """Reconstruct a secret originally provided as bytes of the given length."""
        value = self.reconstruct(shares)
        return value.to_bytes(length, "big")
