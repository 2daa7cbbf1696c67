"""Pairwise masking and secure aggregation (Bonawitz-style).

Per Section IV.A.1 of the paper, each user ``i`` derives, for every other user
``j``, a per-round mask vector ``m_ij = PRNG(g^{a_i a_j}, r)`` and submits

    y_i = encode(w_i) + sum_{j > i} m_ij - sum_{j < i} m_ij   (mod M)

to the blockchain.  Summing all users' submissions cancels every mask and
yields ``encode(sum_i w_i)``, which the chain decodes and divides by the number
of users to obtain the FedAvg aggregate — without ever seeing an individual
``w_i`` in the clear.

That sum exists once: :func:`aggregate_groups` (one vectorized :func:`ring_sum`
per group) is what the training contract's ``finalize_round`` and the
cross-device harness run, and :class:`SecureAggregator` is a checked front for
the same :func:`ring_sum`.  Who masks with whom is not decided here — it is
the round's :class:`~repro.crypto.sharding.RoundAssignment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.crypto.dh import DHKeyPair, shared_secret
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.prng import expand_masks
from repro.exceptions import MaskingError, ValidationError


@dataclass(frozen=True)
class MaskedUpdate:
    """A single user's masked model update for one round.

    Attributes:
        owner_id: identifier of the submitting data owner.
        round_number: the FL round this update belongs to.
        payload: uint64 ring elements of the masked, fixed-point encoded update.
    """

    owner_id: str
    round_number: int
    payload: np.ndarray

    def __post_init__(self) -> None:
        payload = np.asarray(self.payload, dtype=np.uint64)
        object.__setattr__(self, "payload", payload)
        if payload.ndim != 1:
            raise ValidationError("masked payload must be a flat vector")


class PairwiseMasker:
    """Builds masked updates for one data owner.

    The masker is initialized with the owner's DH key pair and the public keys
    of every peer *within the same aggregation cohort* (the GroupSV group): the
    paper aggregates one model per group with secure aggregation, so masks are
    pairwise within a group.
    """

    def __init__(
        self,
        owner_id: str,
        keypair: DHKeyPair,
        peer_public_keys: dict[str, int],
        codec: FixedPointCodec | None = None,
    ) -> None:
        if owner_id in peer_public_keys:
            peer_public_keys = {k: v for k, v in peer_public_keys.items() if k != owner_id}
        self.owner_id = owner_id
        self.keypair = keypair
        self.codec = codec or FixedPointCodec()
        self._secrets: dict[str, bytes] = {
            peer: shared_secret(keypair, pub) for peer, pub in peer_public_keys.items()
        }

    def net_mask(self, round_number: int, length: int) -> np.ndarray:
        """This owner's net signed mask ``Σ_{j>i} m_ij − Σ_{j<i} m_ij``: :func:`net_masks` of one owner."""
        subtracted = np.array([peer < self.owner_id for peer in self._secrets], dtype=bool)
        return net_masks(list(self._secrets.values()), subtracted, [len(self._secrets)], round_number, length, self.codec)[0]

    def mask(self, weights: np.ndarray, round_number: int) -> MaskedUpdate:
        """Encode and mask a flat weight vector for submission to the chain."""
        weights = np.asarray(weights, dtype=np.float64).ravel()
        masked = self.codec.add(
            self.codec.encode(weights), self.net_mask(round_number, weights.size)
        )
        return MaskedUpdate(owner_id=self.owner_id, round_number=round_number, payload=masked)


def net_masks(
    secrets: Sequence[bytes], subtracted: np.ndarray, counts: Sequence[int], round_number: int, length: int,
    codec: FixedPointCodec,
) -> np.ndarray:
    """A block of owners' net masks, ``(len(counts), length)``; owner ``k`` has the next ``counts[k]`` secrets.

    Mask orientation follows the canonical ordering of owner ids: a mask shared
    with a peer whose id sorts below its owner's is ``subtracted``, so both
    sides of a pair agree and the masks cancel in the aggregate.  One
    :func:`~repro.crypto.prng.expand_masks` pass and one sum per owner of the
    signed rows equal the masks applied one by one (the ring is commutative).
    """
    masks = expand_masks(secrets, round_number, length, codec.modulus)
    # uint64 negation is negation mod 2**64, which the ring modulus divides.
    np.negative(masks, out=masks, where=subtracted[:, None])
    counts = np.asarray(counts)
    nets = np.zeros((counts.size, length), dtype=np.uint64)  # an owner without peers keeps a zero row
    nets[counts > 0] = np.add.reduceat(masks, (np.cumsum(counts) - counts)[counts > 0], axis=0)
    return nets & np.uint64(codec.modulus - 1)


def ring_sum(payloads: Sequence[np.ndarray], codec: FixedPointCodec) -> np.ndarray:
    """``Σ y_i mod M`` over a cohort's masked payloads, decoded.

    One ``(k, d)`` stack and a single modular reduction instead of k
    sequential ring additions — identical result (``sum_encoded`` is exactly
    the fold of ``add``), one vectorized pass.  Every pairwise mask cancels
    once the whole mask cohort is present, so no secret is needed.
    """
    total = codec.sum_encoded(np.stack(payloads))
    return codec.decode_sum(total, n_summands=len(payloads))


def aggregate_groups(
    payloads_by_owner: Mapping[str, np.ndarray],
    groups: Sequence[Sequence[str]],
    codec: FixedPointCodec,
) -> list[np.ndarray]:
    """The secure aggregation of a round: per group, the FedAvg model ``W_j``.

    The sum runs over each whole group in its dealt order; how the group was
    sharded does not matter, because ring addition is associative and every
    shard's masks cancel among the shard's own members.
    """
    return [
        ring_sum([payloads_by_owner[owner] for owner in group], codec) / float(len(group))
        for group in groups
    ]


@dataclass
class SecureAggregator:
    """Aggregates masked updates and recovers the (average of the) plain sum.

    A checked front for :func:`ring_sum`, the sum the on-chain contract runs:
    it never needs any secret — the pairwise masks cancel by construction once
    every cohort member's update is present.
    """

    codec: FixedPointCodec = field(default_factory=FixedPointCodec)

    def aggregate_sum(self, updates: list[MaskedUpdate]) -> np.ndarray:
        """Return the decoded element-wise *sum* of the participants' weights."""
        if not updates:
            raise MaskingError("cannot aggregate an empty update set")
        rounds = {u.round_number for u in updates}
        if len(rounds) != 1:
            raise MaskingError(f"updates span multiple rounds: {sorted(rounds)}")
        owners = [u.owner_id for u in updates]
        if len(set(owners)) != len(owners):
            raise MaskingError("duplicate owner in update set")
        lengths = {u.payload.size for u in updates}
        if len(lengths) != 1:
            raise MaskingError("masked updates have mismatched lengths")
        return ring_sum([update.payload for update in updates], self.codec)

    def aggregate_mean(self, updates: list[MaskedUpdate]) -> np.ndarray:
        """Return the decoded element-wise *mean* — the FedAvg group model."""
        summed = self.aggregate_sum(updates)
        return summed / float(len(updates))
