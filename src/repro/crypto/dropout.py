"""Dropout-resilient secure aggregation (double masking + Shamir recovery).

The paper assumes every data owner participates in every round (Section III),
so the plain pairwise masking in :mod:`repro.crypto.masking` suffices there.
The full Bonawitz et al. protocol additionally survives *dropouts*: each user
adds a private self-mask ``b_i`` on top of the pairwise masks, and secret-shares
both ``b_i`` and its DH private key among the cohort.  After the collection
phase the aggregator asks the surviving users for

* the self-mask shares of **surviving** users (so their ``b_i`` can be removed), and
* the key shares of **dropped** users (so their pairwise masks can be recomputed
  and cancelled).

This module implements that extension for the simulation: the threat model is
honest-but-curious, and the "server" role is played by the on-chain contract or
any auditor, exactly like the rest of the framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crypto.dh import DHKeyPair
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.masking import PairwiseMasker
from repro.crypto.prng import expand_masks
from repro.crypto.secret_sharing import ShamirSecretSharing, Share
from repro.exceptions import MaskingError, SecretSharingError, ValidationError
from repro.utils.hashing import sha256_bytes
from repro.utils.rng import derive_seed


# Self masks come from the pair-mask kernel under their own label, so a self
# mask and a pair mask can never coincide even for equal key bytes.
SELF_MASK_DOMAIN = b"repro/self-mask"


def _self_mask_seed(owner_id: str, round_number: int, seed: object) -> bytes:
    """The per-round self-mask seed b_i (derived deterministically in simulation)."""
    return sha256_bytes(f"self-mask/{owner_id}/{round_number}/{seed}".encode("utf-8"))


@dataclass(frozen=True)
class DoubleMaskedUpdate:
    """A masked update carrying the shares needed for dropout recovery.

    Attributes:
        owner_id: submitting owner.
        round_number: FL round.
        payload: encode(w_i) + Σ pairwise masks ± ... + self mask, in the ring.
        self_mask_shares: Shamir shares of the owner's self-mask seed, keyed by
            the recipient owner id (each peer holds one share).
        key_shares: Shamir shares of the owner's DH *private key*, keyed by the
            recipient owner id, used only if this owner later drops out.
    """

    owner_id: str
    round_number: int
    payload: np.ndarray
    self_mask_shares: dict[str, Share] = field(default_factory=dict)
    key_shares: dict[str, Share] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "payload", np.asarray(self.payload, dtype=np.uint64))


class DropoutResilientMasker:
    """Builds double-masked updates and the recovery shares for one owner."""

    def __init__(
        self,
        owner_id: str,
        keypair: DHKeyPair,
        peer_public_keys: dict[str, int],
        threshold: int,
        codec: FixedPointCodec | None = None,
        seed: object = 0,
    ) -> None:
        peers = {k: v for k, v in peer_public_keys.items() if k != owner_id}
        if threshold < 1 or threshold > len(peers) + 1:
            raise ValidationError("threshold must be in [1, cohort size]")
        self.owner_id = owner_id
        self.keypair = keypair
        self.codec = codec or FixedPointCodec()
        self.threshold = threshold
        self.seed = seed
        self._pairwise = PairwiseMasker(owner_id, keypair, peers, codec=self.codec)

    @property
    def peers(self) -> list[str]:
        """Sorted peer ids in the cohort (excluding this owner)."""
        return self._pairwise.peers

    def mask(self, weights: np.ndarray, round_number: int) -> DoubleMaskedUpdate:
        """Produce the double-masked update plus the recovery shares.

        The payload is ``encode(w_i) + b_i + Σ_{j>i} m_ij − Σ_{j<i} m_ij`` where
        ``b_i`` is the self mask and ``m_ij`` the pairwise masks.  The self-mask
        seed and the DH private key are Shamir-shared across the cohort with the
        configured threshold.
        """
        pairwise = self._pairwise.mask(weights, round_number).payload
        self_seed = _self_mask_seed(self.owner_id, round_number, self.seed)
        self_mask = expand_masks(
            [self_seed], round_number, pairwise.size, self.codec.modulus, domain=SELF_MASK_DOMAIN
        )[0]
        masked = self.codec.add(pairwise, self_mask)

        cohort = self.peers
        sharing = ShamirSecretSharing(threshold=self.threshold, n_shares=max(len(cohort), self.threshold))
        self_shares = sharing.split(self_seed, seed=derive_seed("share-self", self.owner_id, round_number))
        key_shares = sharing.split(
            self.keypair.private_key, seed=derive_seed("share-key", self.owner_id, round_number)
        )
        return DoubleMaskedUpdate(
            owner_id=self.owner_id,
            round_number=round_number,
            payload=masked,
            self_mask_shares={peer: share for peer, share in zip(cohort, self_shares)},
            key_shares={peer: share for peer, share in zip(cohort, key_shares)},
        )


class DropoutRecoveryAggregator:
    """Aggregates double-masked updates, reconstructing masks of dropped owners.

    The aggregator receives the updates of the *surviving* owners plus, from at
    least ``threshold`` survivors, the shares they hold:

    * self-mask shares of every survivor (to strip the surviving b_i), and
    * key shares of every dropped owner (to recompute its pairwise masks).
    """

    def __init__(self, threshold: int, codec: FixedPointCodec | None = None) -> None:
        if threshold < 1:
            raise ValidationError("threshold must be positive")
        self.threshold = threshold
        self.codec = codec or FixedPointCodec()

    def _reconstruct(self, shares: list[Share], as_bytes: bool) -> int | bytes:
        sharing = ShamirSecretSharing(threshold=self.threshold, n_shares=max(len(shares), self.threshold))
        if as_bytes:
            return sharing.reconstruct_bytes(shares, length=32)
        return sharing.reconstruct(shares)

    def aggregate_sum(
        self,
        surviving_updates: list[DoubleMaskedUpdate],
        all_owner_public_keys: dict[str, int],
        dropped_owner_ids: list[str],
        collected_self_shares: dict[str, list[Share]],
        collected_key_shares: dict[str, list[Share]],
        dh_params,
        round_number: int,
    ) -> np.ndarray:
        """Recover the plain sum of the surviving owners' weight vectors.

        Args:
            surviving_updates: the double-masked updates actually received.
            all_owner_public_keys: public keys of the full cohort (from the registry).
            dropped_owner_ids: owners that registered but did not submit.
            collected_self_shares: per *surviving* owner, >= threshold shares of its self mask.
            collected_key_shares: per *dropped* owner, >= threshold shares of its DH private key.
            dh_params: the cohort's DH parameters.
            round_number: the round being aggregated.
        """
        if not surviving_updates:
            raise MaskingError("no surviving updates to aggregate")
        survivors = sorted(update.owner_id for update in surviving_updates)
        if len(set(survivors)) != len(survivors):
            raise MaskingError("duplicate surviving owner")
        overlap = set(survivors) & set(dropped_owner_ids)
        if overlap:
            raise MaskingError(f"owners cannot both survive and drop: {sorted(overlap)}")
        length = surviving_updates[0].payload.size
        if any(update.payload.size != length for update in surviving_updates):
            raise MaskingError("masked updates have mismatched lengths")

        total = self.codec.sum_encoded(np.stack([update.payload for update in surviving_updates]))

        # 1. Strip every survivor's self mask b_i.
        self_seeds = []
        for owner in survivors:
            shares = collected_self_shares.get(owner, [])
            try:
                self_seed = self._reconstruct(shares, as_bytes=True)
            except SecretSharingError as exc:
                raise MaskingError(f"cannot reconstruct self mask of survivor {owner}: {exc}") from exc
            self_seeds.append(self_seed)
        self_masks = expand_masks(
            self_seeds, round_number, length, self.codec.modulus, domain=SELF_MASK_DOMAIN
        )
        total = self.codec.subtract(total, self.codec.sum_encoded(self_masks))

        # 2. Cancel the pairwise masks the survivors shared with dropped owners:
        #    what is missing from the sum is exactly each dropped owner's own
        #    net mask against the survivors.
        survivor_keys = {owner: int(all_owner_public_keys[owner]) for owner in survivors}
        for dropped in sorted(dropped_owner_ids):
            shares = collected_key_shares.get(dropped, [])
            try:
                private_key = self._reconstruct(shares, as_bytes=False)
            except SecretSharingError as exc:
                raise MaskingError(f"cannot reconstruct key of dropped owner {dropped}: {exc}") from exc
            dropped_keypair = DHKeyPair(params=dh_params, private_key=int(private_key))
            if dropped_keypair.public_key != int(all_owner_public_keys[dropped]):
                raise MaskingError(f"reconstructed key of {dropped} does not match its registered public key")
            dropped_masker = PairwiseMasker(dropped, dropped_keypair, survivor_keys, codec=self.codec)
            total = self.codec.add(total, dropped_masker.net_mask(round_number, length))

        return self.codec.decode_sum(total, n_summands=len(survivors))

    def aggregate_mean(self, *args, **kwargs) -> np.ndarray:
        """Mean of the surviving owners' weights (FedAvg over survivors)."""
        surviving_updates = args[0] if args else kwargs["surviving_updates"]
        summed = self.aggregate_sum(*args, **kwargs)
        return summed / float(len(surviving_updates))
