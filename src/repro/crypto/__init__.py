"""Cryptographic substrate for secure aggregation.

This package implements the pieces of Bonawitz et al.'s secure-aggregation
protocol that the paper's framework relies on:

* :mod:`repro.crypto.groups` — multiplicative groups modulo a safe prime
  (RFC 3526 MODP groups plus a deterministic safe-prime generator for tests).
* :mod:`repro.crypto.dh` — Diffie–Hellman key pairs and shared-secret agreement.
* :mod:`repro.crypto.prng` — the SHAKE-256 mask expansion: one XOF call turns a
  shared secret and a round number into a mask vector.
* :mod:`repro.crypto.fixed_point` — lossless-enough fixed-point encoding of
  float vectors into integers modulo 2**64 so masks add and cancel exactly.
* :mod:`repro.crypto.masking` — pairwise mask construction, masked updates, and
  aggregation with mask cancellation.
* :mod:`repro.crypto.secret_sharing` — Shamir secret sharing, used by the
  dropout-recovery extension.
"""

from repro.crypto.dh import DHKeyPair, DHParameters, shared_secret
from repro.crypto.dropout import DoubleMaskedUpdate, DropoutRecoveryAggregator, DropoutResilientMasker
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.groups import MODP_GROUPS, GroupParameters, generate_safe_prime_group, is_probable_prime
from repro.crypto.ldp import LdpConfig, LdpMechanism, clip_by_norm, gaussian_sigma
from repro.crypto.masking import MaskedUpdate, PairwiseMasker, SecureAggregator
from repro.crypto.prng import expand_mask, expand_masks
from repro.crypto.secret_sharing import ShamirSecretSharing, Share

__all__ = [
    "DHKeyPair",
    "DHParameters",
    "shared_secret",
    "DoubleMaskedUpdate",
    "DropoutRecoveryAggregator",
    "DropoutResilientMasker",
    "FixedPointCodec",
    "MODP_GROUPS",
    "GroupParameters",
    "generate_safe_prime_group",
    "is_probable_prime",
    "LdpConfig",
    "LdpMechanism",
    "clip_by_norm",
    "gaussian_sigma",
    "MaskedUpdate",
    "PairwiseMasker",
    "SecureAggregator",
    "expand_mask",
    "expand_masks",
    "ShamirSecretSharing",
    "Share",
]
