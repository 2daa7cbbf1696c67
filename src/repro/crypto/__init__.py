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
"""
