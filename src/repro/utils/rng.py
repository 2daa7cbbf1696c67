"""Deterministic random-number management.

Reproducibility is a hard requirement: the paper's protocol relies on a shared
permutation seed ``e`` agreed at setup, and our blockchain miners must re-derive
identical pseudo-random choices when re-executing a leader's proposal.  All
randomness therefore flows through seeds derived *deterministically* from string
labels with :func:`derive_seed`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import ValidationError

_SEED_MODULUS = 2**63 - 1


def derive_seed(*parts: object) -> int:
    """Derive a 63-bit integer seed deterministically from the given parts.

    Parts are joined by ``"/"`` after ``str`` conversion and hashed with
    SHA-256, so ``derive_seed("setup", 3)`` is stable across processes and
    platforms.  The result is suitable for seeding ``numpy.random.default_rng``.
    """
    if not parts:
        raise ValidationError("derive_seed requires at least one part")
    label = "/".join(str(part) for part in parts)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MODULUS


def spawn_rng(*parts: object) -> np.random.Generator:
    """Create a NumPy generator seeded deterministically from ``parts``."""
    return np.random.default_rng(derive_seed(*parts))

