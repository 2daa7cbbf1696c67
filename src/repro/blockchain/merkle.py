"""Merkle trees over transaction hashes.

Blocks commit to their transaction list (and receipt list) through a Merkle
root, and the tree can produce inclusion proofs so an auditor can verify that a
specific masked update or evaluation result was included in a block without
replaying the whole chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.exceptions import ValidationError
from repro.utils.hashing import hash_concat, sha256_hex

EMPTY_ROOT = sha256_hex(b"repro-empty-merkle")
_EMPTY_ROOT = EMPTY_ROOT  # backwards-compatible alias


def fold_proof_path(leaf: str, index: int, siblings: Iterable[str]) -> str:
    """Fold a leaf up a Merkle path: the root implied by ``siblings`` bottom-up.

    Every state-store proof folds through it, so every proof in the system
    uses one hashing convention.
    """
    current = leaf
    position = index
    for sibling in siblings:
        if position % 2 == 0:
            current = hash_concat([current, sibling])
        else:
            current = hash_concat([sibling, current])
        position //= 2
    return current


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof: the leaf, its index, and sibling hashes bottom-up."""

    leaf: str
    index: int
    siblings: tuple[str, ...]
    root: str


class MerkleTree:
    """A binary Merkle tree over a list of hex-string leaves.

    Odd levels duplicate the last node (Bitcoin-style), which keeps proofs simple
    and the root well defined for any leaf count.
    """

    def __init__(self, leaves: list[str]) -> None:
        for leaf in leaves:
            if not isinstance(leaf, str) or not leaf:
                raise ValidationError("Merkle leaves must be non-empty strings")
        self._leaves = list(leaves)
        self._levels = self._build_levels(self._leaves)

    @staticmethod
    def _build_levels(leaves: list[str]) -> list[list[str]]:
        if not leaves:
            return [[_EMPTY_ROOT]]
        levels = [list(leaves)]
        current = list(leaves)
        while len(current) > 1:
            if len(current) % 2 == 1:
                current = current + [current[-1]]
            nxt = [hash_concat(current[i : i + 2]) for i in range(0, len(current), 2)]
            levels.append(nxt)
            current = nxt
        return levels

    @property
    def root(self) -> str:
        """The Merkle root (a constant sentinel root for an empty tree)."""
        return self._levels[-1][0]

    def proof(self, index: int) -> MerkleProof:
        """Produce an inclusion proof for the leaf at ``index``."""
        if not self._leaves:
            raise ValidationError("cannot prove inclusion in an empty tree")
        if not 0 <= index < len(self._leaves):
            raise ValidationError(f"leaf index {index} out of range")
        siblings: list[str] = []
        position = index
        for level in self._levels[:-1]:
            padded = level + [level[-1]] if len(level) % 2 == 1 else level
            sibling_index = position + 1 if position % 2 == 0 else position - 1
            siblings.append(padded[sibling_index])
            position //= 2
        return MerkleProof(leaf=self._leaves[index], index=index, siblings=tuple(siblings), root=self.root)

    @classmethod
    def root_of(cls, leaves: list[str]) -> str:
        """Convenience: the Merkle root of a leaf list without keeping the tree."""
        return cls(leaves).root
