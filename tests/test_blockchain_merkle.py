"""Tests for Merkle trees and proofs (repro.blockchain.merkle)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.merkle import MerkleProof, MerkleTree, fold_proof_path
from repro.exceptions import ValidationError
from repro.utils.hashing import sha256_hex


def leaves_of(n):
    return [sha256_hex(f"leaf-{i}") for i in range(n)]


def _verifies(proof):
    return fold_proof_path(proof.leaf, proof.index, proof.siblings) == proof.root


class TestMerkleTree:
    def test_empty_tree_has_sentinel_root(self):
        assert MerkleTree([]).root == MerkleTree([]).root
        assert len(MerkleTree([]).root) == 64

    def test_single_leaf_root_is_the_leaf(self):
        leaf = sha256_hex("only")
        assert MerkleTree([leaf]).root == leaf

    def test_root_changes_with_any_leaf(self):
        base = MerkleTree(leaves_of(4)).root
        modified = leaves_of(4)
        modified[2] = sha256_hex("tampered")
        assert MerkleTree(modified).root != base

    def test_root_depends_on_leaf_order(self):
        leaves = leaves_of(4)
        assert MerkleTree(leaves).root != MerkleTree(list(reversed(leaves))).root

    def test_odd_leaf_count_supported(self):
        assert len(MerkleTree(leaves_of(5)).root) == 64

    def test_root_of_convenience_matches_tree(self):
        leaves = leaves_of(6)
        assert MerkleTree.root_of(leaves) == MerkleTree(leaves).root

    def test_rejects_empty_string_leaf(self):
        with pytest.raises(ValidationError):
            MerkleTree([""])


class TestMerkleProof:
    @pytest.mark.parametrize("n_leaves", [1, 2, 3, 4, 5, 8, 13])
    def test_every_leaf_proves_inclusion(self, n_leaves):
        leaves = leaves_of(n_leaves)
        tree = MerkleTree(leaves)
        for index in range(n_leaves):
            proof = tree.proof(index)
            assert _verifies(proof)
            assert proof.root == tree.root

    def test_tampered_leaf_fails_proof(self):
        tree = MerkleTree(leaves_of(4))
        proof = tree.proof(1)
        bad = MerkleProof(leaf=sha256_hex("evil"), index=1, siblings=proof.siblings, root=proof.root)
        assert not _verifies(bad)

    def test_wrong_index_fails_proof(self):
        tree = MerkleTree(leaves_of(4))
        proof = tree.proof(1)
        bad = dataclasses.replace(proof, index=2)
        assert not _verifies(bad)

    def test_proof_for_out_of_range_index_rejected(self):
        tree = MerkleTree(leaves_of(3))
        with pytest.raises(ValidationError):
            tree.proof(3)

    def test_proof_on_empty_tree_rejected(self):
        with pytest.raises(ValidationError, match="empty tree"):
            MerkleTree([]).proof(0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_property_random_leaf_always_verifies(self, n_leaves, data):
        leaves = leaves_of(n_leaves)
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(min_value=0, max_value=n_leaves - 1))
        assert _verifies(tree.proof(index))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=30))
    def test_property_root_is_order_sensitive(self, n_leaves):
        leaves = leaves_of(n_leaves)
        swapped = list(leaves)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        assert MerkleTree(leaves).root != MerkleTree(swapped).root
