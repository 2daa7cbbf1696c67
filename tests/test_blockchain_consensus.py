"""Tests for leader selection and vote tallying (repro.blockchain.consensus)."""

from __future__ import annotations

import pytest

from repro.blockchain.block import GENESIS_PARENT_HASH, Block
from repro.blockchain.consensus import ConsensusEngine
from repro.exceptions import ConsensusError, ValidationError


def empty_block(height=1):
    return Block.build(
        height=height,
        parent_hash=GENESIS_PARENT_HASH,
        proposer="x",
        transactions=[],
        receipts=[],
        state_root="ab" * 32,
    )


class TestRoundRobinLeaderSelector:
    """``ConsensusEngine.select_leader`` is the round-robin."""

    def test_rotates_through_sorted_authorities(self):
        engine = ConsensusEngine()
        authorities = ["carol", "alice", "bob"]
        picks = [engine.select_leader(authorities) for _ in range(6)]
        assert picks == ["alice", "bob", "carol", "alice", "bob", "carol"]

    def test_every_authority_gets_a_turn(self):
        engine = ConsensusEngine()
        authorities = [f"owner-{i}" for i in range(5)]
        picks = {engine.select_leader(authorities) for _ in range(5)}
        assert picks == set(authorities)

    def test_empty_authority_set_rejected(self):
        engine = ConsensusEngine()
        with pytest.raises(ValidationError):
            engine.select_leader([])
        assert engine.round_index == 0  # a refused selection consumes no slot


class TestConsensusEngine:
    def test_select_leader_advances_round(self):
        engine = ConsensusEngine()
        authorities = ["a", "b"]
        assert engine.select_leader(authorities) == "a"
        assert engine.select_leader(authorities) == "b"
        assert engine.select_leader(authorities) == "a"

    def test_select_leader_rejects_empty_set(self):
        with pytest.raises(ValidationError):
            ConsensusEngine().select_leader([])

    def test_majority_accepts(self):
        votes = {"a": True, "b": True, "c": False}
        result = ConsensusEngine.tally(empty_block(), votes)
        assert result.accepted
        assert sum(result.votes.values()) == 2
        assert result.reject_count == 1

    def test_tie_is_rejected(self):
        votes = {"a": True, "b": False}
        assert not ConsensusEngine.tally(empty_block(), votes).accepted

    def test_minority_acceptance_is_rejected(self):
        votes = {"a": True, "b": False, "c": False}
        assert not ConsensusEngine.tally(empty_block(), votes).accepted

    def test_unanimous_acceptance(self):
        votes = {f"owner-{i}": True for i in range(5)}
        assert ConsensusEngine.tally(empty_block(), votes).accepted

    def test_rejections_are_recorded(self):
        votes = {"a": True, "b": False}
        rejections = {"b": "state root mismatch"}
        result = ConsensusEngine.tally(empty_block(), votes, rejections)
        assert result.rejections == rejections

    def test_no_votes_rejected(self):
        with pytest.raises(ConsensusError):
            ConsensusEngine.tally(empty_block(), {})
