"""Consensus: leader selection, authority rotation, and re-execution verification.

The paper's protocol (Section III) needs two things from the blockchain layer:

1. a *leader selection protocol* that periodically selects a leader to propose
   a set of transactions, and
2. a *verification protocol* in which all other miners re-execute the proposed
   transactions and accept the block only if their results match; otherwise
   they wait for another leader.

We implement leader selection as deterministic round-robin over the authority
set (proof-of-authority) and verification as majority voting over re-execution
outcomes.  The chain makes progress as long as a majority of miners are honest,
matching the paper's trust model.

**Epoch-authority rotation.**  With ``ProtocolConfig.authority_rotation``
enabled, training-round blocks are no longer proposed by a static rotation
over the full replica set: the eligible proposers of FL round ``r`` are
exactly the registry's ``active_cohort(r)`` — pure chain state — rotated
deterministically from the start of the round's cohort epoch.  When a
scheduled proposer is silent, or its proposal is rejected by the miner vote,
the proposal right falls through a *view change* to the next owner in the
rotation; the winning view number is hashed into the block header so any
replica (or :func:`repro.core.audit.audit_chain`) can recompute the proposer
schedule for every committed round.  :class:`EpochAuthoritySchedule` holds
the schedule, :func:`scheduled_proposer` is the pure recomputation, and
:func:`verify_block_authority` is the check every miner runs before voting —
and every syncing replica runs during replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.blockchain.block import Block
from repro.exceptions import ConsensusError, ValidationError


# ----------------------------------------------------------------------
# Epoch-authority rotation (pure chain-state schedule + view changes)
# ----------------------------------------------------------------------

def rotation_index(round_number: int, epoch_start: int, view: int, cohort_size: int) -> int:
    """Position of the view-``view`` proposer of a round within its sorted cohort.

    The rotation restarts at every cohort epoch: the first round of an epoch
    is proposed (at view 0) by the cohort's first owner, the next round by the
    second, and so on; each view change advances one more step.  The function
    is pure arithmetic, which is what lets a miner — or an auditor holding
    nothing but chain state — recompute the proposer of any committed round.

    >>> rotation_index(round_number=0, epoch_start=0, view=0, cohort_size=4)
    0
    >>> rotation_index(round_number=5, epoch_start=3, view=0, cohort_size=4)
    2
    >>> # two view changes skip two silent proposers and wrap around
    >>> rotation_index(round_number=5, epoch_start=3, view=2, cohort_size=4)
    0
    """
    if cohort_size < 1:
        raise ConsensusError("cannot rotate over an empty proposer cohort")
    if round_number < epoch_start:
        raise ConsensusError(
            f"round {round_number} precedes its epoch start {epoch_start}"
        )
    return (round_number - epoch_start + view) % cohort_size


def authority_schedule_from_state(state, round_number: int) -> tuple[list[str], int]:
    """The (sorted proposer cohort, epoch start) of an FL round, from chain state.

    The eligible proposers of round ``r`` are the registry's active cohort for
    ``r`` — owners whose membership interval covers the round — restricted to
    registered replicas by construction (every cohort member registered its
    key on chain).  Departed owners keep mining and voting but lose the right
    to propose: trust rotates across the *active* participant set.
    """
    from repro.blockchain.contracts.registry import (
        cohort_for_round_from_state,
        epoch_start_for_round_from_state,
    )

    proposers = cohort_for_round_from_state(state, round_number)
    if not proposers:
        raise ConsensusError(f"no owners are active for round {round_number}")
    return proposers, epoch_start_for_round_from_state(state, round_number)


def scheduled_proposer(state, round_number: int, view: int) -> str:
    """Recompute the proposer of FL round ``round_number`` at view ``view``.

    Pure function of chain state: any replica and any auditor derives the same
    answer, which is what makes the consensus authority verifiable after the
    fact.  The view is bounded to ``[0, cohort size)`` — a round whose every
    view fails aborts instead of wrapping, so no committed block may carry a
    wrapped view that would let a proposer re-schedule itself.
    """
    proposers, epoch_start = authority_schedule_from_state(state, round_number)
    view = int(view)
    if not 0 <= view < len(proposers):
        raise ConsensusError(
            f"view {view} is outside [0, {len(proposers)}) for round {round_number}: "
            "a round exhausts its views and aborts rather than wrapping the rotation"
        )
    return proposers[rotation_index(int(round_number), epoch_start, view, len(proposers))]


def committed_round_of_block(block: Block) -> int | None:
    """The FL round a block commits, or ``None`` for setup/settlement blocks.

    The round's single block carries its ``finalize_round`` call; scanning for
    it is how both miners and auditors map block heights back to FL rounds
    without any off-chain index.
    """
    for tx in block.transactions:
        if tx.contract == "fl_training" and tx.method == "finalize_round":
            return int(tx.args["round_number"])
    return None


def verify_block_authority(state, block: Block) -> None:
    """Reject a proposal whose proposer/view disagree with the on-chain schedule.

    ``state`` is the verifying replica's state *before* executing the block
    (the schedule of round ``r`` only depends on membership boundaries at or
    below ``r``, which are all committed before round ``r``'s block, so every
    replica derives the same schedule).  On chains without
    ``authority_rotation`` the check degenerates to "no block claims a view":
    pre-rotation chains verify unchanged.

    Raises :class:`ConsensusError` on any mismatch.
    """
    from repro.blockchain.contracts.registry import pinned_params

    params = pinned_params(state) or {}
    fl_round = committed_round_of_block(block)
    if params.get("authority_rotation") and fl_round is not None:
        view = block.header.view
        if view is None:
            raise ConsensusError(
                f"block {block.height} commits round {fl_round} without a view number "
                "on an authority-rotation chain"
            )
        expected = scheduled_proposer(state, fl_round, view)
        if block.header.proposer != expected:
            raise ConsensusError(
                f"block {block.height} (round {fl_round}, view {view}) was proposed by "
                f"{block.header.proposer} but the epoch-authority schedule assigns {expected}"
            )
    elif block.header.view is not None:
        raise ConsensusError(
            f"block {block.height} carries view {block.header.view} but no "
            "epoch-authority schedule applies to it (the chain does not run "
            "authority rotation, or the block commits no training round)"
        )


class EpochAuthoritySchedule:
    """Chain-state-derived proposer rotation with view-change fallback.

    Unlike the engine's static round-robin, this schedule owns no authority
    list: it reads the registry's cohort epochs through ``state_reader`` (a
    zero-argument callable returning the current world state) at selection
    time, so membership transactions committed in earlier blocks change who
    may propose from their effective round on.

    Args:
        state_reader: callable returning a replica's current
            :class:`~repro.blockchain.state.WorldState` (any honest replica —
            the schedule is pure chain state, so they all agree).
    """

    def __init__(self, state_reader: Callable[[], Any]) -> None:
        self.state_reader = state_reader

    def proposers_for_round(self, round_number: int) -> list[str]:
        """The round's proposers in view order (view 0 first, then fallbacks)."""
        proposers, epoch_start = authority_schedule_from_state(self.state_reader(), round_number)
        base = rotation_index(int(round_number), epoch_start, 0, len(proposers))
        return [proposers[(base + view) % len(proposers)] for view in range(len(proposers))]


@dataclass
class VerificationResult:
    """Outcome of putting a proposed block to the miner vote.

    Attributes:
        block_hash: hash of the proposed block.
        accepted: whether a strict majority of miners accepted it.
        votes: per-miner boolean votes.
        rejections: per-miner error messages for rejecting miners.
        unreachable: miners whose vote never arrived (delivery status per
            miner); they abstain, which counts as a rejection in the quorum.
    """

    block_hash: str
    accepted: bool
    votes: dict[str, bool] = field(default_factory=dict)
    rejections: dict[str, str] = field(default_factory=dict)
    unreachable: dict[str, str] = field(default_factory=dict)

    @property
    def reject_count(self) -> int:
        """Number of rejecting miners."""
        return sum(1 for vote in self.votes.values() if not vote)

    @property
    def abstain_count(self) -> int:
        """Number of miners whose vote never arrived (counted as rejections)."""
        return len(self.unreachable)


class ConsensusEngine:
    """Coordinates one consensus round among a set of miner nodes.

    The engine itself holds no secret authority: it simply sequences the steps
    a real P2P protocol would perform (select leader, leader proposes, everyone
    verifies, majority decides) in a deterministic, observable way.
    """

    def __init__(self, schedule: EpochAuthoritySchedule | None = None) -> None:
        self.schedule = schedule
        self.round_index = 0

    def select_leader(self, authorities: list[str]) -> str:
        """Round-robin over the sorted authority set; advances the round counter."""
        if not authorities:
            raise ValidationError("authority set must be non-empty")
        ordered = sorted(authorities)
        leader = ordered[self.round_index % len(ordered)]
        self.round_index += 1
        return leader

    @staticmethod
    def tally(
        block: Block,
        votes: dict[str, bool],
        rejections: dict[str, str] | None = None,
        unreachable: dict[str, str] | None = None,
    ) -> VerificationResult:
        """Apply the strict-majority rule to a set of verification votes.

        Miners listed in ``unreachable`` (vote lost or peer partitioned away)
        abstain: they are folded into the tally as ``False`` votes so the
        quorum denominator still counts them — a proposer cut off from the
        swarm cannot manufacture a 1/1 "majority" out of silence.
        """
        votes = dict(votes)
        rejections = dict(rejections or {})
        unreachable = dict(unreachable or {})
        for node_id, status in unreachable.items():
            votes.setdefault(node_id, False)
            rejections.setdefault(node_id, f"no vote received ({status})")
        if not votes:
            raise ConsensusError("no votes were cast")
        accepted = sum(1 for vote in votes.values() if vote) * 2 > len(votes)
        return VerificationResult(
            block_hash=block.block_hash,
            accepted=accepted,
            votes=votes,
            rejections=rejections,
            unreachable=unreachable,
        )
