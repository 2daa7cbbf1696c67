"""The round assignment: who masks with whom, and which claims a submission may make.

Section IV.A.1 of the paper is one rule, spelled once: :func:`round_assignment`
deals a round's cohort into GroupSV groups (the pinned
:func:`~repro.shapley.group.make_groups` permutation), optionally splits each
group into committees, and returns a frozen :class:`RoundAssignment` — every
owner's ``(group_id, shard_id)`` slot, its mask cohort, and the one submission
check.  The training contract, gossip validation, the round pipeline, the
participant, the audit and the cross-device harness all derive the round from
here, so the rule the contract executes is the rule every other party replays.

Sharding splits each aggregation cohort (a GroupSV group) into committees of
at most ``shard_size`` members.  Masks are pairwise *within a shard* only —
O(shard_size) per client instead of O(group) — and because ring addition is
associative and commutative, every shard's masks cancel among its own members
and the sum over the group does not depend on how it was sharded: the decoded
group model is bit-identical to the flat aggregation.  Shards are contiguous,
size-balanced slices of each group's permutation-dealt member order, so the
assignment is a pure function of chain state; the round's block records it and
the audit compares the record with its own derivation (see
:func:`repro.core.audit.audit_chain`).

A shard of one member would submit an unmasked update, so the balanced split
never produces a singleton unless the *group* itself has a single member
(which is already unmasked under the flat topology).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.exceptions import GroupingError
from repro.shapley.group import make_groups


def shard_count(n_members: int, shard_size: int) -> int:
    """Number of shards a cohort of ``n_members`` splits into."""
    if n_members < 1:
        raise GroupingError("cannot shard an empty cohort")
    if shard_size < 2:
        raise GroupingError("shard_size must be at least 2 (a singleton shard is unmasked)")
    return -(-n_members // shard_size)


def shard_sizes(n_members: int, shard_size: int) -> list[int]:
    """Balanced shard sizes: each ≤ ``shard_size``, any two differ by ≤ 1.

    Balancing (instead of filling shards to ``shard_size`` and leaving a
    remainder shard) is what keeps the minimum shard size at
    ``n_members // shard_count`` — never 1 for ``n_members ≥ 2``.
    """
    n_shards = shard_count(n_members, shard_size)
    base, remainder = divmod(n_members, n_shards)
    return [base + 1 if index < remainder else base for index in range(n_shards)]


def shard_group(members: Sequence[str], shard_size: int) -> list[list[str]]:
    """Split one group's member list into contiguous, size-balanced shards.

    The input order is the canonical permutation-dealt order from
    :func:`repro.shapley.group.make_groups`, so the slicing is deterministic
    in chain state.  Member ids must be unique.
    """
    members = list(members)
    if len(set(members)) != len(members):
        raise GroupingError("member ids must be unique")
    shards: list[list[str]] = []
    cursor = 0
    for size in shard_sizes(len(members), shard_size):
        shards.append(members[cursor : cursor + size])
        cursor += size
    return shards


@dataclass(frozen=True)
class RoundAssignment:
    """One round's canonical dealing: groups, shards, and every owner's slot.

    Attributes:
        round_number: the FL round the assignment belongs to.
        groups: the GroupSV groups in permutation-dealt member order.
        shards: per group, its committees (``None`` under the flat topology).
        slots: owner -> ``(group_id, shard_id)``; ``shard_id`` is ``None``
            under the flat topology.  Never mutated: a replica hands one
            assignment to every call of a block (``WorldState.derive``).
    """

    round_number: int
    groups: tuple[tuple[str, ...], ...]
    shards: tuple[tuple[tuple[str, ...], ...], ...] | None
    slots: Mapping[str, tuple[int, int | None]]

    def as_record(self) -> dict[str, list]:
        """The dealing as the round's block records it: ``groups``, plus ``shards`` if sharded."""
        record: dict[str, list] = {"groups": [list(group) for group in self.groups]}
        if self.shards is not None:
            record["shards"] = [
                [list(shard) for shard in group_shards] for group_shards in self.shards
            ]
        return record

    def mask_cohort(self, owner: str) -> tuple[str, ...]:
        """The owners whose payloads are summed with ``owner``'s, itself included.

        Only their masks must cancel: the owner's shard under the sharded
        topology, its whole group under the flat one.
        """
        group_id, shard_id = self.slots[owner]
        return self.groups[group_id] if shard_id is None else self.shards[group_id][shard_id]

    def check_submission(
        self,
        sender: str,
        group_id: int,
        shard_id: int | None,
        payload_size: int,
        model_dimension: int | None,
    ) -> str | None:
        """Why a masked-update submission is invalid for this round, or ``None``.

        The claimed group and shard must be the sender's slot (masks only
        cancel within the right cohort, so a wrong claim would corrupt two
        sums at once), a flat round admits no shard claim, and the payload
        must have the pinned model dimension (skipped when none is pinned).
        """
        if sender not in self.slots:
            return f"{sender} is not in the round-{self.round_number} cohort"
        expected_group, expected_shard = self.slots[sender]
        if int(group_id) != expected_group:
            return (
                f"{sender} claims group {group_id} but the round-{self.round_number} "
                f"permutation assigns it to group {expected_group}"
            )
        if self.shards is None:
            if shard_id is not None:
                return "shard claims are invalid under the flat aggregation topology"
        elif shard_id is None or int(shard_id) != expected_shard:
            return (
                f"{sender} claims shard {shard_id} but the canonical assignment "
                f"puts it in shard {expected_shard} of group {expected_group}"
            )
        if model_dimension is not None and payload_size != int(model_dimension):
            return f"payload has dimension {payload_size}, expected {model_dimension}"
        return None


def round_assignment(
    cohort: Sequence[str],
    n_groups: int,
    permutation_seed: int,
    round_number: int,
    shard_size: int | None = None,
) -> RoundAssignment:
    """Deal a round's cohort into groups (Algorithm 1 lines 1-2) and, if sharded, committees.

    A pure function of its arguments, all of which are chain state on the
    on-chain path (the registry's active cohort and the pinned parameters).
    """
    groups = make_groups(cohort, n_groups, permutation_seed, round_number)
    if shard_size is None:
        shards = None
        slots = {
            owner: (group_id, None) for group_id, group in enumerate(groups) for owner in group
        }
    else:
        shards = tuple(
            tuple(tuple(shard) for shard in shard_group(group, shard_size)) for group in groups
        )
        slots = {
            owner: (group_id, shard_id)
            for group_id, group_shards in enumerate(shards)
            for shard_id, shard in enumerate(group_shards)
            for owner in shard
        }
    return RoundAssignment(
        int(round_number), tuple(tuple(group) for group in groups), shards, slots
    )
