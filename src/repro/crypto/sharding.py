"""The round assignment: who masks with whom, and which claims a submission may make.

Section IV.A.1 of the paper is one rule, spelled once: :func:`round_assignment`
deals a round's cohort into GroupSV groups (the pinned
:func:`~repro.shapley.group.make_groups` permutation) and returns a frozen
:class:`RoundAssignment` — every owner's group, its mask cohort, and the one
submission check.  The training contract, gossip validation, the round
pipeline, the participant, the audit and the cross-device harness all derive
the round from here, so the rule the contract executes is the rule every other
party replays.

Masks are pairwise within a group and cancel only in the whole group's sum, so
the group sum is the finest sum a chain reader can decode — the paper's
privacy/resolution trade-off is set by the group size alone.  The cross-device
harness deals its committees as groups (:func:`shard_count` of them).
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


@dataclass(frozen=True)
class RoundAssignment:
    """One round's canonical dealing: the groups and every owner's group.

    Attributes:
        round_number: the FL round the assignment belongs to.
        groups: the GroupSV groups in permutation-dealt member order.
        slots: owner -> group id.  Never mutated: a replica hands one
            assignment to every call of a block (``WorldState.derive``).
    """

    round_number: int
    groups: tuple[tuple[str, ...], ...]
    slots: Mapping[str, int]

    def as_record(self) -> dict[str, list]:
        """The dealing as the round's block records it."""
        return {"groups": [list(group) for group in self.groups]}

    def mask_cohort(self, owner: str) -> tuple[str, ...]:
        """The owners whose payloads are summed with ``owner``'s, itself included: its group."""
        return self.groups[self.slots[owner]]

    def check_submission(
        self,
        sender: str,
        group_id: int,
        payload_size: int,
        model_dimension: int | None,
    ) -> str | None:
        """Why a masked-update submission is invalid for this round, or ``None``.

        The claimed group must be the sender's (masks only cancel within the
        right group, so a wrong claim would corrupt two sums at once), and the
        payload must have the pinned model dimension (skipped when none is
        pinned).
        """
        if sender not in self.slots:
            return f"{sender} is not in the round-{self.round_number} cohort"
        expected_group = self.slots[sender]
        if int(group_id) != expected_group:
            return (
                f"{sender} claims group {group_id} but the round-{self.round_number} "
                f"permutation assigns it to group {expected_group}"
            )
        if model_dimension is not None and payload_size != int(model_dimension):
            return f"payload has dimension {payload_size}, expected {model_dimension}"
        return None


def round_assignment(
    cohort: Sequence[str],
    n_groups: int,
    permutation_seed: int,
    round_number: int,
) -> RoundAssignment:
    """Deal a round's cohort into groups (Algorithm 1 lines 1-2).

    A pure function of its arguments, all of which are chain state on the
    on-chain path (the registry's active cohort and the pinned parameters).
    """
    groups = make_groups(cohort, n_groups, permutation_seed, round_number)
    slots = {owner: group_id for group_id, group in enumerate(groups) for owner in group}
    return RoundAssignment(int(round_number), tuple(tuple(group) for group in groups), slots)
