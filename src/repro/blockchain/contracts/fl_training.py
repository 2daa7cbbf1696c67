"""FL training contract: masked-update collection and secure group aggregation.

Per round ``r`` the contract

1. accepts one masked update per registered owner (`submit_masked_update`),
   checking the owner's claimed group against the round's
   canonical :class:`~repro.crypto.sharding.RoundAssignment` — the same
   object, and the same ``check_submission``, that gossip validation, the
   participants and the audit use;
2. once all owners have submitted, `finalize_round` runs the one
   ring-aggregation kernel (:func:`repro.crypto.masking.aggregate_groups`: the
   pairwise masks cancel in each group's sum, which decodes into the
   group-average model ``W_j``), averages the group models into the global
   model ``W_G``, and publishes both.

Everything the contract does is a deterministic function of on-chain data, so
any miner re-executing the round reproduces the same group and global models.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.blockchain.contracts.base import Contract, ContractContext, contract_method
from repro.blockchain.contracts.registry import (
    CONTRACT_NAME as REGISTRY_CONTRACT,
    read_active_cohort,
    read_protocol_params,
)
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.masking import aggregate_groups
from repro.crypto.sharding import RoundAssignment, round_assignment
from repro.exceptions import ContractStateError

CONTRACT_NAME = "fl_training"


def _codec_from_params(params: dict[str, Any]) -> FixedPointCodec:
    """Build the fixed-point codec pinned at setup time."""
    return FixedPointCodec(
        precision_bits=int(params["precision_bits"]),
        field_bits=int(params["field_bits"]),
        max_summands=int(params.get("max_summands", 256)),
    )


def pinned_round_assignment(
    params: dict[str, Any], cohort: Sequence[str], round_number: int
) -> RoundAssignment:
    """A round's canonical assignment: the registry cohort under the pinned parameters."""
    return round_assignment(cohort, int(params["n_groups"]), int(params["permutation_seed"]), round_number)


def _dealt_round(ctx: ContractContext, params: dict[str, Any], round_number: int) -> RoundAssignment:
    """The round's assignment, dealt once per block on this replica (it reads the registry alone)."""
    return ctx.state.derive(
        REGISTRY_CONTRACT, ("assignment", round_number),
        lambda: pinned_round_assignment(params, read_active_cohort(ctx, round_number), round_number),
    )


class FLTrainingContract(Contract):
    """Collects masked updates and performs the on-chain secure aggregation."""

    name = CONTRACT_NAME

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    @contract_method
    def submit_masked_update(
        self,
        ctx: ContractContext,
        round_number: int,
        group_id: int,
        payload: np.ndarray,
        n_samples: int = 0,
    ) -> dict[str, Any]:
        """Record the sender's masked local model for a round.

        The payload is the fixed-point encoded, pairwise-masked flat weight
        vector.  The sender must hold a slot in the round's canonical
        assignment (derived from the pinned parameters over the round's
        *active cohort* — the registry's epoch view) and claim exactly its
        group.  Double submissions are rejected.
        """
        params = read_protocol_params(ctx)
        round_number = int(round_number)
        if round_number < 0 or round_number >= int(params["n_rounds"]):
            raise ContractStateError(f"round {round_number} is outside the configured schedule")
        if ctx.contains(f"finalized/{round_number}"):
            raise ContractStateError(f"round {round_number} is already finalized")

        assignment = _dealt_round(ctx, params, round_number)
        update_key = f"update/{round_number}/{ctx.sender}"
        duplicate = ctx.contains(update_key)
        # A duplicate is reported after a wrong claim but before a wrong
        # payload size, so the size is only checked on a first submission.
        reason = assignment.check_submission(
            ctx.sender, group_id, np.size(payload),
            None if duplicate else params.get("model_dimension"),
        )
        if reason is not None:
            raise ContractStateError(reason)
        if duplicate:
            raise ContractStateError(f"{ctx.sender} already submitted an update for round {round_number}")
        expected_group = assignment.slots[ctx.sender]
        payload = np.asarray(payload, dtype=np.uint64)
        ctx.set(update_key, {
            "owner": ctx.sender,
            "round": round_number,
            "group": expected_group,
            "payload": payload,
            "n_samples": int(n_samples),
        })
        submitted = ctx.get(f"submitted/{round_number}", [])
        ctx.set(f"submitted/{round_number}", sorted(submitted + [ctx.sender]))
        ctx.emit("MaskedUpdateSubmitted", owner=ctx.sender, round=round_number, group=expected_group)
        return {"status": "accepted", "group": expected_group}

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    @contract_method
    def finalize_round(self, ctx: ContractContext, round_number: int) -> dict[str, Any]:
        """Aggregate a round once every owner in the round's cohort has submitted.

        Publishes, per group, the decoded group-average model ``W_j`` and the
        global model ``W_G`` (the unweighted mean of the group models, matching
        Algorithm 1), plus the grouping used — everything the contribution
        contract needs.  The required submitter set is the registry's active
        cohort for the round, so owners that left (or have not yet joined) are
        neither awaited nor aggregated.
        """
        params = read_protocol_params(ctx)
        round_number = int(round_number)
        if ctx.contains(f"finalized/{round_number}"):
            raise ContractStateError(f"round {round_number} is already finalized")
        owners = read_active_cohort(ctx, round_number)
        submitted = ctx.get(f"submitted/{round_number}", [])
        missing = sorted(set(owners) - set(submitted))
        if missing:
            raise ContractStateError(f"round {round_number} is missing updates from: {missing}")

        assignment = _dealt_round(ctx, params, round_number)
        groups = assignment.groups
        payloads = {
            owner: np.asarray(ctx.get(f"update/{round_number}/{owner}")["payload"], dtype=np.uint64)
            for owner in owners
        }
        group_models = aggregate_groups(payloads, groups, _codec_from_params(params))
        ctx.set(
            f"round/{round_number}",
            {
                **assignment.as_record(),
                "group_sizes": [len(group) for group in groups],
                "group_models": group_models,
                "global_model": np.mean(np.stack(group_models, axis=0), axis=0),
            },
        )
        ctx.set(f"finalized/{round_number}", True)
        ctx.set("latest_round", round_number)
        ctx.emit("RoundFinalized", round=round_number, n_groups=len(groups), by=ctx.sender)
        return {"status": "finalized", "round": round_number, "n_groups": len(groups)}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @contract_method
    def get_round(self, ctx: ContractContext, round_number: int) -> dict[str, Any] | None:
        """The published aggregation record for a round (None before finalization)."""
        return ctx.get(f"round/{int(round_number)}")

    @contract_method
    def get_global_model(self, ctx: ContractContext, round_number: int) -> np.ndarray | None:
        """The global model W_G published for a round (None before finalization)."""
        record = ctx.get(f"round/{int(round_number)}")
        return None if record is None else record["global_model"]

    @contract_method
    def get_submissions(self, ctx: ContractContext, round_number: int) -> list[str]:
        """Owners that have submitted an update for the round so far."""
        return ctx.get(f"submitted/{int(round_number)}", [])


def read_round_record(ctx: ContractContext, round_number: int) -> dict[str, Any]:
    """Helper for the contribution contract: read a finalized round or fail."""
    record = ctx.read_external(CONTRACT_NAME, f"round/{int(round_number)}")
    if record is None:
        raise ContractStateError(f"round {round_number} has not been finalized on the training contract")
    return record
