"""Contribution-evaluation contract: Algorithm 1 (GroupSV) executed on chain.

After a training round is finalized, any participant (typically the round's
leader) submits an ``evaluate_round`` transaction.  The contract

1. reads the round's published group models and grouping from the training
   contract,
2. builds coalition models over the groups by plain averaging (line 4),
3. scores every coalition with the agreed utility function — accuracy on the
   public validation set the contract was deployed with (line 6),
4. computes each group's Shapley value and splits it equally among the group's
   members (lines 5-7), and
5. accumulates per-user totals ``v_i = Σ_r v_i^r``.

Because the contract is deterministic, a fraudulent leader cannot inflate its
own contribution: honest miners re-execute the evaluation and reject any block
whose receipts differ (see the adversarial integration tests).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.blockchain.contracts.base import Contract, ContractContext, contract_method
from repro.blockchain.contracts.fl_training import read_round_record
from repro.blockchain.contracts.registry import (
    epochs_from_state,
    pinned_sv_estimator,
    read_protocol_params,
)
from repro.exceptions import ContractStateError, ValidationError
from repro.shapley.estimator import estimator_seed_for_round
from repro.shapley.group import SV_ASSEMBLY_VERSION, evaluate_group_game
from repro.shapley.utility import AccuracyUtility
from repro.utils.validation import require_format_tag

CONTRACT_NAME = "contribution"


class ContributionContract(Contract):
    """On-chain GroupSV evaluation against a public validation set.

    The validation set and model family are part of the contract's deployment
    (agreed at the off-chain setup stage), so every miner scores coalitions
    identically.
    """

    name = CONTRACT_NAME

    def __init__(
        self,
        validation_features: np.ndarray,
        validation_labels: np.ndarray,
        n_classes: int,
    ) -> None:
        super().__init__()
        self.validation_features = np.asarray(validation_features, dtype=np.float64)
        self.validation_labels = np.asarray(validation_labels).ravel().astype(int)
        if self.validation_features.ndim != 2:
            raise ValidationError("validation features must be 2-D")
        if self.validation_features.shape[0] != self.validation_labels.size:
            raise ValidationError("validation features and labels disagree on sample count")
        if self.validation_features.shape[0] == 0:
            raise ValidationError("the contribution contract needs a non-empty validation set")
        self.n_classes = int(n_classes)
        self._scorer = AccuracyUtility(self.validation_features, self.validation_labels, self.n_classes)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    @contract_method
    def evaluate_round(self, ctx: ContractContext, round_number: int) -> dict[str, Any]:
        """Run Algorithm 1 lines 4-7 for a finalized training round."""
        round_number = int(round_number)
        if ctx.contains(f"evaluated/{round_number}"):
            raise ContractStateError(f"round {round_number} has already been evaluated")
        params = read_protocol_params(ctx)  # fails early if setup never completed
        record = read_round_record(ctx, round_number)
        groups: list[list[str]] = [list(group) for group in record["groups"]]
        group_models = [np.asarray(model, dtype=np.float64) for model in record["group_models"]]
        if len(groups) != len(group_models):
            raise ContractStateError("round record is inconsistent: groups vs group models")

        require_format_tag(
            "sv_assembly_version", params.get("sv_assembly_version", SV_ASSEMBLY_VERSION),
            SV_ASSEMBLY_VERSION, ContractStateError,
        )
        # The estimator seed is a pure function of the pinned permutation seed
        # and the round, so the proposer cannot shop for a favourable sample
        # and auditors re-derive it from chain state.  The evaluation is
        # deterministic for a given software stack (code version + BLAS
        # backend, which the protocol already assumes is shared), so honest
        # miners compute identical receipts.
        estimator_name, sv_samples = pinned_sv_estimator(params)
        evaluation = evaluate_group_game(
            group_models,
            groups,
            self._scorer,
            estimator=estimator_name,
            n_samples=sv_samples,
            seed=estimator_seed_for_round(int(params["permutation_seed"]), round_number),
        )
        user_values = evaluation.user_values
        global_utility = evaluation.global_utility
        evaluation_extras: dict[str, Any] = {}
        if evaluation.estimator is not None:
            # Sampled receipts carry the per-group and per-owner half-widths
            # and the estimator metadata; the audit re-runs the estimator and
            # checks "within bound" instead of exact equality.  Of the
            # telemetry only the deterministic counters go on chain: they are
            # a pure function of (labels, n_samples, seed), so every miner
            # writes the same receipt.  Wall-clock time stays off-chain (see
            # the harness telemetry).
            receipt = {
                key: evaluation.estimator[key]
                for key in ("name", "n_samples", "seed", "confidence", "tolerance")
            }
            receipt["telemetry"] = {
                counter: int(evaluation.estimator["telemetry"][counter])
                for counter in ("coalitions", "cache_hits", "batches")
            }
            evaluation_extras = {
                "estimator": receipt,
                "group_half_widths": list(evaluation.group_half_widths),
                "user_half_widths": evaluation.user_half_widths,
            }

        totals = ctx.get("totals", {})
        for owner, value in user_values.items():
            totals[owner] = float(totals.get(owner, 0.0) + value)

        ctx.set(
            f"evaluation/{round_number}",
            {
                "round": round_number,
                "groups": groups,
                "group_values": list(evaluation.group_values),
                "user_values": user_values,
                "coalition_utilities": {
                    "/".join(coalition): value
                    for coalition, value in evaluation.coalition_utilities.items()
                },
                "global_utility": global_utility,
                **evaluation_extras,
            },
        )
        ctx.set("totals", totals)
        ctx.set(f"evaluated/{round_number}", True)
        ctx.emit(
            "RoundEvaluated",
            round=round_number,
            by=ctx.sender,
            global_utility=global_utility,
        )
        return {"status": "evaluated", "round": round_number, "user_values": user_values}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @contract_method
    def get_round_evaluation(self, ctx: ContractContext, round_number: int) -> dict[str, Any] | None:
        """The stored evaluation record for a round (None if not evaluated)."""
        return ctx.get(f"evaluation/{int(round_number)}")

    @contract_method
    def get_total_contributions(self, ctx: ContractContext) -> dict[str, float]:
        """Accumulated contributions v_i = Σ_r v_i^r for every owner."""
        return ctx.get("totals", {})


def read_total_contributions(ctx: ContractContext) -> dict[str, float]:
    """Helper for the reward contract: read accumulated contributions."""
    totals = ctx.read_external(CONTRACT_NAME, "totals", default=None)
    if totals is None:
        raise ContractStateError("no contributions have been recorded yet")
    return dict(totals)


def epoch_contributions_for(ctx: ContractContext, epoch_record: dict[str, Any]) -> dict[str, float]:
    """Sum one epoch record's evaluated rounds into per-owner totals.

    Only owners grouped in the epoch's rounds appear — an owner that joined
    later or left earlier has no entry, which is exactly what per-epoch
    settlement pays against.  Callers that already hold the epoch table (see
    ``RewardContract.distribute_by_epoch``) use this directly instead of
    re-deriving it per epoch through :func:`read_epoch_contributions`.
    """
    totals: dict[str, float] = {}
    for round_number in range(int(epoch_record["start"]), int(epoch_record["end"])):
        evaluation = ctx.read_external(CONTRACT_NAME, f"evaluation/{round_number}")
        if evaluation is None:
            continue
        for owner, value in evaluation["user_values"].items():
            totals[owner] = totals.get(owner, 0.0) + float(value)
    return totals


def read_epoch_contributions(ctx: ContractContext, epoch: int) -> dict[str, float]:
    """One epoch's accumulated contributions, derived purely from chain state."""
    params = read_protocol_params(ctx)
    for record in epochs_from_state(ctx.state, int(params["n_rounds"])):
        if int(record["epoch"]) == int(epoch):
            return epoch_contributions_for(ctx, record)
    raise ContractStateError(f"epoch {epoch} does not exist on this chain")
