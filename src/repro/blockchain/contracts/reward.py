"""Reward contract: converts accumulated contributions into token payouts.

The paper motivates contribution evaluation with incentive allocation ("a fair
reward based on their contributions").  This contract closes that loop: given a
reward pool, it pays each owner proportionally to its positive accumulated
Shapley value (owners with non-positive contributions receive nothing), and it
keeps auditable per-owner balances.

On dynamic-membership chains the contract additionally settles *per cohort
epoch*: each epoch's rounds accumulated their own contribution totals on the
contribution contract, so an owner absent from an epoch simply has no entry in
that epoch's totals and earns nothing for it.  ``distribute_epoch`` pays one
epoch; ``distribute_by_epoch`` splits a pool across every recorded epoch
proportionally to the epoch's positive SV mass and settles each epoch
internally the same way.
"""

from __future__ import annotations

from typing import Any

from repro.blockchain.contracts.base import Contract, ContractContext, contract_method
from repro.blockchain.contracts.contribution import (
    epoch_contributions_for,
    read_epoch_contributions,
    read_total_contributions,
)
from repro.blockchain.contracts.registry import epochs_from_state, read_protocol_params
from repro.exceptions import ContractStateError

CONTRACT_NAME = "reward"


def positive_weights(totals: dict[str, float]) -> dict[str, float]:
    """Each owner's settleable weight ``max(v, 0)``, in sorted-owner order.

    Sorted because float sums over the result must not depend on dict order:
    a replica restored from a store reads state dicts in canonical (sorted)
    order, a live one in insertion order, and both must compute the same
    settlement to the last bit.
    """
    return {owner: max(float(totals[owner]), 0.0) for owner in sorted(totals)}


def proportional_payouts(totals: dict[str, float], reward_pool: float) -> dict[str, float]:
    """Split a pool proportionally to positive contributions (equal split at σ=0).

    Module-level so the transparency audit recomputes settlements with the
    exact same rule the contract executes.
    """
    positive = positive_weights(totals)
    weight_sum = sum(positive.values())
    if weight_sum <= 0.0:
        return {owner: reward_pool / len(totals) for owner in totals}
    return {owner: reward_pool * weight / weight_sum for owner, weight in positive.items()}


def mass_proportional_pools(
    epoch_totals: dict[int, dict[str, float]],
    masses: dict[int, float],
    reward_pool: float,
) -> dict[int, float]:
    """The per-epoch pool split of ``distribute_by_epoch``.

    Epochs with no settleable value get nothing, the split is proportional to
    positive SV mass (equal when no epoch has positive mass), and the last
    settleable epoch takes the float remainder so the pools sum exactly to
    ``reward_pool``.  Module-level for the same reason as
    :func:`proportional_payouts`: the transparency audit re-derives the split
    with the very rule the contract executes.
    """
    epochs = [epoch for epoch in sorted(epoch_totals) if epoch_totals[epoch]]
    if not epochs:
        return {}
    total_mass = sum(masses[epoch] for epoch in epochs)
    pools: dict[int, float] = {}
    allocated = 0.0
    for i, epoch in enumerate(epochs):
        if i == len(epochs) - 1:
            pools[epoch] = float(reward_pool) - allocated
        elif total_mass > 0.0:
            pools[epoch] = float(reward_pool) * masses[epoch] / total_mass
        else:
            pools[epoch] = float(reward_pool) / len(epochs)
        allocated += pools[epoch]
    return pools


class RewardContract(Contract):
    """Proportional reward distribution over accumulated contributions."""

    name = CONTRACT_NAME

    @contract_method
    def distribute(self, ctx: ContractContext, reward_pool: float, label: str = "final") -> dict[str, Any]:
        """Distribute ``reward_pool`` tokens proportionally to positive contributions.

        A distribution label can only be used once, so re-running the protocol's
        final step cannot double-pay.  If every contribution is non-positive the
        pool is split equally (the degenerate σ = 0 case where all owners are
        interchangeable).
        """
        if reward_pool < 0:
            raise ContractStateError("reward_pool must be non-negative")
        if ctx.contains(f"distribution/{label}"):
            raise ContractStateError(f"distribution {label!r} has already been executed")
        totals = read_total_contributions(ctx)
        if not totals:
            raise ContractStateError("there are no contributions to reward")

        payouts = proportional_payouts(totals, reward_pool)
        self._credit(ctx, payouts)
        ctx.set(
            f"distribution/{label}",
            {"reward_pool": float(reward_pool), "payouts": {k: float(v) for k, v in payouts.items()}},
        )
        ctx.emit("RewardsDistributed", label=label, reward_pool=float(reward_pool), by=ctx.sender)
        return {"status": "distributed", "payouts": payouts}

    @contract_method
    def distribute_epoch(
        self, ctx: ContractContext, epoch: int, reward_pool: float, label: str | None = None
    ) -> dict[str, Any]:
        """Distribute a pool over one cohort epoch's accumulated contributions.

        Only owners active during the epoch appear in its totals, so a joiner
        earns nothing for epochs before its entry and a departed owner earns
        nothing after its exit.  Each epoch label is one-shot, like ``distribute``.
        """
        if reward_pool < 0:
            raise ContractStateError("reward_pool must be non-negative")
        epoch = int(epoch)
        label = f"epoch-{epoch}" if label is None else label
        if ctx.contains(f"distribution/{label}"):
            raise ContractStateError(f"distribution {label!r} has already been executed")
        totals = read_epoch_contributions(ctx, epoch)
        if not totals:
            raise ContractStateError(f"epoch {epoch} has no contributions to reward")

        payouts = proportional_payouts(totals, float(reward_pool))
        self._credit(ctx, payouts)
        ctx.set(
            f"distribution/{label}",
            {
                "epoch": epoch,
                "reward_pool": float(reward_pool),
                "payouts": {k: float(v) for k, v in payouts.items()},
            },
        )
        ctx.emit("EpochRewardsDistributed", label=label, epoch=epoch, reward_pool=float(reward_pool), by=ctx.sender)
        return {"status": "distributed", "epoch": epoch, "payouts": payouts}

    @contract_method
    def distribute_by_epoch(self, ctx: ContractContext, reward_pool: float, label: str = "final") -> dict[str, Any]:
        """Split a pool across every recorded epoch by positive SV mass, then settle each.

        The per-epoch pools sum to ``reward_pool`` exactly (the last epoch takes
        the remainder), each epoch pays its own cohort proportionally, and the
        stored record keeps the full per-epoch breakdown for auditors.  When no
        epoch has positive mass the pool splits equally across epochs.
        """
        if reward_pool < 0:
            raise ContractStateError("reward_pool must be non-negative")
        if ctx.contains(f"distribution/{label}"):
            raise ContractStateError(f"distribution {label!r} has already been executed")
        params = read_protocol_params(ctx)
        epoch_totals = {
            int(record["epoch"]): epoch_contributions_for(ctx, record)
            for record in epochs_from_state(ctx.state, int(params["n_rounds"]))
        }
        masses = {
            epoch: sum(positive_weights(totals).values())
            for epoch, totals in epoch_totals.items()
        }
        # An epoch with no evaluated rounds has nobody to pay; it gets no pool.
        pools = mass_proportional_pools(epoch_totals, masses, float(reward_pool))
        if not pools:
            raise ContractStateError("no epoch contributions have been recorded")

        breakdown: dict[str, dict[str, Any]] = {}
        combined: dict[str, float] = {}
        for epoch in sorted(pools):
            payouts = proportional_payouts(epoch_totals[epoch], pools[epoch])
            breakdown[str(epoch)] = {
                "reward_pool": float(pools[epoch]),
                "sv_mass": float(masses[epoch]),
                "payouts": {k: float(v) for k, v in payouts.items()},
            }
            for owner, payout in payouts.items():
                combined[owner] = combined.get(owner, 0.0) + float(payout)

        self._credit(ctx, combined)
        ctx.set(
            f"distribution/{label}",
            {
                "reward_pool": float(reward_pool),
                "payouts": {k: float(v) for k, v in combined.items()},
                "epochs": breakdown,
            },
        )
        ctx.emit(
            "RewardsDistributed",
            label=label,
            reward_pool=float(reward_pool),
            by=ctx.sender,
            epochs=len(pools),
        )
        return {"status": "distributed", "payouts": combined, "epochs": breakdown}

    def _credit(self, ctx: ContractContext, payouts: dict[str, float]) -> None:
        """Accumulate payouts into the auditable per-owner balances."""
        balances = ctx.get("balances", {})
        for owner, payout in payouts.items():
            balances[owner] = float(balances.get(owner, 0.0) + payout)
        ctx.set("balances", balances)

    @contract_method
    def get_balances(self, ctx: ContractContext) -> dict[str, float]:
        """Current token balance per owner."""
        return ctx.get("balances", {})

    @contract_method
    def get_distribution(self, ctx: ContractContext, label: str = "final") -> dict[str, Any] | None:
        """A specific distribution record (None if that label was never executed)."""
        return ctx.get(f"distribution/{label}")
