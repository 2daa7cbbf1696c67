"""GroupSV — Algorithm 1 of the paper.

Inputs: users I, their (masked) local weights, a shared random seed ``e``, the
round number ``r``, a utility function u(.), and the number of groups ``m``.

1. Permute the users with ``permutation(e, r, I)``.
2. Assign users to ``m`` groups following the permutation.
3. Build one group model per group by (securely) averaging its members' local
   weights.
4. Build coalition models for every subset of groups by *plain* averaging of
   the group models.
5. Compute each group's Shapley value over the m-player group game.
6. Assign each user 1/|G_j| of its group's value.

Steps 1-2 are pure functions here; step 3 is performed by secure aggregation
(or plainly, for the unmasked reference path).  Steps 4-6 exist exactly once,
as :func:`evaluate_group_game`: the on-chain contribution contract, both audit
paths, the cross-device harness and :func:`compute_group_shapley` all call it
and add only what is theirs (state writes, mismatch reporting, timers,
``ModelParameters`` packing) — so the auditor runs the contract's code by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.exceptions import GroupingError, ShapleyError
from repro.fl.model import ModelParameters
from repro.shapley.engine import (
    MAX_PLAYERS,
    coalition_utility_vector,
    exact_shapley_from_utility_vector,
    mask_coalition,
)
from repro.shapley.estimator import sampled_group_shapley
from repro.shapley.utility import AccuracyUtility
from repro.utils.rng import spawn_rng

#: Format tag of the exact-SV assembly (the vectorized bitmask assembly).
#: Version 1, the scalar subset enumeration, is retired from the runtime: its
#: floating-point summation order differs, so a chain pinned to it must be
#: refused rather than re-evaluated.
SV_ASSEMBLY_VERSION = 2


def permute_users(users: Sequence[str], seed: int, round_number: int) -> list[str]:
    """The permutation π = permutation(e, r, I) from Algorithm 1 line 1.

    Deterministic in (seed, round, user set); independent of input order.
    """
    if not users:
        raise GroupingError("cannot permute an empty user list")
    ordered = sorted(users)
    rng = spawn_rng("groupsv-permutation", seed, round_number)
    permutation = rng.permutation(len(ordered))
    return [ordered[i] for i in permutation]


def make_groups(users: Sequence[str], m: int, seed: int, round_number: int) -> list[list[str]]:
    """Partition users into m groups following the round permutation (lines 1-2).

    Users are dealt round-robin along the permutation (user k goes to group
    k mod m), which matches the paper's example where consecutive permutation
    positions land in different groups (π = A,E,H,B,F,I,C,G,D with m = 3 gives
    G1 = [A,E,H]).
    """
    users = list(users)
    if len(set(users)) != len(users):
        raise GroupingError("user ids must be unique")
    if not 1 <= m <= len(users):
        raise GroupingError(f"number of groups m={m} must be in [1, {len(users)}]")
    permuted = permute_users(users, seed, round_number)
    groups: list[list[str]] = [[] for _ in range(m)]
    for position, user in enumerate(permuted):
        groups[position % m].append(user)
    if any(not group for group in groups):
        raise GroupingError("grouping produced an empty group")
    return groups


def aggregate_group_models(
    groups: Sequence[Sequence[str]],
    local_models: Mapping[str, ModelParameters],
) -> list[ModelParameters]:
    """Algorithm 1 line 3 (plain version): W_j = mean of group j's local weights.

    The blockchain path computes the same quantity through secure aggregation;
    this helper is the reference the integration tests compare against.
    """
    models = []
    for group in groups:
        missing = [user for user in group if user not in local_models]
        if missing:
            raise ShapleyError(f"missing local models for users: {missing}")
        models.append(ModelParameters.mean([local_models[user] for user in group]))
    return models


@dataclass(frozen=True)
class GroupShapleyResult:
    """Everything Algorithm 1 outputs (plus provenance useful for audits).

    Attributes:
        round_number: the round r this evaluation belongs to.
        n_groups: the configured m.
        groups: the user grouping actually used.
        group_values: Shapley value V_j per group index.
        user_values: per-user contributions v_i^r (group value split equally).
        global_model: the aggregation of all group models, W_G.
        coalition_utilities: the utility of every evaluated group coalition.
    """

    round_number: int
    n_groups: int
    groups: tuple[tuple[str, ...], ...]
    group_values: tuple[float, ...]
    user_values: dict[str, float]
    global_model: ModelParameters
    coalition_utilities: dict[tuple[str, ...], float] = field(default_factory=dict)


@dataclass(frozen=True)
class GroupEvaluation:
    """What Algorithm 1 lines 4-7 yield for one round (see :func:`evaluate_group_game`).

    Attributes:
        labels: the group game's player labels, in group order.
        group_values: Shapley value (or estimate) per group, in group order.
        group_half_widths: confidence half-width per group; zeros when exact.
        global_utility: utility of the grand coalition of all groups.
        coalition_utilities: utility per non-empty coalition (sorted label
            tuple), as the exact receipt publishes; empty when sampled.
        estimator: the sampled estimator's record (name, sample count, seed,
            confidence, tolerance, evaluations, telemetry); ``None`` when exact.
        user_values / user_half_widths: the equal split of each group's value
            and bound among its members.
    """

    labels: tuple[str, ...]
    group_values: tuple[float, ...]
    group_half_widths: tuple[float, ...]
    global_utility: float
    coalition_utilities: dict[tuple[str, ...], float]
    estimator: dict[str, Any] | None
    user_values: dict[str, float]
    user_half_widths: dict[str, float]


def split_equally(groups: Sequence[Sequence[str]], amounts: Sequence[float]) -> dict[str, float]:
    """Algorithm 1 line 7: each member gets ``1/|G_j|`` of its group's amount."""
    shares: dict[str, float] = {}
    for group, amount in zip(groups, amounts):
        share = amount / len(group)
        for user in group:
            shares[user] = share
    return shares


def evaluate_group_game(
    group_vectors: Sequence[np.ndarray],
    groups: Sequence[Sequence[str]],
    scorer,
    estimator: str = "exact",
    n_samples: int = 0,
    seed: int = 0,
) -> GroupEvaluation:
    """Algorithm 1 lines 4-7 — the one GroupSV kernel.

    A pure function of its arguments: coalition models are plain averages of
    the groups' flat model vectors (line 4), scored by ``scorer`` (line 6),
    turned into per-group Shapley values (line 5) and split equally inside
    each group (line 7).

    Args:
        group_vectors: the flat model vector W_j of each group, in group order.
        groups: the members of each group, same order.
        scorer: u(.) over flat vectors, an ``AccuracyUtility`` (exact needs only ``score_batch``).
        estimator: ``"exact"`` enumerates all 2^m coalitions and assembles
            exact values; ``"sampled"`` runs the batched stratified
            permutation estimator with ``n_samples`` permutations from ``seed``.
        n_samples / seed: the sampled estimator's pinned inputs (ignored when
            exact).
    """
    if len(group_vectors) != len(groups):
        raise ShapleyError("one group model per group is required")
    if not groups:
        raise ShapleyError("at least one group is required")
    m = len(groups)
    labels = tuple(f"group-{j}" for j in range(m))
    if estimator == "sampled":
        estimate = sampled_group_shapley(
            labels, dict(zip(labels, group_vectors)), scorer,
            n_permutations=n_samples, seed=seed,
        )
        group_values = tuple(estimate.values[label] for label in labels)
        group_half_widths = tuple(estimate.half_widths[label] for label in labels)
        global_utility = estimate.grand_utility
        coalition_utilities: dict[tuple[str, ...], float] = {}
        record: dict[str, Any] | None = {
            "name": "sampled",
            "n_samples": int(estimate.n_permutations),
            "seed": int(estimate.seed),
            "confidence": float(estimate.confidence),
            "tolerance": float(estimate.tolerance),
            "evaluations": int(estimate.evaluations),
            "telemetry": dict(estimate.telemetry),
        }
    elif estimator == "exact":
        if m > MAX_PLAYERS:
            # Past the cap the 2^m enumeration is the infeasible computation
            # the sampled estimator exists to retire: refuse, don't burn CPU.
            raise ShapleyError(
                f"exact GroupSV over {m} groups needs 2^{m} coalition evaluations "
                f"(the engine caps at {MAX_PLAYERS} players); use sv_estimator='sampled'"
            )
        # Players are the *lexicographically sorted* labels ("group-10" sorts
        # before "group-2"): bit i is the i-th sorted label, which fixes both
        # the coalition-mean summation order and the published coalition keys.
        order = sorted(range(m), key=labels.__getitem__)
        players = [labels[j] for j in order]
        utilities = coalition_utility_vector(
            np.stack([np.asarray(group_vectors[j], dtype=np.float64).ravel() for j in order]),
            scorer,
        )
        by_bit = exact_shapley_from_utility_vector(utilities)
        values = [0.0] * m
        for bit, j in enumerate(order):
            values[j] = float(by_bit[bit])
        group_values = tuple(values)
        group_half_widths = (0.0,) * m
        global_utility = float(utilities[-1])
        coalition_utilities = {
            mask_coalition(mask, players): float(utilities[mask])
            for mask in range(1, utilities.size)
        }
        record = None
    else:
        raise ShapleyError(f"sv_estimator must be 'exact' or 'sampled', got {estimator!r}")
    return GroupEvaluation(
        labels=labels,
        group_values=group_values,
        group_half_widths=group_half_widths,
        global_utility=global_utility,
        coalition_utilities=coalition_utilities,
        estimator=record,
        user_values=split_equally(groups, group_values),
        user_half_widths=split_equally(groups, group_half_widths),
    )


def compute_group_shapley(
    group_models: Sequence[ModelParameters],
    groups: Sequence[Sequence[str]],
    scorer: AccuracyUtility,
    round_number: int = 0,
) -> GroupShapleyResult:
    """Algorithm 1 lines 4-7: group-level SV from per-group models.

    :func:`evaluate_group_game` over ``ModelParameters``: packs the group
    models into flat vectors and the result into a :class:`GroupShapleyResult`.

    Args:
        group_models: W_j for each group (from secure or plain aggregation).
        groups: the user grouping (same order as ``group_models``).
        scorer: the utility scorer u(.) applied to coalition models.
        round_number: recorded in the result for bookkeeping.
    """
    evaluation = evaluate_group_game(
        [model.to_vector() for model in group_models], groups, scorer
    )
    return GroupShapleyResult(
        round_number=round_number,
        n_groups=len(groups),
        groups=tuple(tuple(group) for group in groups),
        group_values=evaluation.group_values,
        user_values=evaluation.user_values,
        global_model=ModelParameters.mean(list(group_models)),
        coalition_utilities=evaluation.coalition_utilities,
    )


def group_shapley_round(
    local_models: Mapping[str, ModelParameters],
    m: int,
    seed: int,
    round_number: int,
    scorer: AccuracyUtility,
) -> GroupShapleyResult:
    """Run the full Algorithm 1 for one round on *plain* local models.

    This is the unmasked reference path used by Fig. 2's similarity sweep and
    by tests; the blockchain protocol reproduces it with masked updates.
    """
    users = sorted(local_models)
    groups = make_groups(users, m, seed, round_number)
    group_models = aggregate_group_models(groups, local_models)
    return compute_group_shapley(group_models, groups, scorer, round_number=round_number)


def accumulate_user_values(results: Sequence[GroupShapleyResult]) -> dict[str, float]:
    """Total contribution per user across rounds: v_i = sum_r v_i^r."""
    totals: dict[str, float] = {}
    for result in results:
        for user, value in result.user_values.items():
            totals[user] = totals.get(user, 0.0) + value
    return totals
