"""Transparency audits: re-derive published results from raw chain data.

The framework's central claim is that contribution evaluation is *transparent
and verifiable*: any participant (or outside auditor) holding the chain can
re-derive every group model, every coalition utility, and every contribution
score without trusting whoever proposed the blocks.  :func:`audit_chain` does
exactly that — it replays the chain from genesis, recomputes the GroupSV
evaluation for every finalized round from the published group models, and
compares the results against the values stored by the contracts.

Two verification modes share every recomputation except the first step:

* ``mode="replay"`` (default) re-executes every block from genesis — the
  trustless oracle: nothing is assumed beyond the raw block data.
* ``mode="incremental"`` verifies each committed header's ``state_root``
  against the replica's retained per-block state versions
  (:meth:`~repro.blockchain.chain.Blockchain.verify_version_roots`) instead of
  re-executing — O(Δ) per block on Merkle-rooted chains.  Trust reduces to the
  majority-voted headers (the succinct-commitment model); the verdicts are
  identical to a full replay, which tests pin.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.blockchain.chain import Blockchain
from repro.blockchain.consensus import committed_round_of_block, scheduled_proposer
from repro.blockchain.contracts.fl_training import pinned_round_assignment
from repro.blockchain.contracts.registry import (
    cohort_for_round_from_state,
    epochs_from_state,
    pinned_params,
    pinned_sv_estimator,
)
from repro.blockchain.contracts.reward import (
    mass_proportional_pools,
    positive_weights,
    proportional_payouts,
)
from repro.exceptions import AuditError
from repro.shapley.estimator import estimator_seed_for_round
from repro.shapley.group import (
    SV_ASSEMBLY_VERSION,
    GroupEvaluation,
    evaluate_group_game,
    split_equally,
)
from repro.shapley.utility import AccuracyUtility


@dataclass
class AuditReport:
    """Result of a transparency audit over a protocol chain.

    Attributes:
        chain_valid: structural validation and the state verification (full
            replay, or the incremental header-commitment walk) succeeded.
        state_versions_checked: block heights whose header ``state_root`` was
            verified against the replica's retained state versions
            (incremental mode only; empty under full replay).
        rounds_checked: round numbers whose evaluation was independently recomputed.
        epochs_checked: cohort epochs whose membership and totals were verified.
        proposers_checked: round numbers whose block proposer (and, on
            authority-rotation chains, view number) was recomputed from the
            registry's epoch-authority schedule and matched the header.
        estimators_checked: sampled-estimator rounds whose receipts — the
            estimator seed/sample-count metadata, the re-run estimate, and
            the recorded confidence bounds — all verified from chain state.
        mismatches: human-readable descriptions of any discrepancy found.
        recomputed_totals: the auditor's own accumulated per-owner contributions.
        recomputed_epoch_totals: the auditor's per-epoch accumulated contributions
            (epoch index -> owner -> value), derived from the registry's epochs.
        prune_horizon: the oldest block height whose reverse delta the replica
            still retains, when older deltas were pruned (``None`` on unpruned
            chains or under full replay, where pruning is irrelevant).
        replayed_below_horizon: block heights the incremental audit could not
            cover with the O(Δ) header-commitment walk (their deltas were
            pruned) and verified by snapshot+replay from genesis instead.
            Empty on unpruned chains — the audit's verdicts are the same
            either way, only the cost model changes, and this field makes the
            fallback visible in the report.
    """

    chain_valid: bool
    state_versions_checked: list[int] = field(default_factory=list)
    rounds_checked: list[int] = field(default_factory=list)
    epochs_checked: list[int] = field(default_factory=list)
    proposers_checked: list[int] = field(default_factory=list)
    estimators_checked: list[int] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    recomputed_totals: dict[str, float] = field(default_factory=dict)
    recomputed_epoch_totals: dict[int, dict[str, float]] = field(default_factory=dict)
    prune_horizon: int | None = None
    replayed_below_horizon: list[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when the chain replays cleanly and every evaluation matches."""
        return self.chain_valid and not self.mismatches


def _evaluate_round(
    scorer, round_record: dict, estimator: str = "exact", n_samples: int = 0, seed: int = 0
) -> tuple[list[list[str]], GroupEvaluation]:
    """Re-run Algorithm 1 lines 4-7 on a round's published group models.

    This is the contract's own kernel
    (:func:`~repro.shapley.group.evaluate_group_game`) on the contract's own
    inputs, so within one software stack a reported divergence is a genuine
    discrepancy in the published values; :func:`audit_chain` compares under a
    tolerance that absorbs residual cross-stack numeric drift.
    """
    groups = [list(group) for group in round_record["groups"]]
    group_models = [np.asarray(model, dtype=np.float64) for model in round_record["group_models"]]
    return groups, evaluate_group_game(
        group_models, groups, scorer,
        estimator=estimator, n_samples=n_samples, seed=seed,
    )


def _audit_sampled_round(
    scorer,
    round_record: dict,
    stored: dict,
    permutation_seed: int,
    sv_samples: int,
    report: AuditReport,
    tolerance: float,
) -> bool:
    """Verify one sampled-estimator round's receipts from chain state alone.

    Three layers, each defeating a different way a proposer could cheat:

    1. The recorded estimator metadata (seed, sample count) must be the
       canonical chain-state derivation — no shopping for a favourable sample.
    2. The recorded half-widths must match the re-run estimator's — no
       inflating the bound until any value "verifies".
    3. The recorded estimates must lie within the *verified* bound of the
       auditor's own re-run — "estimate ± bound" instead of exact equality,
       absorbing residual cross-stack numeric drift without trusting the
       proposer's arithmetic.

    The per-user receipts are then an arithmetic consequence of the group
    receipts (equal split), checked exactly.  Returns True when every layer
    verified.
    """
    round_number = int(stored["round"])
    ok = True
    tol = max(tolerance * 10, 1e-8)

    meta = stored.get("estimator") or {}
    expected_seed = estimator_seed_for_round(permutation_seed, round_number)
    if meta.get("name") != "sampled" or int(meta.get("seed", -1)) != expected_seed:
        report.mismatches.append(
            f"round {round_number}: estimator receipt {meta!r} is not the canonical "
            f"sampled estimator with seed {expected_seed}"
        )
        ok = False
    groups, rerun = _evaluate_round(scorer, round_record, "sampled", sv_samples, expected_seed)
    recorded_telemetry = meta.get("telemetry")
    if recorded_telemetry is not None:
        # The receipt's counters are deterministic in (labels, n_samples,
        # seed); a disagreement means the proposer ran a different workload
        # than it claims.
        for counter in ("coalitions", "cache_hits", "batches"):
            if int(recorded_telemetry.get(counter, -1)) != rerun.estimator["telemetry"][counter]:
                report.mismatches.append(
                    f"round {round_number}: estimator telemetry records "
                    f"{counter}={recorded_telemetry.get(counter)} but the re-run "
                    f"gives {rerun.estimator['telemetry'][counter]}"
                )
                ok = False
    if int(meta.get("n_samples", -1)) != rerun.estimator["n_samples"]:
        report.mismatches.append(
            f"round {round_number}: receipt records {meta.get('n_samples')} permutations "
            f"but the pinned sample count re-runs as {rerun.estimator['n_samples']}"
        )
        ok = False

    stored_values = [float(value) for value in stored.get("group_values", [])]
    stored_widths = [float(width) for width in stored.get("group_half_widths", [])]
    if len(stored_values) != len(groups) or len(stored_widths) != len(groups):
        report.mismatches.append(
            f"round {round_number}: sampled receipt is missing group values or half-widths"
        )
        return False
    for label, value, width, estimate, bound in zip(
        rerun.labels, stored_values, stored_widths, rerun.group_values, rerun.group_half_widths
    ):
        if abs(width - bound) > tol:
            report.mismatches.append(
                f"round {round_number}: {label} records half-width {width:.6g} but the "
                f"re-run estimator gives {bound:.6g}"
            )
            ok = False
        if abs(value - estimate) > bound + tol:
            report.mismatches.append(
                f"round {round_number}: {label} stored {value:.6f}, outside the verified "
                f"±{bound:.6g} bound of the re-run estimate {estimate:.6f}"
            )
            ok = False
    if abs(float(stored.get("global_utility", 0.0)) - rerun.global_utility) > tol:
        report.mismatches.append(
            f"round {round_number}: stored global utility "
            f"{float(stored.get('global_utility', 0.0)):.6f} but the re-run gives "
            f"{rerun.global_utility:.6f}"
        )
        ok = False

    # Per-user receipts follow from the group receipts by the equal split.
    stored_users = {owner: float(value) for owner, value in stored.get("user_values", {}).items()}
    stored_user_widths = {
        owner: float(width) for owner, width in stored.get("user_half_widths", {}).items()
    }
    split_values = split_equally(groups, stored_values)
    split_widths = split_equally(groups, stored_widths)
    if set(stored_users) != set(split_values) or set(stored_user_widths) != set(split_values):
        report.mismatches.append(f"round {round_number}: user receipts cover different owners")
        return False
    for owner in split_values:
        if abs(stored_users[owner] - split_values[owner]) > tol or (
            abs(stored_user_widths[owner] - split_widths[owner]) > tol
        ):
            report.mismatches.append(
                f"round {round_number}: owner {owner}'s receipt is not the equal "
                f"split of its group's (value, bound)"
            )
            ok = False
    return ok


def _audit_evaluated_rounds(
    state, scorer, pinned, tolerance, report
) -> dict[int, dict[str, float]]:
    """Step 2 of :func:`audit_chain`: recompute every evaluated round.

    Returns the recomputed per-owner values of each round, for the epoch and
    settlement checks downstream.
    """
    estimator_name, sv_samples = pinned_sv_estimator(pinned)
    evaluated_rounds = sorted(
        int(key.split("/", 1)[1])
        for key in state.keys("contribution")
        if key.startswith("evaluation/")
    )
    round_values: dict[int, dict[str, float]] = {}
    for round_number in evaluated_rounds:
        round_record = state.get("fl_training", f"round/{round_number}")
        stored = state.get("contribution", f"evaluation/{round_number}")
        if round_record is None or stored is None:
            report.mismatches.append(f"round {round_number}: missing training or evaluation record")
            continue
        # The round block records the groups it aggregated under.  They must be
        # the canonical assignment of the cohort the registry's epoch view
        # derives for this round under the pinned parameters: the derivation
        # the training contract ran, re-run here.  A proposer can neither
        # smuggle a not-yet-joined owner into a round, keep settling a departed
        # one, nor deal the right owners into groups of its choosing.
        cohort = cohort_for_round_from_state(state, round_number)
        canonical = pinned_round_assignment(pinned, cohort, round_number).as_record()["groups"]
        if round_record.get("groups") != canonical:
            report.mismatches.append(
                f"round {round_number}: published groups {round_record.get('groups')} are not "
                f"the canonical assignment {canonical} of the registry's active cohort {cohort}"
            )
        if estimator_name == "sampled":
            # Sampled receipts: verify the estimator metadata is the canonical
            # derivation, re-run the estimator, and check the stored values
            # lie within the *verified* bounds — exact accumulation is then
            # checked downstream against the stored per-round receipts.
            if _audit_sampled_round(
                scorer,
                round_record,
                stored,
                int(pinned["permutation_seed"]),
                sv_samples,
                report,
                tolerance,
            ):
                report.estimators_checked.append(round_number)
            recomputed = {owner: float(value) for owner, value in stored["user_values"].items()}
        else:
            recomputed = _evaluate_round(scorer, round_record)[1].user_values
            stored_values = {owner: float(value) for owner, value in stored["user_values"].items()}
            if set(recomputed) != set(stored_values):
                report.mismatches.append(f"round {round_number}: contribution covers different owners")
            else:
                for owner, value in recomputed.items():
                    if abs(value - stored_values[owner]) > tolerance:
                        report.mismatches.append(
                            f"round {round_number}: owner {owner} stored {stored_values[owner]:.6f} "
                            f"but recomputation gives {value:.6f}"
                        )
        round_values[round_number] = recomputed
        report.rounds_checked.append(round_number)
    report.recomputed_totals = _summed(round_values.values())
    return round_values


def _summed(per_round: Iterable[dict[str, float]]) -> dict[str, float]:
    """Per-owner sums of round values, added in the order given."""
    totals: dict[str, float] = {}
    for values in per_round:
        for owner, value in values.items():
            totals[owner] = totals.get(owner, 0.0) + value
    return totals


def audit_chain(
    chain: Blockchain,
    validation_features: np.ndarray,
    validation_labels: np.ndarray,
    n_classes: int,
    tolerance: float = 1e-9,
    raise_on_failure: bool = False,
    mode: str = "replay",
) -> AuditReport:
    """Audit a protocol chain end to end.

    Five independent recomputations, each from raw chain data only: (1) the
    chain's state history is verified — by full genesis re-execution
    (``mode="replay"``), or by checking every committed header's
    ``state_root`` against the replica's retained per-block state versions
    (``mode="incremental"``, O(Δ) per block on Merkle-rooted chains) — (2)
    every round's GroupSV evaluation is recomputed from the published group
    models with the contract's own kernel (on sampled-estimator
    chains the estimator is re-run from the chain-derived seed and the
    receipts checked within their verified confidence bounds, and every
    recorded grouping is checked against the canonical derivation; a chain
    pinning the retired committee split is refused), (3) the accumulated
    per-owner totals must match the contract's, (4) cohort epochs, per-epoch
    SV mass, and every recorded settlement are re-derived and checked, and
    (5) every round block's proposer — plus its consensus view on
    ``authority_rotation`` chains — is recomputed from the registry's
    epoch-authority schedule.

    Args:
        chain: any replica of the protocol chain.
        validation_features / validation_labels / n_classes: the public
            validation set agreed at setup (the auditor must know the utility
            function, exactly as the paper assumes).
        tolerance: numeric tolerance when comparing recomputed contributions.
        raise_on_failure: raise :class:`AuditError` instead of returning a
            failing report.
        mode: ``"replay"`` re-executes every block (the trustless oracle);
            ``"incremental"`` verifies the header state commitments instead
            and reads all published records through the verified state —
            identical verdicts, succinct-commitment trust model.

    Returns:
        An :class:`AuditReport`; ``report.passed`` is True iff the chain
        verifies cleanly and every recomputation matches the published values.
    """
    if mode not in ("replay", "incremental"):
        raise AuditError(f"unknown audit mode {mode!r} (expected 'replay' or 'incremental')")
    validation_features = np.asarray(validation_features, dtype=np.float64)
    validation_labels = np.asarray(validation_labels).ravel().astype(int)
    scorer = AccuracyUtility(validation_features, validation_labels, n_classes)

    report = AuditReport(chain_valid=True)

    # 1. State-history verification: full replay from genesis, or the
    #    incremental walk over the committed header state roots.
    try:
        if mode == "replay":
            replayed = chain.replay()
            if replayed.state.state_root() != chain.state.state_root():
                report.chain_valid = False
                report.mismatches.append("replayed state root differs from the live replica's state root")
            state = replayed.state
        else:
            chain.validate_chain()
            report.state_versions_checked = chain.verify_version_roots()
            # On a pruned chain the header-commitment walk stops at the
            # oldest retained delta; everything below the horizon is verified
            # by snapshot+replay (verify_and_append re-checks every receipt
            # and state root) and reported as such.
            lowest_verified = report.state_versions_checked[-1]
            if lowest_verified > 0:
                report.prune_horizon = chain.oldest_retained_version()
                chain.replay_prefix(lowest_verified - 1)
                report.replayed_below_horizon = list(range(lowest_verified))
            state = chain.state
    except Exception as exc:  # noqa: BLE001 - any verification failure fails the audit
        report.chain_valid = False
        report.mismatches.append(f"chain {mode} verification failed: {exc}")
        if raise_on_failure:
            raise AuditError("; ".join(report.mismatches)) from exc
        return report

    # 2. Recompute every evaluated round from the published group models.
    #    The two format tags the chain pinned at setup must be the ones this
    #    build runs: a replica committing another state-root layout has
    #    headers that are not comparable to what the miners voted on, and
    #    another exact-SV assembly sums in a different floating-point order.
    pinned = pinned_params(state) or {}
    for tag, running in (
        ("state_root_version", chain.state_root_version),
        ("sv_assembly_version", SV_ASSEMBLY_VERSION),
    ):
        if pinned and pinned.get(tag) != running:
            report.mismatches.append(
                f"registry pins {tag} {pinned.get(tag)!r} "
                f"but this replica runs version {running}"
            )
    # The retired committee split decoded every committee's sum, finer than a
    # group's; this build reads none of its chains as a flat one.
    retired = sorted({"aggregation_topology", "shard_size"} & set(pinned))
    if retired:
        report.mismatches.append(f"registry pins the retired committee split {retired}")
    round_values = _audit_evaluated_rounds(state, scorer, pinned, tolerance, report)

    # 3. Check the accumulated totals stored by the contract.
    stored_totals = state.get("contribution", "totals", {})
    for owner, value in report.recomputed_totals.items():
        if abs(float(stored_totals.get(owner, 0.0)) - value) > max(tolerance * 10, 1e-8):
            report.mismatches.append(
                f"totals: owner {owner} stored {float(stored_totals.get(owner, 0.0)):.6f} "
                f"but recomputation gives {value:.6f}"
            )

    # 4. Verify the cohort epochs: recompute each epoch's per-owner totals
    #    from the independently recomputed rounds, and check every recorded
    #    settlement against them (a plain `distribute` against the whole
    #    run's totals, a per-epoch one against its epochs' SV masses too).
    n_rounds = int(pinned.get("n_rounds", 0) or 0)
    if n_rounds:
        _audit_epochs(state, report, round_values, n_rounds, tolerance)

    # 5. Verify the consensus authority: on an authority-rotation chain,
    #    recompute every committed round's scheduled proposer from the
    #    registry's epoch view and check it (and the view number) against the
    #    block header; on a static chain, check that no header smuggles in a
    #    view.  Either way the proposer of every round block is recomputable
    #    from chain state alone.
    _audit_proposers(chain, state, bool(pinned.get("authority_rotation")), report)

    if raise_on_failure and not report.passed:
        raise AuditError("; ".join(report.mismatches))
    return report


def _audit_proposers(chain: Blockchain, state, rotation: bool, report: AuditReport) -> None:
    """Recompute and verify the proposer schedule of every committed round block.

    The schedule of round ``r`` depends only on membership boundaries at or
    below ``r``, all committed strictly before round ``r``'s block, so the
    final replayed state derives exactly the schedule every miner used at
    proposal time.  What the audit verifies is *entitlement*: the view is in
    range and the proposer is the schedule's pick for ``(round, view)``.
    Whether the skipped views' leaders were genuinely silent is not
    recomputable from chain data — neither miners nor the auditor check view
    minimality (that would need timeout/view-change certificates, which this
    simulation does not model; see docs/consensus.md).
    """
    for block in chain.blocks[1:]:
        fl_round = committed_round_of_block(block)
        if fl_round is None or not rotation:
            if block.header.view is not None:
                report.mismatches.append(
                    f"block {block.height}: carries view {block.header.view} but "
                    "no authority schedule applies to it"
                )
            continue
        if block.header.view is None:
            report.mismatches.append(
                f"round {fl_round}: block {block.height} has no view number on an "
                "authority-rotation chain"
            )
            continue
        expected = scheduled_proposer(state, fl_round, block.header.view)
        if block.header.proposer != expected:
            report.mismatches.append(
                f"round {fl_round}: block {block.height} (view {block.header.view}) names "
                f"proposer {block.header.proposer} but the schedule recomputes {expected}"
            )
        else:
            report.proposers_checked.append(fl_round)


def _audit_epochs(
    state,
    report: AuditReport,
    round_values: dict[int, dict[str, float]],
    n_rounds: int,
    tolerance: float,
) -> None:
    """Epoch-by-epoch verification of cohorts, SV mass, and settlement records."""
    for epoch in epochs_from_state(state, n_rounds):
        index = int(epoch["epoch"])
        totals = _summed(round_values.get(r, {}) for r in range(int(epoch["start"]), int(epoch["end"])))
        report.recomputed_epoch_totals[index] = totals
        extra = sorted(set(totals) - set(epoch["cohort"]))
        if extra:
            report.mismatches.append(
                f"epoch {index}: rounds settled value to {extra}, owners outside the epoch cohort"
            )
        report.epochs_checked.append(index)

    # Every recorded settlement — distribute_by_epoch, distribute_epoch and
    # plain distribute, under any label — is checked against the auditor's own
    # per-epoch or whole-run totals; a fixed label would let a proposer settle
    # under a different one and dodge the check entirely.  Payout *amounts* are
    # recomputed with the contract's own proportional rule, and for a by-epoch
    # settlement the mass-proportional pool split itself is re-derived.
    tol = max(tolerance * 10, 1e-8)
    recomputed_masses = {
        index: sum(positive_weights(totals).values())
        for index, totals in report.recomputed_epoch_totals.items()
    }
    for key in sorted(state.keys("reward")):
        if not key.startswith("distribution/"):
            continue
        label = key.split("/", 1)[1]
        distribution = state.get("reward", key, {}) or {}
        breakdown = distribution.get("epochs")
        if breakdown is not None:
            expected_pools = mass_proportional_pools(
                report.recomputed_epoch_totals,
                recomputed_masses,
                float(distribution.get("reward_pool", 0.0)),
            )
            for epoch_key, settled in breakdown.items():
                index = int(epoch_key)
                totals = report.recomputed_epoch_totals.get(index)
                if totals is None:
                    report.mismatches.append(
                        f"distribution {label!r} settles epoch {index}, which does not exist"
                    )
                    continue
                if abs(float(settled.get("sv_mass", 0.0)) - recomputed_masses[index]) > tol:
                    report.mismatches.append(
                        f"distribution {label!r}, epoch {index}: recorded SV mass "
                        f"{settled.get('sv_mass', 0.0):.6f} but recomputation gives "
                        f"{recomputed_masses[index]:.6f}"
                    )
                pool = float(settled.get("reward_pool", 0.0))
                if abs(pool - expected_pools.get(index, 0.0)) > tol:
                    report.mismatches.append(
                        f"distribution {label!r}, epoch {index}: pool {pool:.6f} is not the "
                        f"mass-proportional share {expected_pools.get(index, 0.0):.6f}"
                    )
                _check_payouts(
                    report, f"distribution {label!r}, epoch {index}",
                    settled.get("payouts", {}), totals, pool, tol,
                )
            missing = sorted(set(expected_pools) - {int(k) for k in breakdown})
            if missing:
                report.mismatches.append(
                    f"distribution {label!r} skips epochs {missing} that have settleable value"
                )
        elif "epoch" in distribution:
            index = int(distribution["epoch"])
            totals = report.recomputed_epoch_totals.get(index)
            if totals is None:
                report.mismatches.append(
                    f"distribution {label!r} settles epoch {index}, which does not exist"
                )
                continue
            _check_payouts(
                report, f"distribution {label!r}, epoch {index}",
                distribution.get("payouts", {}), totals,
                float(distribution.get("reward_pool", 0.0)), tol,
            )
        else:  # a plain `distribute`: the whole run's totals
            _check_payouts(
                report, f"distribution {label!r}", distribution.get("payouts", {}),
                _summed(round_values.values()), float(distribution.get("reward_pool", 0.0)), tol,
            )


def _check_payouts(
    report: AuditReport,
    where: str,
    paid: dict[str, float],
    totals: dict[str, float],
    pool: float,
    tol: float,
) -> None:
    """Compare recorded payouts against the recomputed proportional amounts."""
    expected = proportional_payouts(totals, pool)
    if set(paid) != set(expected):
        report.mismatches.append(
            f"{where}: paid owners {sorted(paid)} but recomputation pays {sorted(expected)}"
        )
        return
    for owner, amount in expected.items():
        if abs(float(paid[owner]) - amount) > tol:
            report.mismatches.append(
                f"{where}: owner {owner} paid {float(paid[owner]):.6f} "
                f"but recomputation gives {amount:.6f}"
            )
