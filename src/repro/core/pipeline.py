"""The staged round pipeline: Section IV.B as composable stages.

The protocol of the paper used to live in one monolithic ``run`` loop.  This
module decomposes it into explicit stages driven by a :class:`RoundScheduler`:

    Setup -> LocalTraining -> Masking/Submission
          -> SecureAggregation -> Evaluation -> Membership
          -> BlockProposal -> Settlement

Every stage reads and writes one :class:`RoundContext` — the complete state of
a round in flight (cohort, the round's assignment, local models, staged
transactions, withheld submissions, rejections, consensus verdict).  Scenario behaviour
(dropout, stragglers, adversary injection, cohort joins/leaves, silent block
proposers) plugs in through the :class:`Scenario` hook interface instead of
bespoke orchestration loops, so ``examples/``, the CLI, and the benchmarks all
drive the very same runtime.  Each round's owner cohort is re-derived from chain state (the
registry's epoch view), so membership transactions committed in earlier
blocks change who trains, masks, and settles from their effective round on.

Two design rules keep scenario runs receipt-compatible with plain runs:

* **Staged submission barrier** — submission transactions are *built* during
  the Masking/Submission stage but only gossiped to the mempool at the
  BlockProposal stage, in canonical (sorted-owner) order.  A dropout that
  recovers or a straggler that arrives late therefore produces byte-identical
  blocks: arrival order in the mempool never depends on scenario timing.
* **Gossip-level validation** — a tampered submission (wrong group claim,
  wrong dimension) is rejected *before* it reaches the mempool, exactly as a
  real chain's nodes drop invalid transactions at admission — by the very
  check the training contract runs
  (:meth:`~repro.crypto.sharding.RoundAssignment.check_submission`).  The rejected
  owner's nonce is not consumed, so an honest re-submission slots into the
  block exactly where the original would have been.

The on-chain halves of SecureAggregation (``finalize_round``) and Evaluation
(``evaluate_round``) are deterministic contract calls; their stages *stage*
the transactions and the BlockProposal stage executes them inside the round's
single block, preserving the one-block-per-round chain layout of the paper's
protocol (and of every pre-pipeline chain receipt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.blockchain.consensus import VerificationResult
from repro.blockchain.contracts.registry import epochs_from_state, has_membership_events
from repro.blockchain.network import delivery_report_delta
from repro.blockchain.transaction import Transaction
from repro.blockchain.transport import FaultInjectingTransport, FaultPlan, PartitionSpec
from repro.core.adversary import AdversaryBehavior, apply_adversary
from repro.core.audit import audit_chain
from repro.crypto.sharding import RoundAssignment, round_assignment
from repro.exceptions import ConsensusError, ProtocolError, RoundError
from repro.fl.model import ModelParameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocol import BlockchainFLProtocol
    from repro.datasets.loader import OwnerDataset


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class RoundResult:
    """What one on-chain round produced."""

    round_number: int
    groups: tuple[tuple[str, ...], ...]
    user_values: dict[str, float]
    group_values: tuple[float, ...]
    global_utility: float
    global_parameters: ModelParameters
    consensus: VerificationResult | None = None
    # Sampled-estimator rounds only: per-owner CI half-widths and the
    # estimator metadata recorded in the round's evaluation receipt.
    user_half_widths: dict[str, float] = field(default_factory=dict)
    estimator: dict[str, Any] | None = None


@dataclass
class ProtocolResult:
    """The outcome of a full protocol run."""

    rounds: list[RoundResult] = field(default_factory=list)
    total_contributions: dict[str, float] = field(default_factory=dict)
    reward_balances: dict[str, float] = field(default_factory=dict)
    final_parameters: ModelParameters | None = None
    chain_height: int = 0
    total_transactions: int = 0
    total_gas: int = 0
    network_stats: dict = field(default_factory=dict)
    # Per-topic delivery outcomes (attempted/delivered/dropped/duplicated/...)
    # from NetworkStats.delivery_report(); all-delivered under the default
    # deterministic transport.
    delivery_report: dict = field(default_factory=dict)
    # Dynamic-membership runs only: one entry per cohort epoch with the epoch's
    # round range, cohort, SV mass, and settled reward pool (empty otherwise).
    epoch_settlements: list[dict] = field(default_factory=list)

    def contributions_per_round(self) -> dict[str, list[float]]:
        """Per-owner time series of round contributions."""
        series: dict[str, list[float]] = {}
        for record in self.rounds:
            for owner, value in record.user_values.items():
                series.setdefault(owner, []).append(value)
        return series


# ----------------------------------------------------------------------
# Round context
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SubmissionRejection:
    """A submission dropped by gossip-level validation before the mempool."""

    owner_id: str
    round_number: int
    reason: str


@dataclass
class RoundContext:
    """Everything one round in flight carries between stages.

    Stages mutate the context in sequence; scenario hooks observe and steer it
    (withholding submissions, releasing them on later ticks, tampering with
    transaction arguments).  After the BlockProposal stage, :attr:`result`
    holds the round's :class:`RoundResult`.
    """

    round_number: int
    global_parameters: ModelParameters
    owner_ids: list[str]
    # The round's canonical dealing (groups, shards, every owner's slot) — the
    # same derivation the training contract and the audit run from chain state.
    assignment: RoundAssignment
    max_wait_ticks: int = 8
    local_models: dict[str, ModelParameters] = field(default_factory=dict)
    submissions: dict[str, Transaction] = field(default_factory=dict)
    withheld: dict[str, str] = field(default_factory=dict)
    rejections: list[SubmissionRejection] = field(default_factory=list)
    closing_transactions: list[Transaction] = field(default_factory=list)
    ticks_waited: int = 0
    consensus: VerificationResult | None = None
    result: RoundResult | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def missing_owners(self) -> list[str]:
        """Owners whose submission has not been built or is still withheld."""
        return sorted(
            owner
            for owner in self.owner_ids
            if owner not in self.submissions or owner in self.withheld
        )

    def deliver(self, owner_id: str) -> None:
        """Release a withheld submission (the owner came back online)."""
        self.withheld.pop(owner_id, None)


# ----------------------------------------------------------------------
# Scenario hooks
# ----------------------------------------------------------------------

class Scenario:
    """Hook interface for steering a protocol run without a bespoke loop.

    Every hook is a no-op in the base class; concrete scenarios override the
    ones they need.  Hooks run at well-defined points of the stage pipeline:

    * :meth:`on_setup` — after the setup block commits.
    * :meth:`on_round_start` — once the :class:`RoundContext` exists (grouping
      known, nothing trained yet).
    * :meth:`transform_update` — per owner, after local training; may replace
      the local model (adversary injection, late-join placeholders).
    * :meth:`tamper_submission` — per owner, may rewrite the submission
      transaction's arguments (modelling a lying client); tampered args that
      fail gossip validation are rejected off-chain.
    * :meth:`withhold_submission` — per owner, return a reason string to keep
      a built submission out of the round for now (dropout, straggler).
    * :meth:`on_tick` — each simulated tick while submissions are missing;
      call :meth:`RoundContext.deliver` to bring owners back.
    * :meth:`on_rejection` — when gossip validation drops a submission.
    * :meth:`membership_transactions` — registry join/leave transactions to
      include in this round's block (they take effect at a later round
      boundary; see :class:`JoinScenario` / :class:`LeaveScenario`).
    * :meth:`leader_offline` — per candidate proposer of the round's block,
      return True to keep it silent (the commit fails over to the next
      candidate — a view change on rotation chains; see
      :class:`LeaderDropoutScenario`).
    * :meth:`on_round_end` — after the round's block committed.
    * :meth:`on_settlement` — after the final reward distribution.

    A scenario whose behaviour only exists under the epoch-authority schedule
    sets :attr:`requires_authority_rotation`; the scheduler refuses to run it
    on a non-rotation protocol instead of silently degenerating to a plain
    run.  A scenario that expects delivery faults to abort whole rounds (e.g.
    a partition that only heals on a later attempt) sets :attr:`round_retries`
    — the scheduler re-attempts an aborted round that many extra times, and an
    aborted attempt touches nothing, so the retry re-stages the identical
    round.
    """

    requires_authority_rotation: bool = False
    round_retries: int = 0

    def on_setup(self, protocol: "BlockchainFLProtocol") -> None:
        """Called once after the setup block commits."""

    def on_round_start(self, ctx: RoundContext) -> None:
        """Called when a round's context has been created."""

    def transform_update(
        self, ctx: RoundContext, owner_id: str, parameters: ModelParameters
    ) -> ModelParameters:
        """Optionally replace an owner's freshly trained local model."""
        return parameters

    def tamper_submission(
        self, ctx: RoundContext, owner_id: str, args: dict[str, Any]
    ) -> dict[str, Any]:
        """Optionally rewrite the submission transaction arguments."""
        return args

    def withhold_submission(self, ctx: RoundContext, owner_id: str) -> str | None:
        """Return a reason to keep this owner's submission back, or None."""
        return None

    def on_tick(self, ctx: RoundContext) -> None:
        """Called once per simulated tick while submissions are missing."""

    def on_rejection(self, ctx: RoundContext, rejection: SubmissionRejection) -> None:
        """Called when gossip-level validation rejects a submission."""

    def membership_transactions(
        self, protocol: "BlockchainFLProtocol", ctx: RoundContext
    ) -> list[Transaction]:
        """Registry membership transactions to include in this round's block."""
        return []

    def leader_offline(self, ctx: RoundContext, leader_id: str) -> bool:
        """Return True to keep a candidate proposer silent for this round.

        A silent proposer costs a failover (a view change on rotation chains);
        a round whose every candidate is silent aborts without touching the
        chain.
        """
        return False

    def on_round_end(self, ctx: RoundContext) -> None:
        """Called after the round's block has committed."""

    def on_settlement(self, result: ProtocolResult) -> None:
        """Called after the final reward distribution."""


class ComposedScenario(Scenario):
    """Run several scenarios side by side (hooks fire in list order)."""

    def __init__(self, scenarios: Sequence[Scenario]) -> None:
        self.scenarios = list(scenarios)
        self.requires_authority_rotation = any(
            scenario.requires_authority_rotation for scenario in scenarios
        )
        self.round_retries = max(
            (scenario.round_retries for scenario in scenarios), default=0
        )

    def on_setup(self, protocol) -> None:
        for scenario in self.scenarios:
            scenario.on_setup(protocol)

    def on_round_start(self, ctx) -> None:
        for scenario in self.scenarios:
            scenario.on_round_start(ctx)

    def transform_update(self, ctx, owner_id, parameters):
        for scenario in self.scenarios:
            parameters = scenario.transform_update(ctx, owner_id, parameters)
        return parameters

    def tamper_submission(self, ctx, owner_id, args):
        for scenario in self.scenarios:
            args = scenario.tamper_submission(ctx, owner_id, args)
        return args

    def withhold_submission(self, ctx, owner_id):
        for scenario in self.scenarios:
            reason = scenario.withhold_submission(ctx, owner_id)
            if reason is not None:
                return reason
        return None

    def on_tick(self, ctx) -> None:
        for scenario in self.scenarios:
            scenario.on_tick(ctx)

    def on_rejection(self, ctx, rejection) -> None:
        for scenario in self.scenarios:
            scenario.on_rejection(ctx, rejection)

    def membership_transactions(self, protocol, ctx):
        transactions = []
        for scenario in self.scenarios:
            transactions.extend(scenario.membership_transactions(protocol, ctx))
        return transactions

    def leader_offline(self, ctx, leader_id) -> bool:
        return any(scenario.leader_offline(ctx, leader_id) for scenario in self.scenarios)

    def on_round_end(self, ctx) -> None:
        for scenario in self.scenarios:
            scenario.on_round_end(ctx)

    def on_settlement(self, result) -> None:
        for scenario in self.scenarios:
            scenario.on_settlement(result)


class DropoutScenario(Scenario):
    """An owner drops offline mid-round (after training, before submission).

    The owner's submission is withheld for ``offline_ticks`` simulated ticks,
    then delivered — modelling a transient disconnect with recovery.  Because
    submissions only reach the mempool at the BlockProposal barrier, the
    recovered round commits a block byte-identical to an undisturbed run.

    Delivery is reason-scoped: the scenario only releases a submission *it*
    withheld, so composing it with another scenario that holds the same owner
    back for different reasons cannot end the other outage early.
    """

    reason = "dropout"

    def __init__(self, owner_id: str, round_number: int = 0, offline_ticks: int = 2) -> None:
        if offline_ticks < 1:
            raise ProtocolError("offline_ticks must be at least 1")
        self.owner_id = owner_id
        self.round_number = int(round_number)
        self.offline_ticks = int(offline_ticks)

    def withhold_submission(self, ctx: RoundContext, owner_id: str) -> str | None:
        if owner_id == self.owner_id and ctx.round_number == self.round_number:
            return self.reason
        return None

    def on_tick(self, ctx: RoundContext) -> None:
        if (
            ctx.round_number == self.round_number
            and ctx.ticks_waited >= self.offline_ticks
            and ctx.withheld.get(self.owner_id) == self.reason
        ):
            ctx.deliver(self.owner_id)


class StragglerScenario(Scenario):
    """An owner is consistently slow: its submission arrives ``delay_ticks`` late.

    With ``delay_ticks`` below the context's ``max_wait_ticks`` the scheduler
    absorbs the delay and the chain is unchanged; above it the round aborts
    with a straggler timeout *before anything reaches the chain*.

    Like :class:`DropoutScenario`, delivery is reason-scoped: only a
    submission this scenario withheld is released on its schedule.
    """

    reason = "straggler"

    def __init__(self, owner_id: str, delay_ticks: int = 1, rounds: Sequence[int] | None = None) -> None:
        if delay_ticks < 1:
            raise ProtocolError("delay_ticks must be at least 1")
        self.owner_id = owner_id
        self.delay_ticks = int(delay_ticks)
        self.rounds = None if rounds is None else {int(r) for r in rounds}

    def _applies(self, round_number: int) -> bool:
        return self.rounds is None or round_number in self.rounds

    def withhold_submission(self, ctx: RoundContext, owner_id: str) -> str | None:
        if owner_id == self.owner_id and self._applies(ctx.round_number):
            return self.reason
        return None

    def on_tick(self, ctx: RoundContext) -> None:
        if (
            self._applies(ctx.round_number)
            and ctx.ticks_waited >= self.delay_ticks
            and ctx.withheld.get(self.owner_id) == self.reason
        ):
            ctx.deliver(self.owner_id)


class AdversarialSubmissionScenario(Scenario):
    """An owner lies about its group assignment in the submission transaction.

    Gossip-level validation rejects the tampered transaction before it can
    occupy a block slot (a real network's nodes drop invalid transactions at
    mempool admission), and the owner — unable to get the lie included —
    falls back to an honest submission with the same nonce.  The resulting
    chain is therefore identical to an all-honest run, while the rejection
    itself is recorded on the :class:`RoundContext` for reporting.
    """

    def __init__(self, owner_id: str, claimed_group: int | None = None, rounds: Sequence[int] | None = None) -> None:
        self.owner_id = owner_id
        self.claimed_group = claimed_group
        self.rounds = None if rounds is None else {int(r) for r in rounds}

    def tamper_submission(self, ctx: RoundContext, owner_id: str, args: dict[str, Any]) -> dict[str, Any]:
        if owner_id != self.owner_id:
            return args
        if self.rounds is not None and ctx.round_number not in self.rounds:
            return args
        honest_group = int(args["group_id"])
        claimed = self.claimed_group
        if claimed is None:
            claimed = (honest_group + 1) % len(ctx.assignment.groups)
        if claimed == honest_group:
            return args
        tampered = dict(args)
        tampered["group_id"] = int(claimed)
        return tampered


class LateJoinScenario(Scenario):
    """An owner joins the training effort only from ``join_round`` onwards.

    Before joining, the owner is registered (the contract requires a full
    cohort) but contributes no learning: it submits the unchanged global
    model instead of a trained update.  GroupSV then prices the missing
    signal — the late joiner's accumulated contribution trails its fully
    participating counterfactual.
    """

    def __init__(self, owner_id: str, join_round: int) -> None:
        self.owner_id = owner_id
        self.join_round = int(join_round)

    def transform_update(
        self, ctx: RoundContext, owner_id: str, parameters: ModelParameters
    ) -> ModelParameters:
        if owner_id == self.owner_id and ctx.round_number < self.join_round:
            return ctx.global_parameters
        return parameters


class JoinScenario(Scenario):
    """A brand-new owner joins the training cohort on chain at ``join_round``.

    Unlike :class:`LateJoinScenario` (which fakes a join by having a
    registered owner submit the unchanged global model), this scenario makes
    membership itself dynamic: in the block of round ``join_round - 1`` the
    newcomer broadcasts a ``request_join`` transaction carrying its
    Diffie–Hellman public key and the effective round boundary.  Once that
    block commits, every peer re-derives pairwise masks against the new key,
    and from ``join_round`` on the registry's ``active_cohort`` — and hence
    grouping, aggregation, and settlement — includes the joiner.  Rounds
    before the join settle without it: the joiner earns nothing for them.
    """

    def __init__(self, dataset: "OwnerDataset", join_round: int) -> None:
        if join_round < 1:
            raise ProtocolError("join_round must be at least 1 (round 0 is the genesis cohort)")
        self.dataset = dataset
        self.join_round = int(join_round)

    def membership_transactions(self, protocol, ctx) -> list[Transaction]:
        if ctx.round_number != self.join_round - 1:
            return []
        participant = protocol.add_participant(self.dataset)
        return [
            Transaction(
                sender=self.dataset.owner_id,
                contract="registry",
                method="request_join",
                args={
                    "public_key": participant.public_key,
                    "effective_round": self.join_round,
                    "role": "owner",
                },
                nonce=protocol._next_nonce(self.dataset.owner_id),
            )
        ]


class LeaveScenario(Scenario):
    """An owner exits the training cohort on chain at ``leave_round``.

    The owner broadcasts a ``request_leave`` transaction in the block of round
    ``leave_round - 1``; from ``leave_round`` on it is excluded from grouping,
    submission, and settlement (it earns nothing for rounds it sat out) while
    its node keeps mining — membership governs the training cohort, not the
    replica set.
    """

    def __init__(self, owner_id: str, leave_round: int) -> None:
        if leave_round < 1:
            raise ProtocolError("leave_round must be at least 1")
        self.owner_id = owner_id
        self.leave_round = int(leave_round)

    def membership_transactions(self, protocol, ctx) -> list[Transaction]:
        if ctx.round_number != self.leave_round - 1:
            return []
        return [
            Transaction(
                sender=self.owner_id,
                contract="registry",
                method="request_leave",
                args={"effective_round": self.leave_round},
                nonce=protocol._next_nonce(self.owner_id),
            )
        ]


class ChurnScenario(ComposedScenario):
    """Multiple joins and leaves across a run (composition of the two above).

    Args:
        joins: ``(dataset, join_round)`` pairs for owners entering the cohort.
        leaves: ``(owner_id, leave_round)`` pairs for owners exiting it.
    """

    def __init__(
        self,
        joins: Sequence[tuple["OwnerDataset", int]] = (),
        leaves: Sequence[tuple[str, int]] = (),
    ) -> None:
        scenarios: list[Scenario] = [JoinScenario(dataset, round_number) for dataset, round_number in joins]
        scenarios.extend(LeaveScenario(owner_id, round_number) for owner_id, round_number in leaves)
        if not scenarios:
            raise ProtocolError("ChurnScenario needs at least one join or leave event")
        super().__init__(scenarios)


class AdversaryInjectionScenario(Scenario):
    """Apply :class:`~repro.core.adversary.AdversaryBehavior` tampering per round.

    Unlike the participant-level ``adversaries`` mapping (which tampers every
    round), a scenario can scope the attack to a window of rounds — e.g. an
    owner that turns malicious halfway through training.
    """

    def __init__(
        self,
        behaviors: Mapping[str, AdversaryBehavior],
        start_round: int = 0,
        end_round: int | None = None,
    ) -> None:
        self.behaviors = dict(behaviors)
        self.start_round = int(start_round)
        self.end_round = None if end_round is None else int(end_round)

    def transform_update(
        self, ctx: RoundContext, owner_id: str, parameters: ModelParameters
    ) -> ModelParameters:
        behavior = self.behaviors.get(owner_id)
        if behavior is None or ctx.round_number < self.start_round:
            return parameters
        if self.end_round is not None and ctx.round_number > self.end_round:
            return parameters
        return apply_adversary(parameters, behavior)


class LeaderDropoutScenario(Scenario):
    """Scheduled block proposers go silent, forcing consensus view changes.

    Requires ``ProtocolConfig.authority_rotation``: with the epoch-authority
    schedule, each FL round has a deterministic proposer rotation derived from
    chain state, and this scenario keeps the named owners from proposing in
    the targeted rounds.  The consensus falls through one view change per
    silent proposer — recorded in the block header's view number, so the
    failover itself is auditable — while the silent owners keep *training and
    submitting* (a proposer outage is a consensus fault, not a data fault; to
    also drop their submissions, compose with :class:`DropoutScenario`).

    A round in which every scheduled proposer is offline aborts with
    :class:`~repro.exceptions.RoundError` and withdraws what it gossiped: the
    chain, the mempools, and the nonce counters are untouched.

    Args:
        owner_ids: owners that will not propose (a single id is accepted).
        rounds: rounds the outage covers (None = every round).
    """

    requires_authority_rotation = True

    def __init__(self, owner_ids: Sequence[str] | str, rounds: Sequence[int] | None = None) -> None:
        self.owner_ids = {owner_ids} if isinstance(owner_ids, str) else set(owner_ids)
        if not self.owner_ids:
            raise ProtocolError("LeaderDropoutScenario needs at least one owner id")
        self.rounds = None if rounds is None else {int(r) for r in rounds}

    def leader_offline(self, ctx: RoundContext, leader_id: str) -> bool:
        if self.rounds is not None and ctx.round_number not in self.rounds:
            return False
        return leader_id in self.owner_ids


# ----------------------------------------------------------------------
# Fault-injection scenarios (transport layer)
# ----------------------------------------------------------------------

class FaultScenario(Scenario):
    """Base for scenarios that run the swarm over a fault-injecting transport.

    On setup (after the setup block commits — registration traffic stays
    clean and deterministic) the scenario swaps the protocol's network onto a
    :class:`~repro.blockchain.transport.FaultInjectingTransport` built from
    its seeded :class:`~repro.blockchain.transport.FaultPlan`.  At settlement
    it asserts the paper's convergence obligation: every remaining fault is
    healed, lagging replicas resync via the chain's fast-sync recovery path,
    every miner must hold the same head hash, and the reference chain must
    pass a full transparency audit (:func:`repro.core.audit.audit_chain`) —
    a healed swarm converges to one audited chain or the run fails loudly.
    """

    def __init__(self, plan: FaultPlan | None = None, round_retries: int = 0) -> None:
        self.plan = plan or FaultPlan()
        self.round_retries = int(round_retries)
        self.protocol: "BlockchainFLProtocol | None" = None
        self.transport: FaultInjectingTransport | None = None

    def on_setup(self, protocol: "BlockchainFLProtocol") -> None:
        self.protocol = protocol
        self.transport = protocol.network.install_transport(FaultInjectingTransport(self.plan))

    def on_settlement(self, result: ProtocolResult) -> None:
        protocol = self.protocol
        if protocol is None or self.transport is None:
            raise ProtocolError("fault scenario settled without on_setup having run")
        self.transport.heal_all()
        resynced = protocol.resync_lagging_replicas()
        heads = {
            owner: protocol.participants[owner].node.chain.head.block_hash
            for owner in protocol.owner_ids
        }
        if len(set(heads.values())) != 1:
            raise ProtocolError(
                f"swarm did not converge after heal: distinct heads {sorted(set(heads.values()))} "
                f"across {heads}"
            )
        report = audit_chain(
            protocol._reference_chain(),
            protocol.validation_features,
            protocol.validation_labels,
            protocol.n_classes,
        )
        if not report.passed:
            raise ProtocolError(
                f"post-heal transparency audit failed: {len(report.mismatches)} mismatch(es)"
            )
        # Resync traffic ran after the settlement stage snapshotted the stats;
        # refresh so the reported numbers include the recovery.
        result.network_stats = protocol.network.stats.as_dict()
        result.delivery_report = protocol.network.stats.delivery_report()
        result.network_stats.setdefault("resyncs", {})
        for owner in resynced:
            result.network_stats["resyncs"][owner] = list(
                protocol.participants[owner].node.resyncs
            )


class PartitionAndHealScenario(FaultScenario):
    """Split the swarm into cells for a round's first attempts, then heal.

    While the partition is open no leader can assemble the full submission
    set (secure aggregation needs every cohort member), so every scheduled
    proposer fails, the round aborts untouched, and the scheduler re-attempts
    it; once the partition heals the retry commits a block byte-identical to
    an undisturbed run's (pinned by tests).

    Args:
        round_number: the round whose first attempts run partitioned.
        heal_after_attempts: how many attempts fail before the heal.
        cells: explicit partition cells (default: the cohort split in half).
        plan: optional baseline fault plan (seed etc.) for the transport.
    """

    requires_authority_rotation = True

    def __init__(
        self,
        round_number: int = 1,
        heal_after_attempts: int = 1,
        cells: Sequence[Sequence[str]] | None = None,
        plan: FaultPlan | None = None,
    ) -> None:
        if heal_after_attempts < 1:
            raise ProtocolError("heal_after_attempts must be at least 1")
        super().__init__(plan=plan, round_retries=heal_after_attempts + 1)
        self.round_number = int(round_number)
        self.heal_after_attempts = int(heal_after_attempts)
        self.cells = None if cells is None else tuple(tuple(cell) for cell in cells)
        self._attempts_seen = 0
        self.partition_name = "partition:split"

    def _default_cells(self) -> tuple[tuple[str, ...], ...]:
        owners = self.protocol.owner_ids
        half = max(1, len(owners) // 2)
        return (tuple(owners[:half]), tuple(owners[half:]))

    def on_round_start(self, ctx: RoundContext) -> None:
        if ctx.round_number != self.round_number:
            return
        if self._attempts_seen < self.heal_after_attempts:
            cells = self.cells or self._default_cells()
            self.transport.set_partition(PartitionSpec(self.partition_name, cells))
        else:
            self.transport.heal(self.partition_name)
        self._attempts_seen += 1


class EclipseScenario(FaultScenario):
    """One victim is eclipsed: honest peers' messages to it are all blocked.

    The partition is *inbound-only*: the victim's own submissions still reach
    the leaders (rounds finalize on schedule for everyone else), but it sees
    no proposals or commits and silently falls behind the swarm.  When the
    eclipse lifts, the victim detects the gap from the next message above its
    height (or the post-run convergence sweep) and resyncs from an honest
    peer via the chain's fast-sync recovery path — ending byte-identical to
    the replicas that never left.

    The victim must not be the protocol's reference replica (the first sorted
    owner), which the convergence checks and auditors read from.
    """

    requires_authority_rotation = True

    def __init__(
        self,
        victim: str,
        rounds: Sequence[int] = (1,),
        plan: FaultPlan | None = None,
    ) -> None:
        super().__init__(plan=plan, round_retries=1)
        self.victim = victim
        self.rounds = {int(r) for r in rounds}
        if not self.rounds:
            raise ProtocolError("EclipseScenario needs at least one target round")
        self.partition_name = f"eclipse:{victim}"

    def on_setup(self, protocol: "BlockchainFLProtocol") -> None:
        super().on_setup(protocol)
        if self.victim not in protocol.owner_ids:
            raise ProtocolError(f"eclipse victim {self.victim!r} is not a participant")
        if self.victim == protocol.owner_ids[0]:
            raise ProtocolError(
                "the eclipse victim cannot be the reference replica "
                f"({protocol.owner_ids[0]!r}): reads and audits go through it"
            )

    def on_round_start(self, ctx: RoundContext) -> None:
        if ctx.round_number in self.rounds:
            self.transport.set_partition(
                PartitionSpec(self.partition_name, ((self.victim,),), direction="inbound")
            )
        else:
            self.transport.heal(self.partition_name)

    def on_round_end(self, ctx: RoundContext) -> None:
        if ctx.round_number == max(self.rounds):
            self.transport.heal(self.partition_name)


class LossyGossipScenario(FaultScenario):
    """Every link drops messages with a fixed probability (seeded).

    Gossip retries with exponential backoff, point-to-point redelivery to
    would-be leaders, leader failover, and round re-attempts absorb the loss;
    the run must still converge to one audited chain.  Two runs with the same
    seed are identical down to the delivery report (pinned by tests).
    """

    def __init__(self, drop_probability: float = 0.1, seed: int = 0) -> None:
        super().__init__(
            plan=FaultPlan(seed=seed, drop_probability=drop_probability), round_retries=2
        )


class DuplicateStormScenario(FaultScenario):
    """Every link duplicates messages with a fixed probability (seeded).

    Duplicates are the benign fault: mempools deduplicate by tx hash,
    re-probed proposals discard the duplicate verdict, and a duplicate commit
    is acknowledged idempotently — so the chain is byte-identical to a clean
    run's (pinned by tests), with the storm visible only in the delivery
    report's ``duplicated`` counters.
    """

    def __init__(self, duplicate_probability: float = 0.5, seed: int = 0) -> None:
        super().__init__(
            plan=FaultPlan(seed=seed, duplicate_probability=duplicate_probability)
        )


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------

class RoundStage:
    """One step of the round pipeline; stages are stateless and reusable."""

    name = "stage"

    def run(self, protocol: "BlockchainFLProtocol", ctx: RoundContext, scenario: Scenario) -> None:
        raise NotImplementedError


class LocalTrainingStage(RoundStage):
    """Every owner trains locally from the current global model."""

    name = "local-training"

    def run(self, protocol, ctx, scenario) -> None:
        for owner_id in ctx.owner_ids:
            participant = protocol.participants[owner_id]
            local = participant.train_local(ctx.global_parameters, ctx.round_number)
            local = scenario.transform_update(ctx, owner_id, local)
            ctx.local_models[owner_id] = local


def validate_submission(ctx: RoundContext, tx: Transaction, model_dimension: int) -> str | None:
    """Gossip-level validation of a submission transaction.

    The training contract's own submission check, run before the transaction
    can occupy a block slot; only the two questions a contract call never
    faces — is this the submission call, and is it for the round in flight —
    are asked here.  Returns a human-readable rejection reason, or None for a
    valid submission.
    """
    if tx.contract != "fl_training" or tx.method != "submit_masked_update":
        return f"unexpected call {tx.contract}.{tx.method} in the submission stage"
    if int(tx.args.get("round_number", -1)) != ctx.round_number:
        return f"{tx.sender} submitted for the wrong round"
    return ctx.assignment.check_submission(
        tx.sender,
        tx.args.get("group_id", -1),
        tx.args.get("shard_id"),
        np.size(tx.args.get("payload")),
        model_dimension,
    )


class MaskingSubmissionStage(RoundStage):
    """Owners mask their updates and stage submission transactions.

    The stage builds one submission per owner (letting the scenario tamper
    with or withhold it), validates every transaction at the gossip level,
    and then waits — up to ``ctx.max_wait_ticks`` simulated ticks — for
    withheld submissions to arrive.  Nothing reaches the mempool here; the
    BlockProposal stage flushes the completed set in canonical order.
    """

    name = "masking-submission"

    def run(self, protocol, ctx, scenario) -> None:
        for owner_id in ctx.owner_ids:
            nonce = protocol._next_nonce(owner_id)
            honest = protocol.participants[owner_id].masked_update_transaction(
                ctx.local_models[owner_id], ctx.round_number, ctx.assignment, nonce
            )
            tampered_args = scenario.tamper_submission(ctx, owner_id, dict(honest.args))
            # Rebuilding from the (possibly tampered) args is exact: identical
            # args reproduce the honest transaction bit for bit, signature
            # included, so no array-valued dict comparison is needed.
            tx = Transaction(
                sender=owner_id,
                contract=honest.contract,
                method=honest.method,
                args=tampered_args,
                nonce=nonce,
            )
            reason = validate_submission(ctx, tx, protocol.model_dimension)
            if reason is not None:
                rejection = SubmissionRejection(owner_id, ctx.round_number, reason)
                ctx.rejections.append(rejection)
                scenario.on_rejection(ctx, rejection)
                # The rejected transaction never consumed its nonce on chain,
                # so the honest fallback slots in exactly where it would have.
                tx = honest
            ctx.submissions[owner_id] = tx
            reason = scenario.withhold_submission(ctx, owner_id)
            if reason is not None:
                ctx.withheld[owner_id] = reason

        while ctx.missing_owners() and ctx.ticks_waited < ctx.max_wait_ticks:
            ctx.ticks_waited += 1
            scenario.on_tick(ctx)
        missing = ctx.missing_owners()
        if missing:
            # The scheduler rewinds the nonce counters this stage advanced.
            raise RoundError(
                f"round {ctx.round_number}: no submission from {missing} after "
                f"{ctx.ticks_waited} ticks (straggler timeout); nothing was committed"
            )


class SecureAggregationStage(RoundStage):
    """Stage the ``finalize_round`` call that aggregates the masked updates.

    The aggregation itself (mask cancellation, fixed-point decoding, group and
    global model publication) is a deterministic contract execution; staging
    it here keeps the call inside the round's single block.
    """

    name = "secure-aggregation"

    def run(self, protocol, ctx, scenario) -> None:
        closer = ctx.owner_ids[ctx.round_number % len(ctx.owner_ids)]
        ctx.closing_transactions.append(
            Transaction(
                sender=closer,
                contract="fl_training",
                method="finalize_round",
                args={"round_number": ctx.round_number},
                nonce=protocol._next_nonce(closer),
            )
        )


class EvaluationStage(RoundStage):
    """Stage the ``evaluate_round`` call (Algorithm 1 on chain)."""

    name = "evaluation"

    def run(self, protocol, ctx, scenario) -> None:
        closer = ctx.owner_ids[ctx.round_number % len(ctx.owner_ids)]
        ctx.closing_transactions.append(
            Transaction(
                sender=closer,
                contract="contribution",
                method="evaluate_round",
                args={"round_number": ctx.round_number},
                nonce=protocol._next_nonce(closer),
            )
        )


class MembershipStage(RoundStage):
    """Stage the round's cohort-membership transactions (join/leave requests).

    Membership requests ride in the round's block *after* the closing calls:
    by the time a ``request_join`` / ``request_leave`` executes, the round is
    finalized on chain, so the registry can enforce that the change targets a
    strictly future round boundary.  Runs without membership scenarios stage
    nothing and commit byte-identical blocks to the fixed-cohort protocol.
    """

    name = "membership"

    def run(self, protocol, ctx, scenario) -> None:
        for tx in scenario.membership_transactions(protocol, ctx):
            ctx.closing_transactions.append(tx)


def round_result_from_chain(
    protocol: "BlockchainFLProtocol",
    round_number: int,
    consensus: VerificationResult | None = None,
) -> RoundResult:
    """A committed round's :class:`RoundResult`, read from chain state alone."""
    state = protocol._reference_chain().state
    round_record = state.get("fl_training", f"round/{round_number}")
    evaluation = state.get("contribution", f"evaluation/{round_number}")
    if round_record is None or evaluation is None:
        raise RoundError(f"round {round_number} did not finalize or evaluate on chain")
    global_vector = np.asarray(round_record["global_model"], dtype=np.float64)
    return RoundResult(
        round_number=round_number,
        groups=tuple(tuple(group) for group in round_record["groups"]),
        user_values=dict(evaluation["user_values"]),
        group_values=tuple(evaluation["group_values"]),
        global_utility=float(evaluation["global_utility"]),
        global_parameters=protocol._template_parameters.from_vector(global_vector),
        consensus=consensus,
        user_half_widths=dict(evaluation.get("user_half_widths", {})),
        estimator=evaluation.get("estimator"),
    )


class BlockProposalStage(RoundStage):
    """Flush the staged transactions, run consensus, and read the round back.

    Submissions are gossiped in canonical sorted-owner order followed by the
    closing calls, so the proposed block's transaction list — and therefore
    its Merkle root and hash — does not depend on scenario timing.

    The commit is one failover walk (``BlockchainFLProtocol._commit_block``)
    over the round's candidate proposers — the epoch schedule's views on
    authority-rotation chains, the static round-robin otherwise — skipping
    the ones the scenario keeps silent; the winning view lands in the block
    header on rotation chains, and the view and the failover log in
    ``ctx.metadata["view"]`` / ``ctx.metadata["view_changes"]`` for
    reporting.  Every committed round additionally records its header
    coordinates (``ctx.metadata["block_height"]`` / ``["state_root"]``) — the
    commitment a participant checks its round entries' inclusion proofs
    against, and the height to pass to ``Blockchain.state_at``.  If every
    candidate fails the walk withdraws the staged transactions and the round
    aborts, preserving the pipeline's "an aborted round touched nothing"
    contract.
    """

    name = "block-proposal"

    def run(self, protocol, ctx, scenario) -> None:
        staged = [ctx.submissions[owner_id] for owner_id in sorted(ctx.submissions)]
        staged.extend(ctx.closing_transactions)
        for tx in staged:
            protocol._submit(tx)
        try:
            ctx.consensus, ctx.metadata["view"], ctx.metadata["view_changes"] = (
                protocol._commit_block(
                    required=staged,
                    round_number=ctx.round_number,
                    offline=lambda leader_id: scenario.leader_offline(ctx, leader_id),
                )
            )
        except ConsensusError as exc:
            raise RoundError(f"round {ctx.round_number}: {exc}; nothing was committed") from exc

        chain = protocol._reference_chain()
        # The round's committed header coordinates: this is the block whose
        # state_root commits the round's evaluation/settlement entries, i.e.
        # the header a participant verifies an inclusion proof against
        # (chain.state_at(height) reads the state exactly as of this block).
        ctx.metadata["block_height"] = chain.height
        ctx.metadata["state_root"] = chain.head.header.state_root
        # A rejected membership request commits as a *failed receipt* — the
        # round itself is fine (and its block stays on chain), but the
        # scenario the caller asked for did not happen; surface it as a
        # run-level ProtocolError rather than a RoundError, whose contract is
        # "the aborted round touched nothing".
        for tx, receipt in zip(chain.head.transactions, chain.head.receipts):
            if (
                tx.contract == "registry"
                and tx.method in ("request_join", "request_leave")
                and not receipt.success
            ):
                raise ProtocolError(
                    f"round {ctx.round_number} committed, but its membership request "
                    f"{tx.method} from {tx.sender} failed on chain: {receipt.error}"
                )
        ctx.result = round_result_from_chain(protocol, ctx.round_number, ctx.consensus)
        scenario.on_round_end(ctx)


DEFAULT_ROUND_STAGES: tuple[RoundStage, ...] = (
    LocalTrainingStage(),
    MaskingSubmissionStage(),
    SecureAggregationStage(),
    EvaluationStage(),
    MembershipStage(),
    BlockProposalStage(),
)


class SetupStage:
    """Pin protocol parameters and register every participant on chain."""

    name = "setup"

    def run(self, protocol: "BlockchainFLProtocol", scenario: Scenario) -> VerificationResult | None:
        if protocol._setup_done:
            return None
        result = protocol.setup()
        scenario.on_setup(protocol)
        return result


class SettlementStage:
    """Distribute the reward pool and collect the run's final statistics.

    Fixed-cohort runs settle through the classic ``distribute`` call (their
    final block is byte-identical to the pre-epoch protocol).  Runs whose
    chain records membership events settle through ``distribute_by_epoch``:
    the pool splits across cohort epochs by SV mass, so owners absent from an
    epoch's rounds earn nothing for them.
    """

    name = "settlement"

    def run(
        self, protocol: "BlockchainFLProtocol", result: ProtocolResult, scenario: Scenario
    ) -> ProtocolResult:
        chain = protocol._reference_chain()
        has_membership = has_membership_events(chain.state)
        if chain.state.get("reward", "distribution/final") is None:
            closer = protocol.owner_ids[0]
            reward_tx = Transaction(
                sender=closer,
                contract="reward",
                method="distribute_by_epoch" if has_membership else "distribute",
                args={"reward_pool": protocol.config.reward_pool, "label": "final"},
                nonce=protocol._next_nonce(closer),
            )
            protocol._submit(reward_tx)
            protocol._commit_block(required=[reward_tx])
            if chain.state.get("reward", "distribution/final") is None:
                # A failed settlement produces a failed receipt, not an exception —
                # surface it instead of reporting empty balances as a clean run.
                # The settlement block is already committed, so this is a run-level
                # ProtocolError, not a RoundError ("the aborted round touched
                # nothing").
                receipt = chain.find_receipt(reward_tx.tx_hash)
                error = receipt.error if receipt is not None else "transaction not found"
                raise ProtocolError(f"final reward settlement failed on chain: {error}")
        result.total_contributions = dict(chain.state.get("contribution", "totals", {}))
        result.reward_balances = dict(chain.state.get("reward", "balances", {}))
        result.chain_height = chain.height
        result.total_transactions = chain.total_transactions()
        result.total_gas = chain.total_gas()
        result.network_stats = protocol.network.stats.as_dict()
        result.delivery_report = protocol.network.stats.delivery_report()
        if has_membership:
            result.epoch_settlements = self._epoch_summaries(protocol, chain)
        scenario.on_settlement(result)
        return result

    @staticmethod
    def _epoch_summaries(protocol: "BlockchainFLProtocol", chain) -> list[dict]:
        """Per-epoch report: round range, cohort, SV mass, and settled pool."""
        distribution = chain.state.get("reward", "distribution/final", {}) or {}
        breakdown = distribution.get("epochs", {})
        summaries = []
        for epoch in epochs_from_state(chain.state, protocol.config.n_rounds):
            settled = breakdown.get(str(epoch["epoch"]), {})
            summaries.append(
                {
                    "epoch": epoch["epoch"],
                    "start": epoch["start"],
                    "end": epoch["end"],
                    "cohort": list(epoch["cohort"]),
                    "sv_mass": float(settled.get("sv_mass", 0.0)),
                    "reward_pool": float(settled.get("reward_pool", 0.0)),
                    "payouts": dict(settled.get("payouts", {})),
                }
            )
        return summaries


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------

class RoundScheduler:
    """Drives the stage pipeline over all configured rounds.

    The scheduler owns the stage list (swap stages to customize the runtime),
    the scenario, and the per-round contexts it produced — the contexts stay
    available on :attr:`contexts` for reporting and tests.
    """

    def __init__(
        self,
        protocol: "BlockchainFLProtocol",
        scenario: Scenario | None = None,
        round_stages: Sequence[RoundStage] | None = None,
        max_wait_ticks: int = 8,
    ) -> None:
        self.protocol = protocol
        self.scenario = scenario or Scenario()
        if self.scenario.requires_authority_rotation and not protocol.config.authority_rotation:
            raise ProtocolError(
                f"{type(self.scenario).__name__} requires authority rotation: enable "
                "ProtocolConfig.authority_rotation or the scenario would silently "
                "degenerate to a plain run"
            )
        self.round_stages = tuple(round_stages) if round_stages is not None else DEFAULT_ROUND_STAGES
        self.max_wait_ticks = int(max_wait_ticks)
        self.contexts: list[RoundContext] = []

    def build_context(self, round_number: int, global_parameters: ModelParameters) -> RoundContext:
        """Create the context for a round: cohort and assignment resolved, nothing trained.

        The round's owner cohort is re-derived from chain state (the
        registry's epoch view), so a join or leave committed in an earlier
        block takes effect here — and any miner replaying the chain derives
        the same cohort.  On dynamic-membership chains the peer DH keys are
        refreshed first so masks can be built against owners whose keys were
        registered after setup; fixed-cohort runs skip the refresh (their key
        table cannot change after setup).
        """
        protocol = self.protocol
        if has_membership_events(protocol._reference_chain().state):
            protocol.sync_peer_keys()
        cohort = protocol.active_cohort(round_number)
        config = protocol.config
        return RoundContext(
            round_number=round_number,
            global_parameters=global_parameters,
            owner_ids=list(cohort),
            assignment=round_assignment(
                cohort, config.n_groups, config.permutation_seed, round_number, config.shard_size
            ),
            max_wait_ticks=self.max_wait_ticks,
        )

    def run_round(self, round_number: int, global_parameters: ModelParameters) -> RoundResult:
        """Execute one full on-chain round through the stage pipeline.

        A :class:`~repro.exceptions.RoundError` means an attempt aborted with
        nothing committed; since an aborted attempt touches nothing, the
        scheduler may simply re-attempt the round (the scenario's
        ``round_retries`` extra times — the recovery path for rounds lost to
        delivery faults, e.g. while a partition is still open).  Each attempt advances the
        transport's simulated clock by one tick.  The last attempt's
        :class:`~repro.exceptions.RoundError` propagates unchanged.
        """
        if not self.protocol._setup_done:
            raise ProtocolError("setup() must run before training rounds")
        last_error: RoundError | None = None
        for attempt in range(self.scenario.round_retries + 1):
            self.protocol.network.begin_round(round_number)
            try:
                return self._attempt_round(round_number, global_parameters, attempt)
            except RoundError as exc:
                last_error = exc
        assert last_error is not None
        raise last_error

    def _attempt_round(
        self, round_number: int, global_parameters: ModelParameters, attempt: int = 0
    ) -> RoundResult:
        """One attempt of a round; aborts rewind the off-chain nonce counters.

        Every attempt appends its own :class:`RoundContext` to
        :attr:`contexts` (an aborted attempt's ``result`` stays ``None``) and
        records the attempt number and the delivery activity it caused in
        ``ctx.metadata["attempt"]`` / ``["delivery"]``.
        """
        ctx = self.build_context(round_number, global_parameters)
        ctx.metadata["attempt"] = attempt
        self.contexts.append(ctx)
        self.scenario.on_round_start(ctx)
        nonce_snapshot = dict(self.protocol._nonces)
        report_before = self.protocol.network.stats.delivery_report()
        try:
            for stage in self.round_stages:
                stage.run(self.protocol, ctx, self.scenario)
        except RoundError:
            # RoundError's contract is "the aborted round touched nothing":
            # nothing was committed, so the nonces staged by earlier stages
            # (submission building, closing calls) must rewind with it.
            self.protocol._nonces = nonce_snapshot
            ctx.metadata["delivery"] = delivery_report_delta(
                report_before, self.protocol.network.stats.delivery_report()
            )
            raise
        ctx.metadata["delivery"] = delivery_report_delta(
            report_before, self.protocol.network.stats.delivery_report()
        )
        if ctx.result is None:
            raise RoundError(f"round {round_number}: pipeline finished without a result")
        return ctx.result

    def run(self, stop_after: int | None = None) -> ProtocolResult:
        """Run setup, every training round, and the final settlement.

        The one driver of the protocol, fresh or resumed: it starts from chain
        state, so rounds the chain already holds (a protocol restored by
        ``resume_from``, or one whose earlier run aborted) are read back
        rather than re-run, and a chain that has already settled is only
        reported.  ``stop_after=R`` returns after rounds ``0..R-1`` without
        settling — a run interrupted before its settlement block.
        """
        SetupStage().run(self.protocol, self.scenario)
        result = ProtocolResult()
        global_parameters = self.protocol._template_parameters
        committed = set(self.protocol.completed_rounds())
        n_rounds = self.protocol.config.n_rounds
        for round_number in range(n_rounds if stop_after is None else stop_after):
            if round_number in committed:
                round_result = round_result_from_chain(self.protocol, round_number)
            else:
                round_result = self.run_round(round_number, global_parameters)
            global_parameters = round_result.global_parameters
            result.rounds.append(round_result)
        result.final_parameters = global_parameters
        if stop_after is not None:
            return result
        return SettlementStage().run(self.protocol, result, self.scenario)
