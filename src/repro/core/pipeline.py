"""The staged round pipeline: Section IV.B as composable stages.

The protocol of the paper used to live in one monolithic ``run`` loop.  This
module decomposes it into explicit stages driven by a :class:`RoundScheduler`:

    Setup -> LocalTraining -> Masking/Submission
          -> SecureAggregation -> Evaluation -> Membership
          -> BlockProposal -> Settlement

Every stage reads and writes one :class:`RoundContext` — the complete state of
a round in flight (cohort, the round's assignment, local models, staged
transactions, withheld submissions, rejections, consensus verdict).  What
happens to a run besides the protocol — dropouts, stragglers, tampered models,
lying group claims, cohort joins/leaves, silent block proposers, delivery
faults and partitions — is data: one :class:`RunSpec`, read through the round
hooks by one :class:`Scenario`, so ``examples/``, the CLI, and the benchmarks
all drive the very same runtime.  Each round's owner cohort is re-derived from chain state (the
registry's epoch view), so membership transactions committed in earlier
blocks change who trains, masks, and settles from their effective round on.

Two design rules keep scenario runs receipt-compatible with plain runs:

* **Staged submission barrier** — submission transactions are *built* during
  the Masking/Submission stage but only gossiped to the mempool at the
  BlockProposal stage, in canonical (sorted-owner) order.  A dropout that
  recovers or a straggler that arrives late therefore produces byte-identical
  blocks: arrival order in the mempool never depends on scenario timing.
* **Gossip-level validation** — a tampered submission (an unknown argument,
  wrong group claim, wrong dimension) is rejected *before* it reaches the
  mempool, exactly as a real chain's nodes drop invalid transactions at
  admission — by the checks the training contract runs (``argument_error``,
  :meth:`~repro.crypto.sharding.RoundAssignment.check_submission`).  The rejected
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
from typing import TYPE_CHECKING, Any, Sequence

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

#: Simulated ticks the submission stage waits for withheld submissions
#: before the round aborts with a straggler timeout.
MAX_WAIT_TICKS = 8

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
    # The round's canonical dealing (groups, every owner's group) — the
    # same derivation the training contract and the audit run from chain state.
    assignment: RoundAssignment
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
# Run specs: everything that happens to a run besides the protocol itself
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Withhold:
    """Hold ``owner_id``'s built submission back for ``ticks`` simulated ticks.

    A dropout is one round's entry, a straggler's covers every round
    (``rounds=None``).  Past :data:`MAX_WAIT_TICKS` the round aborts with a
    straggler timeout before anything reaches the chain; within it the block
    is byte-identical to an undisturbed run's, because submissions only reach
    the mempool at the BlockProposal barrier.
    """

    owner_id: str
    ticks: int
    rounds: Sequence[int] | None = None

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ProtocolError("withhold ticks must be at least 1")

    def applies(self, owner_id: str, round_number: int) -> bool:
        return owner_id == self.owner_id and (self.rounds is None or round_number in self.rounds)


@dataclass(frozen=True)
class Tamper:
    """Replace ``owner_id``'s trained model in rounds ``start..end`` (inclusive).

    ``behavior=None`` means the owner idles and submits the unchanged global
    model (a late joiner before it joins); otherwise the
    :class:`~repro.core.adversary.AdversaryBehavior` transforms the update.
    """

    owner_id: str
    behavior: AdversaryBehavior | None = None
    start: int = 0
    end: int | None = None

    def applies(self, owner_id: str, round_number: int) -> bool:
        return (
            owner_id == self.owner_id
            and self.start <= round_number
            and (self.end is None or round_number <= self.end)
        )


@dataclass(frozen=True)
class GroupClaim:
    """``owner_id``'s submission claims the group after its own.

    Gossip-level validation rejects the lie before it can occupy a block
    slot, and the owner falls back to its honest submission with the same
    nonce, so the chain equals an all-honest run's; the rejection is recorded
    on the :class:`RoundContext`.
    """

    owner_id: str
    rounds: Sequence[int] | None = None

    def applies(self, owner_id: str, round_number: int) -> bool:
        return owner_id == self.owner_id and (self.rounds is None or round_number in self.rounds)


@dataclass(frozen=True)
class Join:
    """A new owner enters the training cohort on chain from ``round_number``.

    Its ``request_join`` (carrying its Diffie–Hellman key) rides in the block
    of the round before; from ``round_number`` on grouping, aggregation and
    settlement include it, and it earns nothing for the rounds before.
    """

    dataset: "OwnerDataset"
    round_number: int

    def __post_init__(self) -> None:
        if self.round_number < 1:
            raise ProtocolError("a join round must be at least 1 (round 0 is the genesis cohort)")


@dataclass(frozen=True)
class Leave:
    """``owner_id`` exits the training cohort on chain from ``round_number``.

    Its ``request_leave`` rides in the block of the round before; it keeps
    mining — membership governs the training cohort, not the replica set.
    """

    owner_id: str
    round_number: int

    def __post_init__(self) -> None:
        if self.round_number < 1:
            raise ProtocolError("a leave round must be at least 1")


@dataclass(frozen=True)
class SilentLeaders:
    """``owner_ids`` never propose in ``rounds`` (None = every round).

    Each silent proposer costs a view change, recorded in the block header;
    the silent owners keep training and submitting.  A round whose every
    scheduled proposer is silent aborts with nothing committed.
    """

    owner_ids: Sequence[str] | str
    rounds: Sequence[int] | None = None

    def __post_init__(self) -> None:
        owners = (self.owner_ids,) if isinstance(self.owner_ids, str) else tuple(self.owner_ids)
        if not owners:
            raise ProtocolError("a silent-leader entry needs at least one owner id")
        object.__setattr__(self, "owner_ids", frozenset(owners))

    def applies(self, leader_id: str, round_number: int) -> bool:
        return leader_id in self.owner_ids and (self.rounds is None or round_number in self.rounds)


@dataclass(frozen=True)
class Partition:
    """A named network partition open during ``rounds``.

    ``cells`` default to the participants split in half.  With ``attempts``
    set it is open for that many attempts of each of its rounds and then
    heals, so the retry commits the block an undisturbed run would (a split
    swarm cannot assemble the full submission set).  ``direction="inbound"``
    is an eclipse: the cells' owners still reach the leaders but hear
    nothing, fall behind, and resync once it heals when its last round's
    block commits.
    """

    name: str
    rounds: Sequence[int]
    cells: Sequence[Sequence[str]] | None = None
    direction: str = "both"
    attempts: int | None = None

    def __post_init__(self) -> None:
        if not self.rounds:
            raise ProtocolError(f"partition {self.name!r} needs at least one round")

    def is_open(self, ctx: RoundContext) -> bool:
        return ctx.round_number in self.rounds and (
            self.attempts is None or ctx.metadata["attempt"] < self.attempts
        )


@dataclass(frozen=True)
class RunSpec:
    """What happens to a run besides the protocol itself, as data.

    Composing two specs is concatenating their tuples.  A spec with
    ``faults`` or ``partitions`` runs over the fault-injecting transport;
    one with silent leaders or partitions only exists under the
    epoch-authority schedule (:attr:`Scenario.requires_authority_rotation`).
    ``round_retries`` is how many extra attempts a round aborted by delivery
    faults gets (at least each partition's ``attempts``); an aborted attempt
    touches nothing, so a retry re-stages the identical round.
    """

    withhold: tuple[Withhold, ...] = ()
    tamper: tuple[Tamper, ...] = ()
    group_claims: tuple[GroupClaim, ...] = ()
    joins: tuple[Join, ...] = ()
    leaves: tuple[Leave, ...] = ()
    silent_leaders: tuple[SilentLeaders, ...] = ()
    faults: FaultPlan | None = None
    partitions: tuple[Partition, ...] = ()
    round_retries: int = 0

    @property
    def faulty(self) -> bool:
        return self.faults is not None or bool(self.partitions)


# ----------------------------------------------------------------------
# Scenario hooks
# ----------------------------------------------------------------------

class Scenario:
    """Steers a protocol run: reads a :class:`RunSpec` through the round hooks.

    Each hook's docstring says where in the stage pipeline it runs.  A
    subclass that expresses behaviour as code overrides the hooks it needs,
    passes any spec to ``super().__init__(spec)`` (without one it reads the
    empty spec), and may override :attr:`requires_authority_rotation` or
    :attr:`round_retries` when its code needs them.  A faulty spec swaps the
    network onto a :class:`~repro.blockchain.transport.FaultInjectingTransport`
    on setup (registration traffic stays clean) and, at settlement, asserts the
    paper's convergence obligation: every fault heals, lagging replicas
    resync through the chain's fast-sync path, every miner holds the same
    head, and the reference chain passes a full transparency audit.
    """

    spec: RunSpec = RunSpec()
    protocol: "BlockchainFLProtocol | None" = None
    transport: FaultInjectingTransport | None = None

    def __init__(self, spec: RunSpec | None = None) -> None:
        if spec is not None:
            self.spec = spec

    @property
    def requires_authority_rotation(self) -> bool:
        """Silent leaders and partitions only exist under the epoch-authority schedule."""
        return bool(self.spec.silent_leaders or self.spec.partitions)

    @property
    def round_retries(self) -> int:
        """Extra attempts an aborted round gets: enough to outlast every partition."""
        attempts = [partition.attempts or 0 for partition in self.spec.partitions]
        return max([self.spec.round_retries, *attempts])

    def _withholding(self, owner_id: str, round_number: int) -> Withhold | None:
        """The entry that holds an owner back this round: the first that matches."""
        return next((w for w in self.spec.withhold if w.applies(owner_id, round_number)), None)

    def on_setup(self, protocol: "BlockchainFLProtocol") -> None:
        """Called once per run, after the setup block commits or is restored."""
        self.protocol = protocol
        for partition in self.spec.partitions:
            owners = [owner for cell in partition.cells or () for owner in cell]
            for owner in owners:
                if owner not in protocol.owner_ids:
                    raise ProtocolError(
                        f"partition {partition.name!r}: {owner!r} is not a participant"
                    )
                if partition.direction == "inbound" and owner == protocol.owner_ids[0]:
                    raise ProtocolError(
                        f"partition {partition.name!r}: an eclipsed owner cannot be the "
                        f"reference replica ({owner!r}): reads and audits go through it"
                    )
        if self.spec.faulty:
            self.transport = protocol.network.install_transport(
                FaultInjectingTransport(self.spec.faults)
            )

    def on_round_start(self, ctx: RoundContext) -> None:
        """Called when a round's context has been created."""
        for partition in self.spec.partitions:
            if not partition.is_open(ctx):
                self.transport.heal(partition.name)
                continue
            cells = partition.cells
            if cells is None:
                owners = self.protocol.owner_ids
                half = max(1, len(owners) // 2)
                cells = (tuple(owners[:half]), tuple(owners[half:]))
            self.transport.set_partition(PartitionSpec(partition.name, cells, partition.direction))

    def transform_update(
        self, ctx: RoundContext, owner_id: str, parameters: ModelParameters
    ) -> ModelParameters:
        """Optionally replace an owner's freshly trained local model."""
        for tamper in self.spec.tamper:
            if tamper.applies(owner_id, ctx.round_number):
                if tamper.behavior is None:
                    parameters = ctx.global_parameters
                else:
                    parameters = apply_adversary(parameters, tamper.behavior)
        return parameters

    def tamper_submission(
        self, ctx: RoundContext, owner_id: str, args: dict[str, Any]
    ) -> dict[str, Any]:
        """Optionally rewrite the submission transaction arguments."""
        for claim in self.spec.group_claims:
            if not claim.applies(owner_id, ctx.round_number):
                continue
            honest = int(args["group_id"])
            claimed = (honest + 1) % len(ctx.assignment.groups)
            if claimed != honest:
                args = {**args, "group_id": claimed}
        return args

    def withhold_submission(self, ctx: RoundContext, owner_id: str) -> str | None:
        """Return a reason to keep this owner's submission back, or None."""
        return None if self._withholding(owner_id, ctx.round_number) is None else "withheld"

    def on_tick(self, ctx: RoundContext) -> None:
        """Called once per simulated tick while submissions are missing.

        The first entry that matches an owner holds it back, and only that
        entry's ticks release it: a later, shorter entry for the same owner
        cannot end the outage early.
        """
        for owner_id in list(ctx.withheld):
            entry = self._withholding(owner_id, ctx.round_number)
            if entry is not None and ctx.ticks_waited >= entry.ticks:
                ctx.deliver(owner_id)

    def membership_transactions(
        self, protocol: "BlockchainFLProtocol", ctx: RoundContext
    ) -> list[Transaction]:
        """Registry membership transactions to include in this round's block."""
        transactions = []
        for join in self.spec.joins:
            if ctx.round_number == join.round_number - 1:
                owner_id = join.dataset.owner_id
                participant = protocol.add_participant(join.dataset)
                transactions.append(Transaction(
                    sender=owner_id,
                    contract="registry",
                    method="request_join",
                    args={
                        "public_key": participant.public_key,
                        "effective_round": join.round_number,
                        "role": "owner",
                    },
                    nonce=protocol._next_nonce(owner_id),
                ))
        for leave in self.spec.leaves:
            if ctx.round_number == leave.round_number - 1:
                transactions.append(Transaction(
                    sender=leave.owner_id,
                    contract="registry",
                    method="request_leave",
                    args={"effective_round": leave.round_number},
                    nonce=protocol._next_nonce(leave.owner_id),
                ))
        return transactions

    def leader_offline(self, ctx: RoundContext, leader_id: str) -> bool:
        """Return True to keep a candidate proposer silent for this round.

        A silent proposer costs a failover (a view change on rotation chains);
        a round whose every candidate is silent aborts without touching the
        chain.
        """
        return any(entry.applies(leader_id, ctx.round_number) for entry in self.spec.silent_leaders)

    def on_round_end(self, ctx: RoundContext) -> None:
        """Called after the round's block has committed."""
        for partition in self.spec.partitions:
            if ctx.round_number == max(partition.rounds):
                self.transport.heal(partition.name)

    def on_settlement(self, result: ProtocolResult) -> None:
        """Called after the final reward distribution."""
        if not self.spec.faulty:
            return
        protocol = self.protocol
        if protocol is None or self.transport is None:
            raise ProtocolError("a faulty run settled without on_setup having run")
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


def validate_submission(ctx: RoundContext, tx: Transaction, protocol: "BlockchainFLProtocol") -> str | None:
    """Gossip-level validation of a submission transaction.

    The training contract's own checks — the runtime's argument check, then
    the round assignment's submission check — run before the transaction can
    occupy a block slot; only the two questions a contract call never faces —
    is this the submission call, and is it for the round in flight — are
    asked here.  Returns a human-readable rejection reason, or None for a
    valid submission.
    """
    if tx.contract != "fl_training" or tx.method != "submit_masked_update":
        return f"unexpected call {tx.contract}.{tx.method} in the submission stage"
    reason = protocol._reference_chain().runtime.argument_error(tx.contract, tx.method, tx.args)
    if reason is not None:
        return reason
    if int(tx.args.get("round_number", -1)) != ctx.round_number:
        return f"{tx.sender} submitted for the wrong round"
    return ctx.assignment.check_submission(
        tx.sender,
        tx.args.get("group_id", -1),
        np.size(tx.args.get("payload")),
        protocol.model_dimension,
    )


class MaskingSubmissionStage(RoundStage):
    """Owners mask their updates and stage submission transactions.

    The stage builds one submission per owner (letting the scenario tamper
    with or withhold it), validates every transaction at the gossip level,
    and then waits — up to :data:`MAX_WAIT_TICKS` simulated ticks — for
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
            reason = validate_submission(ctx, tx, protocol)
            if reason is not None:
                ctx.rejections.append(SubmissionRejection(owner_id, ctx.round_number, reason))
                # The rejected transaction never consumed its nonce on chain,
                # so the honest fallback slots in exactly where it would have.
                tx = honest
            ctx.submissions[owner_id] = tx
            reason = scenario.withhold_submission(ctx, owner_id)
            if reason is not None:
                ctx.withheld[owner_id] = reason

        while ctx.missing_owners() and ctx.ticks_waited < MAX_WAIT_TICKS:
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
    strictly future round boundary.  Runs without joins or leaves stage
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
    against.  If every
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
        # the header a participant verifies an inclusion proof against.
        ctx.metadata["block_height"] = chain.height
        ctx.metadata["state_root"] = chain.head.header.state_root
        # A closing call that fails commits as a *failed receipt*: the block
        # stays on chain, its nonces consumed, but the round (or the
        # membership change) the caller asked for did not happen.  Surface it
        # as a run-level ProtocolError rather than a RoundError, whose
        # contract is "the aborted round touched nothing".
        closing = {tx.tx_hash for tx in ctx.closing_transactions}
        for tx, receipt in zip(chain.head.transactions, chain.head.receipts):
            if tx.tx_hash in closing and not receipt.success:
                kind = "membership request" if tx.contract == "registry" else "closing call"
                raise ProtocolError(
                    f"round {ctx.round_number} committed, but its {kind} "
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
        result = None if protocol._setup_done else protocol.setup()
        scenario.on_setup(protocol)  # a resumed run installs its scenario too
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
    ) -> None:
        self.protocol = protocol
        self.scenario = scenario or Scenario()
        if self.scenario.requires_authority_rotation and not protocol.config.authority_rotation:
            raise ProtocolError(
                "a run spec with silent leaders or partitions requires authority rotation: "
                "enable ProtocolConfig.authority_rotation or the run would silently "
                "degenerate to a plain run"
            )
        self.round_stages = tuple(round_stages) if round_stages is not None else DEFAULT_ROUND_STAGES
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
                cohort, config.n_groups, config.permutation_seed, round_number
            ),
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
            self.protocol.network.begin_round()
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
