"""Participant registry, protocol parameters, and cohort epochs.

The off-chain setup stage of the paper has the owners agree on FL parameters,
secure-aggregation parameters, and contribution-evaluation parameters (the
permutation seed ``e``, the number of groups ``m``, the utility function) and
submit them to the blockchain.  This contract pins those parameters on chain
and records every participant's Diffie–Hellman public key, after which the
training and contribution contracts treat the registry as read-only ground
truth.

Beyond the genesis cohort, the registry models **dynamic membership** as
cohort *epochs*: a `request_join` / `request_leave` transaction schedules a
membership change that takes effect at a future round boundary, and
``active_cohort(round)`` is a pure function of chain state — any miner
re-executing the chain derives the same per-round cohort, which is what the
training and contribution contracts group and settle against.

Membership state layout:

* ``participant/{owner}``   — public key, role, registration height
  (unchanged from the genesis path, so chains without membership events are
  byte-identical to the fixed-cohort protocol).
* ``membership/{owner}``    — a list of half-open round intervals
  ``[{"from": r0, "until": r1-or-None}, ...]``; written only by
  `request_join` / `request_leave`.  An owner with *no* membership record is
  a genesis member, active for every round.
* ``membership_index``      — sorted owner ids that have membership records;
  lets contracts and auditors detect dynamic-membership chains in O(1).
"""

from __future__ import annotations

from typing import Any

from repro.blockchain.contracts.base import Contract, ContractContext, contract_method
from repro.exceptions import ContractStateError
from repro.utils.serialization import canonical_dumps

CONTRACT_NAME = "registry"

_REQUIRED_PARAM_KEYS = (
    "n_owners",
    "n_groups",
    "n_rounds",
    "permutation_seed",
    "precision_bits",
    "field_bits",
)

# The training contract's namespace, read (never written) to reject membership
# changes scheduled at or before an already-finalized round.
_TRAINING_CONTRACT = "fl_training"


class ParticipantRegistryContract(Contract):
    """On-chain registry of participants, agreed parameters, and cohort epochs."""

    name = CONTRACT_NAME

    @contract_method
    def set_protocol_params(self, ctx: ContractContext, params: dict[str, Any]) -> dict[str, Any]:
        """Pin the agreed protocol parameters.

        The first successful call wins; later calls must carry byte-identical
        parameters (idempotent confirmation) or they fail — disagreement on
        setup parameters is a protocol error, not something to silently merge.
        """
        missing = [key for key in _REQUIRED_PARAM_KEYS if key not in params]
        if missing:
            raise ContractStateError(f"protocol params missing required keys: {missing}")
        existing = ctx.get("protocol_params")
        if existing is not None:
            if canonical_dumps(existing) != canonical_dumps(params):
                raise ContractStateError("protocol parameters are already pinned and differ")
            return {"status": "already-set"}
        ctx.set("protocol_params", params)
        ctx.emit("ProtocolParamsSet", by=ctx.sender, n_owners=params["n_owners"], n_groups=params["n_groups"])
        return {"status": "set"}

    @contract_method
    def register_participant(self, ctx: ContractContext, public_key: int, role: str = "owner") -> dict[str, Any]:
        """Register the sender with its Diffie–Hellman public key.

        Re-registration with the same key is idempotent; changing the key after
        registration is rejected (it would break already-derived pairwise masks).
        Only ``role == "owner"`` registrations consume one of the ``n_owners``
        genesis slots — auxiliary roles (auditors, observers) register freely.
        """
        record_key = f"participant/{ctx.sender}"
        existing = ctx.get(record_key)
        if existing is not None:
            if int(existing["public_key"]) != int(public_key):
                raise ContractStateError(f"participant {ctx.sender} already registered with a different key")
            return {"status": "already-registered"}
        params = ctx.get("protocol_params")
        if params is not None and role == "owner":
            if _genesis_owner_count(ctx.state) >= int(params["n_owners"]):
                raise ContractStateError("registry is full: all owner slots are taken")
        self._store_participant(ctx, public_key, role)
        return {"status": "registered"}

    def _store_participant(self, ctx: ContractContext, public_key: int, role: str) -> None:
        """Write the sender's participant record, index entry, and event."""
        if public_key <= 1:
            raise ContractStateError("public key must be a group element greater than 1")
        ctx.set(
            f"participant/{ctx.sender}",
            {"public_key": int(public_key), "role": role, "registered_at": ctx.block_height},
        )
        ctx.set("participant_index", sorted(ctx.get("participant_index", []) + [ctx.sender]))
        ctx.emit("ParticipantRegistered", owner=ctx.sender, role=role)

    # ------------------------------------------------------------------
    # Dynamic membership: cohort epochs
    # ------------------------------------------------------------------

    def _validate_effective_round(self, ctx: ContractContext, effective_round: int) -> int:
        """Common checks for a membership change scheduled at ``effective_round``."""
        params = ctx.get("protocol_params")
        if params is None:
            raise ContractStateError("protocol parameters must be pinned before membership changes")
        effective_round = int(effective_round)
        n_rounds = int(params["n_rounds"])
        if not 1 <= effective_round < n_rounds:
            raise ContractStateError(
                f"membership changes must take effect at a round boundary in [1, {n_rounds - 1}]; "
                f"got {effective_round} (the genesis cohort covers round 0)"
            )
        latest = ctx.read_external(_TRAINING_CONTRACT, "latest_round", default=-1)
        if effective_round <= int(latest):
            raise ContractStateError(
                f"round {effective_round} is already finalized (latest finalized round is {latest}); "
                "membership can only change at a future round boundary"
            )
        return effective_round

    def _record_membership(self, ctx: ContractContext, owner_id: str, intervals: list[dict[str, Any]]) -> None:
        ctx.set(f"membership/{owner_id}", intervals)
        index = ctx.get("membership_index", [])
        if owner_id not in index:
            ctx.set("membership_index", sorted(index + [owner_id]))

    @contract_method
    def request_join(
        self,
        ctx: ContractContext,
        public_key: int,
        effective_round: int,
        role: str = "owner",
    ) -> dict[str, Any]:
        """Schedule the sender to join the training cohort at a round boundary.

        A brand-new participant registers its Diffie–Hellman public key in the
        same transaction (so every peer can derive pairwise masks against it
        before its first active round); a previously departed owner re-joins
        with its original key.  The join takes effect at ``effective_round`` —
        necessarily in the future, enforced against the training contract's
        latest finalized round — so the cohort of any in-flight round is never
        mutated mid-round.

        Joins are not bounded by the genesis ``n_owners`` slot count: the whole
        point of dynamic membership is growing the cohort past the setup-time
        agreement, and the epoch record keeps the change auditable.
        """
        if role != "owner":
            raise ContractStateError("only owner-role participants can join the training cohort")
        effective_round = self._validate_effective_round(ctx, effective_round)
        record_key = f"participant/{ctx.sender}"
        existing = ctx.get(record_key)
        if existing is None:
            self._store_participant(ctx, public_key, role)
            self._record_membership(ctx, ctx.sender, [{"from": effective_round, "until": None}])
        else:
            if existing.get("role", "owner") != "owner":
                raise ContractStateError(
                    f"{ctx.sender} is registered with role {existing.get('role')!r} "
                    "and cannot join the training cohort"
                )
            if int(existing["public_key"]) != int(public_key):
                raise ContractStateError(f"participant {ctx.sender} already registered with a different key")
            intervals = ctx.get(f"membership/{ctx.sender}")
            if intervals is None or intervals[-1]["until"] is None:
                raise ContractStateError(f"{ctx.sender} is already an active cohort member")
            last = intervals[-1]
            if effective_round < int(last["until"]):
                raise ContractStateError(
                    f"{ctx.sender} cannot re-join at round {effective_round}: "
                    f"its membership only ends at round {last['until']}"
                )
            if effective_round == int(last["until"]):
                # Re-joining exactly at the scheduled leave boundary cancels
                # the leave: coalesce instead of recording two contiguous
                # intervals, which would split one cohort into two
                # identical-cohort epochs and skew per-epoch settlement.
                merged = intervals[:-1] + [{"from": last["from"], "until": None}]
            else:
                merged = intervals + [{"from": effective_round, "until": None}]
            self._record_membership(ctx, ctx.sender, merged)
        ctx.emit("JoinRequested", owner=ctx.sender, effective_round=effective_round)
        return {"status": "join-scheduled", "effective_round": effective_round}

    @contract_method
    def request_leave(self, ctx: ContractContext, effective_round: int) -> dict[str, Any]:
        """Schedule the sender to leave the training cohort at a round boundary.

        The owner stays a miner (it keeps verifying blocks) but is excluded
        from grouping, submission, and settlement from ``effective_round`` on.
        The request is rejected if it would shrink the cohort below the pinned
        group count ``m`` — grouping every remaining round must stay feasible.
        """
        effective_round = self._validate_effective_round(ctx, effective_round)
        params = ctx.get("protocol_params")
        record = ctx.get(f"participant/{ctx.sender}")
        if record is None or record.get("role", "owner") != "owner":
            raise ContractStateError(f"{ctx.sender} is not a registered owner")
        intervals = ctx.get(f"membership/{ctx.sender}")
        if intervals is None:
            # Genesis member: materialize its implicit full-run interval.
            intervals = [{"from": 0, "until": None}]
        last = intervals[-1]
        if last["until"] is not None:
            raise ContractStateError(f"{ctx.sender} has already left (or scheduled its leave)")
        if effective_round <= int(last["from"]):
            raise ContractStateError(
                f"{ctx.sender} cannot leave at round {effective_round}: "
                f"it only becomes active at round {last['from']}"
            )
        # The sender's open interval covers every remaining round, so its exit
        # shrinks every cohort from effective_round on — all of them must stay
        # groupable, otherwise an earlier-boundary leave scheduled *after* a
        # later-boundary one could strand a future round below m owners.  The
        # cohort only changes at epoch boundaries, so one check per remaining
        # epoch covers every round.
        for epoch in epochs_from_state(ctx.state, int(params["n_rounds"])):
            if int(epoch["end"]) <= effective_round:
                continue
            remaining = [owner for owner in epoch["cohort"] if owner != ctx.sender]
            if len(remaining) < int(params["n_groups"]):
                boundary = max(int(epoch["start"]), effective_round)
                raise ContractStateError(
                    f"leave rejected: round {boundary} would keep only {len(remaining)} "
                    f"owners for {params['n_groups']} groups"
                )
        closed = intervals[:-1] + [{"from": last["from"], "until": effective_round}]
        self._record_membership(ctx, ctx.sender, closed)
        ctx.emit("LeaveRequested", owner=ctx.sender, effective_round=effective_round)
        return {"status": "leave-scheduled", "effective_round": effective_round}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @contract_method
    def get_participants(self, ctx: ContractContext) -> dict[str, dict[str, Any]]:
        """All registered participants and their public keys, keyed by owner id."""
        participants = {}
        for owner_id in ctx.get("participant_index", []):
            participants[owner_id] = ctx.get(f"participant/{owner_id}")
        return participants

    @contract_method
    def get_active_cohort(self, ctx: ContractContext, round_number: int) -> list[str]:
        """The sorted owner cohort active for ``round_number`` (pure chain state)."""
        return cohort_for_round_from_state(ctx.state, int(round_number))

    @contract_method
    def get_epochs(self, ctx: ContractContext) -> list[dict[str, Any]]:
        """The cohort epochs of the run: maximal round ranges with a fixed cohort."""
        return epochs_from_state(ctx.state, int(read_protocol_params(ctx)["n_rounds"]))

    @contract_method
    def is_setup_complete(self, ctx: ContractContext) -> bool:
        """True once parameters are pinned and every genesis owner slot has registered."""
        params = ctx.get("protocol_params")
        if params is None:
            return False
        return _genesis_owner_count(ctx.state) >= int(params["n_owners"])


# ----------------------------------------------------------------------
# Pure cohort/epoch derivation (shared by contracts, auditors, and the runtime)
# ----------------------------------------------------------------------

def _read(state, key: str, default: Any = None) -> Any:
    return state.get(CONTRACT_NAME, key, default)


def _owner_intervals(state):
    """``(owner id, membership intervals)`` of every registered owner-role participant.

    The intervals are ``None`` for an owner with no membership record — a
    genesis member, active for every round.
    """
    for owner_id in _read(state, "participant_index", []) or []:
        record = _read(state, f"participant/{owner_id}")
        if record is not None and record.get("role", "owner") == "owner":
            yield owner_id, _read(state, f"membership/{owner_id}")


def _genesis_owner_count(state) -> int:
    """How many of the ``n_owners`` genesis slots are taken.

    A genesis owner registered through ``register_participant`` and has no
    membership record (or one opening at round 0, for a genesis member that
    later left).  Owners brought in by ``request_join`` open their first
    interval at a later round and deliberately do not consume a slot — dynamic
    joins grow the cohort past the setup-time agreement.
    """
    return sum(
        intervals is None or int(intervals[0]["from"]) == 0
        for _, intervals in _owner_intervals(state)
    )


def cohort_for_round_from_state(state, round_number: int) -> list[str]:
    """Derive the active owner cohort for a round from registry state.

    ``state`` is a :class:`~repro.blockchain.state.WorldState` (a contract's
    ``ctx.state``, a replica's head).  An owner is active iff it is
    a genesis member or some recorded interval covers the round.  A live
    store derives it once per block (:meth:`~repro.blockchain.state.WorldState.derive`);
    every caller gets a fresh list.
    """
    round_number = int(round_number)

    def active() -> tuple[str, ...]:
        return tuple(sorted(
            owner_id
            for owner_id, intervals in _owner_intervals(state)
            if intervals is None
            or any(
                int(iv["from"]) <= round_number and (iv["until"] is None or round_number < int(iv["until"]))
                for iv in intervals
            )
        ))

    return list(state.derive(CONTRACT_NAME, ("cohort", round_number), active))


def _membership_edges(state) -> list[int]:
    """Every recorded membership boundary (an interval's ``from`` or ``until``)."""
    return [
        int(edge)
        for owner_id in _read(state, "membership_index", []) or []
        for interval in _read(state, f"membership/{owner_id}") or []
        for edge in (interval["from"], interval["until"])
        if edge is not None
    ]


def epochs_from_state(state, n_rounds: int) -> list[dict[str, Any]]:
    """Derive the run's cohort epochs: ``[{epoch, start, end, cohort}, ...]``.

    Epoch boundaries are the distinct effective rounds of every membership
    interval (clipped to the round schedule); epoch ``i`` covers rounds
    ``[start, end)`` with one fixed cohort.
    """
    n_rounds = int(n_rounds)
    starts = sorted({0} | {edge for edge in _membership_edges(state) if 0 < edge < n_rounds})
    epochs = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else n_rounds
        epochs.append(
            {"epoch": i, "start": start, "end": end,
             "cohort": cohort_for_round_from_state(state, start)}
        )
    return epochs


def epoch_start_for_round_from_state(state, round_number: int) -> int:
    """The first round of the cohort epoch containing ``round_number``.

    The epoch start is the largest membership boundary (an interval's ``from``
    or ``until``) at or below the round; with no membership events it is round
    0.  Boundaries strictly above the round cannot move it, so the value is
    stable under later membership transactions — every one of them targets a
    strictly future round, which is what makes the consensus authority
    schedule recomputable from any replica's state.
    """
    return max(
        (edge for edge in _membership_edges(state) if edge <= int(round_number)), default=0
    )


def pinned_params(state) -> dict[str, Any] | None:
    """The registry's pinned protocol parameters (``None`` before setup)."""
    return _read(state, "protocol_params")


def read_protocol_params(ctx: ContractContext) -> dict[str, Any]:
    """Helper for other contracts: read the registry's pinned parameters or fail."""
    params = pinned_params(ctx.state)
    if params is None:
        raise ContractStateError("protocol parameters have not been pinned on the registry")
    return params


def read_active_cohort(ctx: ContractContext, round_number: int) -> list[str]:
    """Helper for other contracts: the owner cohort active for a round."""
    cohort = cohort_for_round_from_state(ctx.state, round_number)
    if not cohort:
        raise ContractStateError(f"no owners are active for round {round_number}")
    return cohort


def pinned_shard_size(params: dict[str, Any]) -> int | None:
    """The pinned committee size of a parameter record (``None`` = flat topology).

    Chains that never opted into sharding carry no topology keys at all (so
    their parameter records — and block hashes — are byte-identical to
    pre-sharding chains); absence means the flat topology.
    """
    if str(params.get("aggregation_topology", "flat")) == "flat":
        return None
    return int(params["shard_size"])


def pinned_sv_estimator(params: dict[str, Any]) -> tuple[str, int]:
    """The pinned ``(sv_estimator, sv_samples)`` of a parameter record.

    Absent keys mean the exact assembly (the historical behaviour); the sample
    count only matters under the sampled estimator.
    """
    estimator = str(params.get("sv_estimator", "exact"))
    if estimator == "exact":
        return "exact", 0
    return estimator, int(params["sv_samples"])


def has_membership_events(state) -> bool:
    """Whether any join/leave has been recorded (False on fixed-cohort chains)."""
    return bool(_read(state, "membership_index", []))
