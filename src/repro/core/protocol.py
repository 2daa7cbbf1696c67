"""The end-to-end protocol: blockchain-based secure FL with on-chain GroupSV.

:class:`BlockchainFLProtocol` wires every substrate together and follows the
procedure of Section IV.B:

1. **Setup** — the owners pin the agreed parameters (FL hyper-parameters,
   secure-aggregation codec, permutation seed ``e``, group count ``m``) on the
   registry contract and register their Diffie–Hellman public keys.
2. **Training rounds** — at each round ``r`` every owner trains locally from
   the current global model, masks its local model against its GroupSV group
   cohort, and submits the masked update.  The round's leader proposes a block
   containing all submissions plus the ``finalize_round`` (secure aggregation)
   and ``evaluate_round`` (Algorithm 1) calls; all miners re-execute and vote.
3. **Completion** — per-round contributions accumulate on chain
   (``v_i = Σ_r v_i^r``) and the reward contract converts them into payouts.

The round orchestration itself lives in :mod:`repro.core.pipeline`: a
:class:`~repro.core.pipeline.RoundScheduler` drives the staged pipeline
(Setup → LocalTraining → Masking/Submission → SecureAggregation → Evaluation
→ BlockProposal → Settlement) over a :class:`~repro.core.pipeline.RoundContext`
per round, with :class:`~repro.core.pipeline.Scenario` hooks for dropout,
stragglers, adversary injection, and late joins.  This class holds the wiring
(participants, network, contracts, nonces) and delegates every run to the
scheduler, so the CLI, examples, and benchmarks all share one scenario API.

The result object exposes everything the experiments need: per-round
contributions, totals, the global model, chain statistics, and the chain itself
for transparency audits.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.blockchain.consensus import (
    ConsensusEngine,
    EpochAuthoritySchedule,
    VerificationResult,
)
from repro.blockchain.contracts.base import ContractRuntime
from repro.blockchain.contracts.contribution import ContributionContract
from repro.blockchain.contracts.fl_training import FLTrainingContract
from repro.blockchain.contracts.registry import (
    ParticipantRegistryContract,
    cohort_for_round_from_state,
    pinned_params,
)
from repro.blockchain.contracts.reward import RewardContract
from repro.blockchain.network import Network
from repro.blockchain.node import TOPIC_TRANSACTIONS
from repro.blockchain.storage import StorageBackend, open_backend
from repro.blockchain.transaction import Transaction
from repro.blockchain.transport import DELIVERED
from repro.core.adversary import AdversaryBehavior
from repro.core.config import ProtocolConfig
from repro.core.participant import Participant
from repro.core.pipeline import (  # noqa: F401 - re-exported for compatibility
    ProtocolResult,
    RoundScheduler,
    Scenario,
)
from repro.crypto.dh import DHParameters
from repro.crypto.fixed_point import FixedPointCodec
from repro.datasets.loader import OwnerDataset
from repro.exceptions import ConsensusError, ProtocolError, SetupError
from repro.fl.logistic_regression import LogisticRegressionModel


def protocol_runtime_factory(validation_features, validation_labels, n_classes: int):
    """A factory of the protocol's contract runtime (registry, training,
    contribution, reward) — what every miner and any outside auditor deploys."""

    def factory() -> ContractRuntime:
        runtime = ContractRuntime()
        runtime.register(ParticipantRegistryContract())
        runtime.register(FLTrainingContract())
        runtime.register(ContributionContract(validation_features, validation_labels, n_classes))
        runtime.register(RewardContract())
        return runtime

    return factory


class BlockchainFLProtocol:
    """Orchestrates the blockchain-based secure FL + contribution evaluation run.

    The object is the wiring layer: it owns the participants (each a local
    trainer *and* a miner replica), the simulated network, the contract
    runtime factory, the consensus engine, and the off-chain nonce counters.
    Execution is delegated to :class:`~repro.core.pipeline.RoundScheduler` —
    ``run()`` is a thin wrapper — so the CLI, the examples,
    and the benchmarks all drive the same staged pipeline with the same
    :class:`~repro.core.pipeline.Scenario` hook surface.

    Args:
        owner_data: one :class:`~repro.datasets.loader.OwnerDataset` per
            genesis data owner (more can join mid-run via
            :meth:`add_participant` + a ``request_join`` transaction).
        validation_features / validation_labels: the public validation set the
            utility function scores against (known to every miner and auditor).
        n_classes: label count of the classification task.
        config: the :class:`~repro.core.config.ProtocolConfig` pinned on chain
            at setup; defaults to the paper's small configuration.
        adversaries: optional owner-id → behavior map applying model tampering
            on every round (for windowed attacks use
            :class:`~repro.core.pipeline.AdversaryInjectionScenario` instead).
        store: optional persistence backend for the reference replica — a
            :class:`~repro.blockchain.storage.StorageBackend` or a spec string
            (``"memory"``, ``"sqlite:PATH"``).  Strictly off-chain: chains are
            byte-identical with or without it.  A persistent store that
            already holds a committed chain is refused here — reopening one
            is :meth:`resume_from`'s job.
        allow_restore: internal flag set by :meth:`resume_from`; lets
            ``store`` restore an existing chain into the reference replica
            instead of being refused.

    Key read surfaces after a run: ``participants[owner].node.chain`` (any
    replica, e.g. for :func:`~repro.core.audit.audit_chain`),
    :meth:`active_cohort`, and :meth:`round_proposers` (rotation runs).
    """

    def __init__(
        self,
        owner_data: Sequence[OwnerDataset],
        validation_features: np.ndarray,
        validation_labels: np.ndarray,
        n_classes: int,
        config: ProtocolConfig | None = None,
        adversaries: dict[str, AdversaryBehavior] | None = None,
        store: StorageBackend | str | None = None,
        allow_restore: bool = False,
    ) -> None:
        self.config = config or ProtocolConfig(n_owners=len(owner_data))
        if len(owner_data) != self.config.n_owners:
            raise ProtocolError(
                f"config expects {self.config.n_owners} owners but {len(owner_data)} datasets were given"
            )
        self.validation_features = np.asarray(validation_features, dtype=np.float64)
        self.validation_labels = np.asarray(validation_labels).ravel().astype(int)
        self.n_classes = int(n_classes)
        self.n_features = int(self.validation_features.shape[1])

        template = LogisticRegressionModel(self.n_features, self.n_classes, l2=self.config.l2)
        self._template_parameters = template.parameters
        self.model_dimension = self._template_parameters.dimension

        self.network = Network()
        self._runtime_factory = protocol_runtime_factory(
            self.validation_features, self.validation_labels, self.n_classes
        )
        schedule = None
        if self.config.authority_rotation:
            schedule = EpochAuthoritySchedule(lambda: self._reference_chain().state)
        self.consensus = ConsensusEngine(schedule)
        self._dh_params = DHParameters.for_testing(bits=self.config.dh_bits, seed=self.config.permutation_seed)
        self._codec = FixedPointCodec(
            precision_bits=self.config.precision_bits,
            field_bits=self.config.field_bits,
            max_summands=max(256, self.config.n_owners * 2),
        )
        self._adversaries = dict(adversaries or {})
        self.participants: dict[str, Participant] = {}
        for data in owner_data:
            self.participants[data.owner_id] = self._build_participant(data)
        self.owner_ids = sorted(self.participants)
        self._nonces = {owner: 0 for owner in self.owner_ids}
        self._setup_done = False
        self.storage: StorageBackend | None = None
        self._restored = False
        if store is not None:
            backend = open_backend(store)
            self.storage = backend
            self._restored = self._reference_chain().attach_storage(backend)
            if self._restored and not allow_restore:
                raise ProtocolError(
                    "the store already holds a committed chain; use "
                    "BlockchainFLProtocol.resume_from to reopen it (or point "
                    "--store at a fresh path)"
                )

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------

    def _build_participant(self, data: OwnerDataset) -> Participant:
        """One participant wired against the shared network/codec/DH group."""
        return Participant(
            data=data,
            n_classes=self.n_classes,
            network=self.network,
            runtime_factory=self._runtime_factory,
            dh_params=self._dh_params,
            codec=self._codec,
            local_epochs=self.config.local_epochs,
            learning_rate=self.config.learning_rate,
            l2=self.config.l2,
            batch_size=self.config.batch_size,
            key_seed=self.config.permutation_seed,
            byzantine=data.owner_id in self.config.byzantine_miners,
            adversary=self._adversaries.get(data.owner_id),
        )

    def _next_nonce(self, owner_id: str) -> int:
        nonce = self._nonces[owner_id]
        self._nonces[owner_id] = nonce + 1
        return nonce

    def _submit(self, tx: Transaction) -> None:
        """Submit a transaction through its sender's own node (gossips to all)."""
        self.participants[tx.sender].node.submit_transaction(tx)

    def _redeliver_transactions(
        self, leader_id: str, txs: Sequence[Transaction]
    ) -> list[Transaction]:
        """Point-to-point redelivery of required txs a leader's mempool is missing.

        Gossip under a faulty transport may have dropped a transaction on the
        link to the would-be leader; before giving up on the leader the sender
        retries it directly (bounded by the sender's retry budget).  Returns
        the transactions that still could not be delivered.
        """
        leader_node = self.participants[leader_id].node
        missing = [tx for tx in txs if tx.tx_hash not in leader_node.mempool]
        still_missing = []
        for tx in missing:
            sender_node = self.participants[tx.sender].node
            delivered = False
            for _ in range(sender_node.MAX_RETRIES + 1):
                self.network.stats.record_retries(TOPIC_TRANSACTIONS, 1)
                delivery = self.network.send(
                    tx.sender, leader_id, TOPIC_TRANSACTIONS, tx
                )
                if delivery.status == DELIVERED:
                    delivered = True
                    break
            if not delivered:
                still_missing.append(tx)
        return still_missing

    def round_proposers(self, round_number: int) -> list[str]:
        """The FL round's eligible proposers in view order (pure chain state).

        Only meaningful with ``authority_rotation`` on; the list is the
        round's active cohort rotated to start at the view-0 proposer, so
        index ``v`` is the leader the protocol falls back to after ``v`` view
        changes.
        """
        if self.consensus.schedule is None:
            raise ProtocolError("authority rotation is not enabled for this protocol")
        return self.consensus.schedule.proposers_for_round(round_number)

    def _block_candidates(self, round_number: int | None) -> Iterator[tuple[int | None, str]]:
        """``(view, leader)`` pairs a block commit falls through, in order.

        A training round on an authority-rotation chain walks the epoch
        schedule's views.  Every other block walks the engine's round-robin —
        one slot on the deterministic transport, up to one full rotation
        under delivery faults — drawing each slot only when the walk reaches
        it, so an attempt consumes exactly one ``round_index``.
        """
        if round_number is not None and self.consensus.schedule is not None:
            yield from enumerate(self.round_proposers(round_number))
        else:
            for _ in range(len(self.owner_ids) if self.network.faulty else 1):
                yield None, self.consensus.select_leader(self.owner_ids)

    def _commit_block(
        self,
        required: Sequence[Transaction] = (),
        round_number: int | None = None,
        offline: Callable[[str], bool] = lambda leader_id: False,
    ) -> tuple[VerificationResult, int | None, list[dict]]:
        """Commit the pending transactions as one block, failing over across leaders.

        Walks :meth:`_block_candidates`.  A candidate is skipped when it is
        ``offline`` (the scenario's stand-in for a proposal timeout — no
        network traffic), when under a faulty transport its mempool is still
        missing a ``required`` transaction after point-to-point redelivery
        (an incomplete leader block would seal failed secure-aggregation
        receipts), or when the miner vote rejects its proposal.  Returns the
        verification result, the winning view (``None`` off the epoch
        schedule) and the failover log — one ``{"view", "leader", "reason"}``
        entry per skipped candidate.  When every candidate is exhausted the
        ``required`` transactions are withdrawn from every mempool, so the
        abort leaves nothing behind, and :class:`ConsensusError` is raised.
        """
        failovers: list[dict] = []
        for view, leader_id in self._block_candidates(round_number):
            if offline(leader_id):
                reason = "silent"
            elif self.network.faulty and (
                missing := self._redeliver_transactions(leader_id, required)
            ):
                reason = f"missing {len(missing)} required transaction(s)"
            else:
                try:
                    result = self.participants[leader_id].node.run_consensus_round(
                        self.consensus, view=view
                    )
                except ConsensusError as exc:
                    reason = str(exc)
                else:
                    if view is not None:
                        # Keep the engine's block counter in step with the chain so
                        # the setup/settlement round-robin is unaffected by rotation.
                        self.consensus.round_index += 1
                    return result, view, failovers
            failovers.append({"view": view, "leader": leader_id, "reason": reason})
        hashes = [tx.tx_hash for tx in required]
        for participant in self.participants.values():
            participant.node.mempool.remove(hashes)
        detail = "; ".join("{leader}: {reason}".format(**entry) for entry in failovers)
        raise ConsensusError(f"every scheduled proposer failed ({detail})")

    def _reference_chain(self):
        """Any honest replica (the first owner's chain) used for reads."""
        return self.participants[self.owner_ids[0]].node.chain

    def resync_lagging_replicas(self) -> list[str]:
        """Catch up every replica that fell behind the reference head.

        Used after a partition heals: stranded nodes ask a peer for the blocks
        they are missing and re-execute each one
        (:meth:`~repro.blockchain.node.MinerNode.try_resync`).  Returns the
        owners that resynced.
        """
        reference = self._reference_chain()
        resynced = []
        for owner_id in self.owner_ids:
            node = self.participants[owner_id].node
            if node.chain.height < reference.height and node.try_resync():
                resynced.append(owner_id)
        return resynced

    # ------------------------------------------------------------------
    # Phase 1: setup
    # ------------------------------------------------------------------

    def setup(self) -> VerificationResult:
        """Pin protocol parameters and register every participant on chain."""
        if self._setup_done:
            raise SetupError("setup has already been executed")
        initiator = self.owner_ids[0]
        params_tx = Transaction(
            sender=initiator,
            contract="registry",
            method="set_protocol_params",
            args={"params": self.config.on_chain_params(self.model_dimension)},
            nonce=self._next_nonce(initiator),
        )
        self._submit(params_tx)
        for owner_id in self.owner_ids:
            participant = self.participants[owner_id]
            self._submit(participant.registration_transaction(self._next_nonce(owner_id)))
        result, _, _ = self._commit_block()

        chain = self._reference_chain()
        registered = set(chain.state.get("registry", "participant_index", []))
        missing = sorted(set(self.owner_ids) - registered)
        if missing:
            raise SetupError(f"registration did not complete for: {missing}")
        self.sync_peer_keys()
        self._setup_done = True
        return result

    # ------------------------------------------------------------------
    # Dynamic membership (cohort epochs)
    # ------------------------------------------------------------------

    def add_participant(self, data: OwnerDataset) -> Participant:
        """Bring a new data owner online mid-run (idempotent by owner id).

        The participant gets a miner node fast-synced from the reference
        replica — it adopts the blocks and state and checks every committed
        header's state commitment against the retained versions
        (:meth:`~repro.blockchain.chain.Blockchain.fast_sync_from`, pinned to
        end in the same state as a full replay) — and joins the consensus set.
        It only enters the *training cohort* once its ``request_join``
        transaction commits on the registry and the requested round boundary
        is reached.
        """
        if data.owner_id in self.participants:
            # An aborted round's nonce rewind may have dropped a mid-round
            # joiner's counter (its join never committed, so 0 is correct);
            # restore it so the idempotent path supports a clean retry.
            self._nonces.setdefault(data.owner_id, 0)
            return self.participants[data.owner_id]
        participant = self._build_participant(data)
        participant.node.chain.fast_sync_from(self._reference_chain())
        self.participants[data.owner_id] = participant
        self.owner_ids = sorted(self.participants)
        self._nonces.setdefault(data.owner_id, 0)
        self.sync_peer_keys()
        return participant

    def active_cohort(self, round_number: int) -> list[str]:
        """The owner cohort active for a round, derived purely from chain state.

        Membership records are append-only interval lists whose boundaries
        all lie at or below their commit round, so the live head answers for
        any already-committed round too.
        """
        cohort = cohort_for_round_from_state(self._reference_chain().state, round_number)
        if not cohort:
            raise ProtocolError(f"no owners are active for round {round_number}")
        return cohort

    def sync_peer_keys(self) -> None:
        """Refresh every participant's peer-key table from the registry state.

        Idempotent; called when the cohort may have changed so pairwise masks
        can be derived against freshly joined owners' published keys.
        """
        chain = self._reference_chain()
        registered = {}
        for owner_id in chain.state.get("registry", "participant_index", []):
            record = chain.state.get("registry", f"participant/{owner_id}")
            if record is not None:
                registered[owner_id] = int(record["public_key"])
        for participant in self.participants.values():
            participant.learn_peer_keys(registered)

    # ------------------------------------------------------------------
    # Phase 2 + 3: rounds and the full run (via the stage pipeline)
    # ------------------------------------------------------------------

    def run(self, scenario: Scenario | None = None) -> ProtocolResult:
        """Run setup, every training round, and the final reward distribution.

        The scheduler starts from chain state, so on a protocol restored by
        :meth:`resume_from` this continues after the last committed round (and
        only re-reads the result if the chain has already settled); on a
        deterministic transport the continued chain is byte-identical to one
        produced by an uninterrupted run.

        Args:
            scenario: optional :class:`~repro.core.pipeline.Scenario` steering
                the run (dropout, stragglers, adversary injection, late joins).
        """
        return RoundScheduler(self, scenario).run()

    # ------------------------------------------------------------------
    # Persistence lifecycle: close / resume
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the persistence backend (if any); idempotent.

        Every committed block is already durable (the backend commits
        per-block transactions), so closing mid-run models a clean shutdown:
        :meth:`resume_from` reopens to exactly the last sealed block.
        """
        if self.storage is not None:
            self.storage.close()

    def completed_rounds(self) -> list[int]:
        """Round numbers whose training block committed on chain, sorted."""
        state = self._reference_chain().state
        return sorted(
            int(key.split("/", 1)[1])
            for key in state.keys("fl_training")
            if key.startswith("round/")
        )

    @classmethod
    def resume_from(
        cls,
        store: StorageBackend | str,
        owner_data: Sequence[OwnerDataset],
        validation_features: np.ndarray,
        validation_labels: np.ndarray,
        n_classes: int,
        config: ProtocolConfig | None = None,
        extra_data: Sequence[OwnerDataset] = (),
        **kwargs,
    ) -> "BlockchainFLProtocol":
        """Reopen a persisted chain and rebuild a live protocol around it.

        The caller supplies the same off-chain inputs the original run had —
        the genesis owners' datasets, the validation set, and the config (all
        deterministic from the run's seed) — plus ``extra_data``: datasets
        for owners that joined mid-run, so their participants can be rebuilt
        too.  The reference replica restores from the store (blocks, state
        with retained deltas, nonces — verified against the stored headers),
        every other replica fast-syncs from it, and the consensus rotation,
        nonce counters, and peer keys are realigned so the continued run is
        byte-identical to one that never stopped.
        """
        protocol = cls(
            owner_data,
            validation_features,
            validation_labels,
            n_classes,
            config,
            store=store,
            allow_restore=True,
            **kwargs,
        )
        if not protocol._restored:
            raise ProtocolError("the store holds no committed chain to resume from")
        protocol._adopt_restored_chain(extra_data)
        return protocol

    def _adopt_restored_chain(self, extra_data: Sequence[OwnerDataset]) -> None:
        """Realign the live wiring with the reference replica's restored chain."""
        reference = self._reference_chain()
        pinned = pinned_params(reference.state)
        if pinned is None:
            raise ProtocolError(
                "the restored chain has no pinned protocol parameters; "
                "it stopped before setup completed"
            )
        expected = self.config.on_chain_params(self.model_dimension)
        if pinned != expected:
            drift = sorted(
                key
                for key in set(pinned) | set(expected)
                if pinned.get(key) != expected.get(key)
            )
            raise ProtocolError(
                f"resume config disagrees with the chain's pinned parameters on: {drift}"
            )
        # Rebuild participants for owners that joined after genesis — their
        # datasets must come through extra_data (DH keys regenerate
        # deterministically from the pinned key seed).
        datasets = {data.owner_id: data for data in extra_data}
        for owner_id in reference.state.get("registry", "participant_index", []):
            if owner_id in self.participants:
                continue
            if owner_id not in datasets:
                raise ProtocolError(
                    f"owner {owner_id!r} is registered on the restored chain; "
                    "pass its dataset via extra_data to resume"
                )
            participant = self._build_participant(datasets[owner_id])
            participant.node.chain.fast_sync_from(reference)
            self.participants[owner_id] = participant
        self.owner_ids = sorted(self.participants)
        # Every genesis replica except the reference is still at genesis.
        for owner_id in self.owner_ids:
            node_chain = self.participants[owner_id].node.chain
            if node_chain is not reference and node_chain.height == 0:
                node_chain.fast_sync_from(reference)
        # Off-chain counters: the committed chain is the source of truth.
        self._nonces = {
            owner: reference._nonces.get(owner, 0) for owner in self.owner_ids
        }
        # One leader selection per committed non-genesis block keeps the
        # round-robin byte-identical to an uninterrupted run.
        self.consensus.round_index = reference.height
        self.sync_peer_keys()
        self._setup_done = True
