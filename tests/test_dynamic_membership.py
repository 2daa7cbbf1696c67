"""Tests for contract-level dynamic membership (cohort epochs).

Three layers are covered:

* contract level — `request_join` / `request_leave` semantics, round-boundary
  enforcement, the `active_cohort` / `get_epochs` views, and the training
  contract rejecting submissions from inactive owners;
* runtime level — a run spec's `Join` / `Leave` entries emitting real
  registry transactions through the pipeline, with per-epoch reward
  settlement and the transparency audit verifying epoch by epoch;
* parity — a run without membership transactions stays byte-identical to the
  fixed-cohort protocol (the settlement path and state layout are unchanged).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.chain import Blockchain
from repro.blockchain.contracts import fl_training
from repro.blockchain.contracts.base import ContractContext, ContractRuntime, contract_method
from repro.blockchain.contracts.contribution import ContributionContract
from repro.blockchain.contracts.fl_training import FLTrainingContract, _dealt_round, pinned_round_assignment
from repro.blockchain.contracts.registry import ParticipantRegistryContract, cohort_for_round_from_state
from repro.blockchain.contracts.reward import RewardContract
from repro.blockchain.state import WorldState
from repro.blockchain.storage import SQLiteBackend
from repro.blockchain.transaction import Transaction
from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import (
    Join,
    Leave,
    Partition,
    RoundScheduler,
    RunSpec,
    Scenario,
    SilentLeaders,
    Withhold,
)
from repro.core.protocol import BlockchainFLProtocol
from repro.crypto.dh import DHKeyPair, DHParameters
from repro.datasets.loader import make_owner_datasets
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ContractError, ProtocolError
from repro.fl.logistic_regression import LogisticRegressionModel
from repro.utils.hashing import hash_payload

N_CLASSES = 3
N_FEATURES = 6
OWNERS = [f"owner-{i}" for i in range(4)]


# ----------------------------------------------------------------------
# Contract-level harness (no consensus machinery, direct runtime calls)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def validation_set():
    return make_blobs(n_samples=120, n_features=N_FEATURES, n_classes=N_CLASSES, seed=5)


@pytest.fixture(scope="module")
def dh_setup():
    params = DHParameters.for_testing(bits=64, seed="membership-tests")
    keypairs = {owner: DHKeyPair.generate(params, owner) for owner in OWNERS + ["owner-9"]}
    return keypairs, {owner: kp.public_key for owner, kp in keypairs.items()}


def build_runtime(validation_set) -> ContractRuntime:
    features, labels = validation_set
    runtime = ContractRuntime()
    runtime.register(ParticipantRegistryContract())
    runtime.register(FLTrainingContract())
    runtime.register(ContributionContract(features, labels, N_CLASSES))
    runtime.register(RewardContract())
    return runtime


def call(runtime, state, sender, contract, method, **args):
    return runtime.execute(state, sender, contract, method, args)[0]


def model_dimension() -> int:
    return LogisticRegressionModel(N_FEATURES, N_CLASSES).parameters.dimension


def pinned_params(n_owners=len(OWNERS), n_groups=2, n_rounds=6):
    return {
        "n_owners": n_owners,
        "n_groups": n_groups,
        "n_rounds": n_rounds,
        "permutation_seed": 13,
        "precision_bits": 24,
        "field_bits": 64,
        "max_summands": 64,
        "model_dimension": model_dimension(),
    }


def setup_registry(runtime, state, public_keys, **param_overrides):
    call(runtime, state, OWNERS[0], "registry", "set_protocol_params",
         params=pinned_params(**param_overrides))
    for owner in OWNERS:
        call(runtime, state, owner, "registry", "register_participant",
             public_key=public_keys[owner])


class TestRegistrySlotCap:
    def test_non_owner_roles_do_not_consume_owner_slots(self, validation_set, dh_setup):
        """Regression: an auditor/observer registration used to eat an owner slot."""
        runtime, state = build_runtime(validation_set), WorldState()
        _, public_keys = dh_setup
        call(runtime, state, OWNERS[0], "registry", "set_protocol_params",
             params=pinned_params(n_owners=2))
        call(runtime, state, "auditor-1", "registry", "register_participant",
             public_key=997, role="auditor")
        call(runtime, state, OWNERS[0], "registry", "register_participant",
             public_key=public_keys[OWNERS[0]])
        # The second owner slot must still be free despite the auditor.
        call(runtime, state, OWNERS[1], "registry", "register_participant",
             public_key=public_keys[OWNERS[1]])
        with pytest.raises(ContractError, match="owner slots"):
            call(runtime, state, OWNERS[2], "registry", "register_participant",
                 public_key=public_keys[OWNERS[2]])
        # More non-owner roles stay welcome after the owner slots filled up.
        call(runtime, state, "auditor-2", "registry", "register_participant",
             public_key=991, role="auditor")
        assert call(runtime, state, OWNERS[0], "registry", "is_setup_complete")

    def test_setup_incomplete_until_owner_slots_fill(self, validation_set, dh_setup):
        runtime, state = build_runtime(validation_set), WorldState()
        _, public_keys = dh_setup
        call(runtime, state, OWNERS[0], "registry", "set_protocol_params",
             params=pinned_params(n_owners=2))
        call(runtime, state, "auditor-1", "registry", "register_participant",
             public_key=997, role="auditor")
        call(runtime, state, OWNERS[0], "registry", "register_participant",
             public_key=public_keys[OWNERS[0]])
        # One auditor + one owner: two index entries, but only one owner slot used.
        assert not call(runtime, state, OWNERS[0], "registry", "is_setup_complete")


class TestMembershipTransitions:
    def test_join_and_leave_take_effect_at_round_boundaries(self, validation_set, dh_setup):
        runtime, state = build_runtime(validation_set), WorldState()
        _, public_keys = dh_setup
        setup_registry(runtime, state, public_keys)

        call(runtime, state, "owner-9", "registry", "request_join",
             public_key=public_keys["owner-9"], effective_round=2)
        call(runtime, state, OWNERS[1], "registry", "request_leave", effective_round=4)

        def cohort(round_number):
            return call(runtime, state, OWNERS[0], "registry", "get_active_cohort",
                        round_number=round_number)

        assert cohort(0) == sorted(OWNERS)
        assert cohort(1) == sorted(OWNERS)
        assert cohort(2) == sorted(OWNERS + ["owner-9"])
        assert cohort(3) == sorted(OWNERS + ["owner-9"])
        assert cohort(4) == sorted(set(OWNERS + ["owner-9"]) - {OWNERS[1]})

        epochs = call(runtime, state, OWNERS[0], "registry", "get_epochs")
        assert [(e["start"], e["end"]) for e in epochs] == [(0, 2), (2, 4), (4, 6)]
        assert epochs[0]["cohort"] == sorted(OWNERS)
        assert "owner-9" in epochs[1]["cohort"]
        assert OWNERS[1] not in epochs[2]["cohort"]

    def test_membership_changes_must_target_future_rounds(self, validation_set, dh_setup):
        runtime, state = build_runtime(validation_set), WorldState()
        _, public_keys = dh_setup
        setup_registry(runtime, state, public_keys)
        # Simulate the training contract having finalized rounds 0..2.
        state.set("fl_training", "latest_round", 2)

        with pytest.raises(ContractError, match="already finalized"):
            call(runtime, state, "owner-9", "registry", "request_join",
                 public_key=public_keys["owner-9"], effective_round=2)
        with pytest.raises(ContractError, match="already finalized"):
            call(runtime, state, OWNERS[1], "registry", "request_leave", effective_round=1)
        # Round 3 is still open for changes.
        call(runtime, state, "owner-9", "registry", "request_join",
             public_key=public_keys["owner-9"], effective_round=3)

    def test_join_validations(self, validation_set, dh_setup):
        runtime, state = build_runtime(validation_set), WorldState()
        _, public_keys = dh_setup
        setup_registry(runtime, state, public_keys)

        with pytest.raises(ContractError, match="genesis cohort"):
            call(runtime, state, "owner-9", "registry", "request_join",
                 public_key=public_keys["owner-9"], effective_round=0)
        with pytest.raises(ContractError, match="round boundary"):
            call(runtime, state, "owner-9", "registry", "request_join",
                 public_key=public_keys["owner-9"], effective_round=6)
        with pytest.raises(ContractError, match="already an active"):
            call(runtime, state, OWNERS[0], "registry", "request_join",
                 public_key=public_keys[OWNERS[0]], effective_round=2)
        with pytest.raises(ContractError, match="only owner-role"):
            call(runtime, state, "owner-9", "registry", "request_join",
                 public_key=public_keys["owner-9"], effective_round=2, role="auditor")
        # A participant registered under a non-owner role gets a clear
        # rejection, not a bogus "already active" error.
        call(runtime, state, "auditor-1", "registry", "register_participant",
             public_key=997, role="auditor")
        with pytest.raises(ContractError, match="role 'auditor'"):
            call(runtime, state, "auditor-1", "registry", "request_join",
                 public_key=997, effective_round=2)

    def test_leave_cannot_break_grouping(self, validation_set, dh_setup):
        runtime, state = build_runtime(validation_set), WorldState()
        _, public_keys = dh_setup
        setup_registry(runtime, state, public_keys, n_groups=3)
        call(runtime, state, OWNERS[0], "registry", "request_leave", effective_round=2)
        # A second leave at the same boundary would leave 2 owners for 3 groups.
        with pytest.raises(ContractError, match="leave rejected"):
            call(runtime, state, OWNERS[1], "registry", "request_leave", effective_round=2)

    def test_compounding_leaves_cannot_strand_a_later_round(self, validation_set, dh_setup):
        """Regression: each leave must keep *every* remaining round groupable."""
        runtime, state = build_runtime(validation_set), WorldState()
        _, public_keys = dh_setup
        setup_registry(runtime, state, public_keys, n_groups=3, n_rounds=8)
        call(runtime, state, OWNERS[0], "registry", "request_leave", effective_round=5)
        # A second, earlier-boundary leave would drop round 5 to 2 owners for
        # 3 groups even though round 3 itself stays feasible.
        with pytest.raises(ContractError, match="round 5 would keep only 2"):
            call(runtime, state, OWNERS[1], "registry", "request_leave", effective_round=3)

    def test_dynamic_joins_do_not_consume_genesis_slots(self, validation_set, dh_setup):
        """Regression: a pre-setup join must not lock out a genesis owner."""
        runtime, state = build_runtime(validation_set), WorldState()
        _, public_keys = dh_setup
        call(runtime, state, OWNERS[0], "registry", "set_protocol_params",
             params=pinned_params(n_owners=3))
        call(runtime, state, OWNERS[0], "registry", "register_participant",
             public_key=public_keys[OWNERS[0]])
        call(runtime, state, OWNERS[1], "registry", "register_participant",
             public_key=public_keys[OWNERS[1]])
        call(runtime, state, "owner-9", "registry", "request_join",
             public_key=public_keys["owner-9"], effective_round=2)
        # The joiner neither completes setup nor takes the third genesis slot.
        assert not call(runtime, state, OWNERS[0], "registry", "is_setup_complete")
        call(runtime, state, OWNERS[2], "registry", "register_participant",
             public_key=public_keys[OWNERS[2]])
        assert call(runtime, state, OWNERS[0], "registry", "is_setup_complete")

    def test_rejoin_after_leave(self, validation_set, dh_setup):
        runtime, state = build_runtime(validation_set), WorldState()
        _, public_keys = dh_setup
        setup_registry(runtime, state, public_keys)
        call(runtime, state, OWNERS[1], "registry", "request_leave", effective_round=2)
        with pytest.raises(ContractError, match="already left"):
            call(runtime, state, OWNERS[1], "registry", "request_leave", effective_round=4)
        call(runtime, state, OWNERS[1], "registry", "request_join",
             public_key=public_keys[OWNERS[1]], effective_round=4)
        cohort = lambda r: call(  # noqa: E731 - tiny local reader
            runtime, state, OWNERS[0], "registry", "get_active_cohort", round_number=r)
        assert OWNERS[1] not in cohort(2)
        assert OWNERS[1] not in cohort(3)
        assert OWNERS[1] in cohort(4)

    def test_rejoin_at_leave_boundary_cancels_the_leave(self, validation_set, dh_setup):
        """Regression: a boundary rejoin must coalesce, not split the epoch."""
        runtime, state = build_runtime(validation_set), WorldState()
        _, public_keys = dh_setup
        setup_registry(runtime, state, public_keys)
        call(runtime, state, OWNERS[1], "registry", "request_leave", effective_round=3)
        call(runtime, state, OWNERS[1], "registry", "request_join",
             public_key=public_keys[OWNERS[1]], effective_round=3)
        epochs = call(runtime, state, OWNERS[0], "registry", "get_epochs")
        # One epoch, one cohort — no spurious identical-cohort boundary.
        assert [(e["start"], e["end"]) for e in epochs] == [(0, 6)]
        assert state.get("registry", f"membership/{OWNERS[1]}") == [{"from": 0, "until": None}]

    def test_submission_from_inactive_owner_rejected(self, validation_set, dh_setup):
        runtime, state = build_runtime(validation_set), WorldState()
        _, public_keys = dh_setup
        setup_registry(runtime, state, public_keys)
        call(runtime, state, OWNERS[1], "registry", "request_leave", effective_round=1)

        dummy = np.zeros(model_dimension(), dtype=np.uint64)
        with pytest.raises(ContractError, match="not in the round-1 cohort"):
            call(runtime, state, OWNERS[1], "fl_training", "submit_masked_update",
                 round_number=1, group_id=0, payload=dummy)
        # Not-yet-joined owners are rejected the same way.
        call(runtime, state, "owner-9", "registry", "request_join",
             public_key=public_keys["owner-9"], effective_round=3)
        with pytest.raises(ContractError, match="not in the round-1 cohort"):
            call(runtime, state, "owner-9", "fl_training", "submit_masked_update",
                 round_number=1, group_id=0, payload=dummy)


# ----------------------------------------------------------------------
# Runtime level: the pipeline emitting real membership transactions
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def membership_setup():
    """Five dataset shards: four genesis owners plus one later joiner."""
    return make_owner_datasets(n_owners=5, sigma=0.2, n_samples=400, seed=17)


def build_membership_protocol(dataset, genesis, n_rounds=5):
    config = ProtocolConfig(
        n_owners=len(genesis), n_groups=2, n_rounds=n_rounds,
        local_epochs=2, learning_rate=2.0, permutation_seed=13,
    )
    return BlockchainFLProtocol(
        genesis, dataset.test_features, dataset.test_labels, dataset.n_classes, config
    )


@pytest.fixture(scope="module")
def churn_run(membership_setup):
    """Join at round 2, leave at round 4, over 5 rounds (the acceptance scenario)."""
    dataset, owners = membership_setup
    genesis, joiner = owners[:4], owners[4]
    protocol = build_membership_protocol(dataset, genesis)
    leaver = sorted(o.owner_id for o in genesis)[1]
    spec = RunSpec(joins=(Join(joiner, 2),), leaves=(Leave(leaver, 4),))
    scheduler = RoundScheduler(protocol, Scenario(spec))
    result = scheduler.run()
    return protocol, result, joiner.owner_id, leaver


class TestMembershipPipeline:
    def test_cohorts_follow_the_scheduled_epochs(self, churn_run):
        protocol, result, joiner, leaver = churn_run
        cohorts = [sorted({o for g in r.groups for o in g}) for r in result.rounds]
        assert all(joiner not in cohort for cohort in cohorts[:2])
        assert all(joiner in cohort for cohort in cohorts[2:])
        assert all(leaver in cohort for cohort in cohorts[:4])
        assert leaver not in cohorts[4]

    def test_absent_rounds_earn_nothing(self, churn_run):
        _, result, joiner, leaver = churn_run
        per_round = {r.round_number: r.user_values for r in result.rounds}
        assert all(joiner not in per_round[r] for r in (0, 1))
        assert leaver not in per_round[4]
        # The joiner's total is exactly the sum of its active rounds' values.
        active_sum = sum(per_round[r][joiner] for r in (2, 3, 4))
        assert result.total_contributions[joiner] == pytest.approx(active_sum, abs=1e-12)

    def test_epoch_settlement_sums_to_epoch_sv_mass(self, churn_run):
        protocol, result, joiner, leaver = churn_run
        assert [(e["start"], e["end"]) for e in result.epoch_settlements] == [
            (0, 2), (2, 4), (4, 5),
        ]
        per_round = {r.round_number: r for r in result.rounds}
        for epoch in result.epoch_settlements:
            expected_mass = sum(
                sum(max(v, 0.0) for v in per_round[r].user_values.values())
                for r in range(epoch["start"], epoch["end"])
            )
            assert epoch["sv_mass"] == pytest.approx(expected_mass, abs=1e-9)
            assert sum(epoch["payouts"].values()) == pytest.approx(epoch["reward_pool"], abs=1e-6)
            assert set(epoch["payouts"]) <= set(epoch["cohort"])
        pools = sum(e["reward_pool"] for e in result.epoch_settlements)
        assert pools == pytest.approx(protocol.config.reward_pool, abs=1e-9)
        assert sum(result.reward_balances.values()) == pytest.approx(
            protocol.config.reward_pool, abs=1e-6
        )
        # The joiner is paid nothing for epoch 0, the leaver nothing for epoch 2.
        assert joiner not in result.epoch_settlements[0]["payouts"]
        assert leaver not in result.epoch_settlements[2]["payouts"]

    def test_audit_verifies_the_membership_chain_epoch_by_epoch(self, churn_run, membership_setup):
        protocol, _, _, _ = churn_run
        dataset, _ = membership_setup
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        report = audit_chain(chain, dataset.test_features, dataset.test_labels, dataset.n_classes)
        assert report.passed, report.mismatches
        assert report.rounds_checked == [0, 1, 2, 3, 4]
        assert report.epochs_checked == [0, 1, 2]
        for epoch, totals in report.recomputed_epoch_totals.items():
            assert totals, f"epoch {epoch} recomputed empty"

    def test_miner_replay_reproduces_the_membership_chain_byte_for_byte(self, churn_run):
        protocol, _, _, _ = churn_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        replayed = chain.replay()
        assert replayed.state.state_root() == chain.state.state_root()
        assert [b.block_hash for b in replayed.blocks] == [b.block_hash for b in chain.blocks]
        # Every replica — including the node that joined mid-run — agrees.
        roots = {p.node.chain.state.state_root() for p in protocol.participants.values()}
        assert len(roots) == 1

    def test_no_contract_method_mutates_its_transaction(self, churn_run):
        """A transaction's hash is a per-object memo; that is sound only while
        execution never changes ``args`` in place.  Execute every method of the
        four protocol contracts and re-derive each hash from the fields."""
        protocol, _, _, _ = churn_run
        # The replay executes every committed transaction on this replica.
        chain = protocol.participants[protocol.owner_ids[0]].node.chain.replay()
        sender = protocol.owner_ids[0]
        remaining = [
            ("fl_training", "get_round", {"round_number": 0}),
            ("fl_training", "get_global_model", {"round_number": 0}),
            ("fl_training", "get_submissions", {"round_number": 0}),
            ("contribution", "get_round_evaluation", {"round_number": 0}),
            ("contribution", "get_total_contributions", {}),
            ("registry", "get_participants", {}),
            ("registry", "get_active_cohort", {"round_number": 2}),
            ("registry", "get_epochs", {}),
            ("registry", "is_setup_complete", {}),
            ("reward", "get_balances", {}),
            ("reward", "get_distribution", {"label": "final"}),
            ("reward", "distribute", {"reward_pool": 10.0, "label": "once-more"}),
            ("reward", "distribute_epoch", {"epoch": 1, "reward_pool": 5.0}),
        ]
        nonce = chain.next_nonce(sender)
        block = chain.propose_block(sender, [
            Transaction(sender, contract, method, args, nonce=nonce + i)
            for i, (contract, method, args) in enumerate(remaining)
        ])
        assert all(receipt.success for receipt in block.receipts)
        transactions = [tx for b in chain.blocks for tx in b.transactions]
        assert {(tx.contract, tx.method) for tx in transactions} == {
            (name, method)
            for name in chain.runtime._contracts
            for method in chain.runtime.get(name).callable_methods()
        }
        for tx in transactions:
            assert "tx_hash" in tx.__dict__  # memoized before or during execution
            assert tx.tx_hash == hash_payload({**tx.body(), "signature": tx.signature})
            assert tx.verify_signature()
            rebuilt = Transaction(tx.sender, tx.contract, tx.method, tx.args, tx.nonce)
            assert (rebuilt.signature, rebuilt.tx_hash) == (tx.signature, tx.tx_hash)

    def test_tampered_cohort_fails_the_audit(self, churn_run, membership_setup):
        protocol, _, joiner, _ = churn_run
        dataset, _ = membership_setup
        chain = protocol.participants[protocol.owner_ids[0]].node.chain.replay()
        # Stored groups for round 0 suddenly claim the joiner participated.
        record = dict(chain.state.get("fl_training", "round/0"))
        groups = [list(g) for g in record["groups"]]
        groups[0] = groups[0] + [joiner]
        record["groups"] = groups
        chain.state.set("fl_training", "round/0", record)
        report = audit_chain(
            chain, dataset.test_features, dataset.test_labels, dataset.n_classes
        )
        assert not report.passed
        assert any("active cohort" in m or "state root" in m for m in report.mismatches)

    def test_join_only_run_matches_scheduled_epochs(self, membership_setup):
        dataset, owners = membership_setup
        genesis, joiner = owners[:4], owners[4]
        protocol = build_membership_protocol(dataset, genesis, n_rounds=3)
        result = RoundScheduler(protocol, Scenario(RunSpec(joins=(Join(joiner, 1),)))).run()
        assert [(e["start"], e["end"]) for e in result.epoch_settlements] == [(0, 1), (1, 3)]
        assert joiner.owner_id in result.total_contributions
        report = audit_chain(
            protocol.participants[protocol.owner_ids[0]].node.chain,
            dataset.test_features, dataset.test_labels, dataset.n_classes,
        )
        assert report.passed, report.mismatches

    def test_leave_only_run_shrinks_the_cohort(self, membership_setup):
        dataset, owners = membership_setup
        genesis = owners[:4]
        protocol = build_membership_protocol(dataset, genesis, n_rounds=3)
        leaver = sorted(o.owner_id for o in genesis)[-1]
        result = RoundScheduler(protocol, Scenario(RunSpec(leaves=(Leave(leaver, 2),)))).run()
        final_cohort = sorted({o for g in result.rounds[-1].groups for o in g})
        assert leaver not in final_cohort
        assert len(final_cohort) == 3
        report = audit_chain(
            protocol.participants[protocol.owner_ids[0]].node.chain,
            dataset.test_features, dataset.test_labels, dataset.n_classes,
        )
        assert report.passed, report.mismatches

    def test_rejected_membership_request_fails_the_run_loudly(self, membership_setup):
        """Regression: a failed join/leave receipt must not silently degrade
        the run into a fixed-cohort one.  The round's block stays committed,
        so the failure is a run-level ProtocolError, not a RoundError."""
        dataset, owners = membership_setup
        genesis = owners[:2]
        config = ProtocolConfig(
            n_owners=2, n_groups=2, n_rounds=2, local_epochs=1,
            learning_rate=2.0, permutation_seed=13,
        )
        protocol = BlockchainFLProtocol(
            genesis, dataset.test_features, dataset.test_labels, dataset.n_classes, config
        )
        leaver = sorted(o.owner_id for o in genesis)[0]
        # Leaving would drop the cohort to 1 owner for 2 groups — the contract
        # rejects it, and the pipeline must surface the failed receipt.
        with pytest.raises(ProtocolError, match="request_leave.*failed on chain"):
            RoundScheduler(protocol, Scenario(RunSpec(leaves=(Leave(leaver, 1),)))).run()

    def test_leave_in_the_round_an_owner_joins_is_refused(self, membership_setup):
        """An owner cannot schedule its leave for the round it becomes active
        in: the registry refuses, and the run fails on the failed receipt."""
        dataset, owners = membership_setup
        genesis, joiner = owners[:4], owners[4]
        protocol = build_membership_protocol(dataset, genesis, n_rounds=3)
        spec = RunSpec(joins=(Join(joiner, 1),), leaves=(Leave(joiner.owner_id, 1),))
        with pytest.raises(
            ProtocolError,
            match=f"membership request request_leave from {joiner.owner_id} failed on chain",
        ):
            RoundScheduler(protocol, Scenario(spec)).run()

    def test_scenario_constructor_validations(self, membership_setup):
        _, owners = membership_setup
        with pytest.raises(ProtocolError, match="join round must be at least 1"):
            Join(owners[4], 0)
        with pytest.raises(ProtocolError, match="leave round must be at least 1"):
            Leave("owner-1", 0)
        with pytest.raises(ProtocolError, match="ticks must be at least 1"):
            Withhold("owner-1", ticks=0)
        with pytest.raises(ProtocolError, match="at least one owner id"):
            SilentLeaders(())
        with pytest.raises(ProtocolError, match="at least one round"):
            Partition("split", rounds=())


class TestEpochSettlementAudit:
    def test_auditor_checks_settlements_under_any_label(self):
        """Regression: a non-'final' settlement label must not dodge the audit."""
        from repro.core.audit import AuditReport, _audit_epochs

        state = WorldState()
        state.set("registry", "participant_index", OWNERS)
        for owner in OWNERS:
            state.set("registry", f"participant/{owner}", {"public_key": 7, "role": "owner"})
        state.set("registry", "membership_index", [OWNERS[1]])
        state.set("registry", f"membership/{OWNERS[1]}", [{"from": 0, "until": 1}])
        round_values = {
            0: {owner: 0.1 for owner in OWNERS},
            1: {owner: 0.1 for owner in OWNERS if owner != OWNERS[1]},
        }
        # The settlement under a custom label records an inflated epoch-1 mass,
        # pays the departed owner, skews one epoch-0 payout amount, and uses a
        # pool split that is not mass-proportional.
        skewed = {o: 12.5 for o in OWNERS}
        skewed[OWNERS[0]] = 13.0
        state.set("reward", "distribution/settle-q1", {
            "reward_pool": 100.0,
            "payouts": {},
            "epochs": {
                "0": {"reward_pool": 50.0, "sv_mass": 0.4, "payouts": skewed},
                "1": {"reward_pool": 50.0, "sv_mass": 9.9, "payouts": {OWNERS[1]: 50.0}},
            },
        })
        report = AuditReport(chain_valid=True)
        _audit_epochs(state, report, round_values, n_rounds=2, tolerance=1e-9)
        assert report.epochs_checked == [0, 1]
        assert any("settle-q1" in m and "SV mass" in m for m in report.mismatches)
        assert any("settle-q1" in m and OWNERS[1] in m for m in report.mismatches)
        assert any("mass-proportional share" in m for m in report.mismatches)
        assert any(f"owner {OWNERS[0]} paid 13.0" in m for m in report.mismatches)

    def test_auditor_checks_single_epoch_distributions(self, churn_run, membership_setup):
        """A distribute_epoch settlement on a real chain is covered by the audit."""
        protocol, _, _, leaver = churn_run
        dataset, _ = membership_setup
        from repro.blockchain.transaction import Transaction

        chain = protocol.participants[protocol.owner_ids[0]].node.chain.replay()
        closer = protocol.owner_ids[0]
        tx = Transaction(
            sender=closer, contract="reward", method="distribute_epoch",
            args={"epoch": 2, "reward_pool": 10.0}, nonce=chain.next_nonce(closer),
        )
        chain.propose_block(closer, [tx])
        distribution = chain.state.get("reward", "distribution/epoch-2")
        assert distribution is not None
        assert leaver not in distribution["payouts"]
        report = audit_chain(
            chain, dataset.test_features, dataset.test_labels, dataset.n_classes
        )
        assert report.passed, report.mismatches


class TestFixedCohortParity:
    def test_plain_run_records_no_membership_state(self, protocol_run):
        protocol, result = protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        assert chain.state.get("registry", "membership_index", []) == []
        assert result.epoch_settlements == []
        # The settlement went through the classic single-pool distribution.
        distribution = chain.state.get("reward", "distribution/final")
        assert distribution is not None and "epochs" not in distribution


# ----------------------------------------------------------------------
# The round's dealing, derived once per block per replica
# ----------------------------------------------------------------------

class _JoinThenFailRegistry(ParticipantRegistryContract):
    """The registry plus one call that joins, derives the new cohort, then fails."""

    @contract_method
    def join_then_fail(self, ctx, public_key: int, effective_round: int):
        self.request_join(ctx, public_key, effective_round)
        cohort = cohort_for_round_from_state(ctx.state, effective_round)
        raise ContractError(f"failing after deriving {cohort}")


def _dealing_runtime() -> ContractRuntime:
    runtime = ContractRuntime()
    runtime.register(_JoinThenFailRegistry())
    runtime.register(FLTrainingContract())
    return runtime


def _fresh_cohort(state, round_number):
    return cohort_for_round_from_state(state.copy(), round_number)  # a copy derives anew


class TestDealingOncePerBlock:
    """``WorldState.derive`` under the registry: the cohort and the round
    assignment are dealt once per block on each replica, and never stale."""

    @pytest.fixture()
    def chain(self, dh_setup):
        chain = Blockchain(_dealing_runtime)
        self.nonces: dict[str, int] = {}
        _, self.keys = dh_setup
        setup = [self.tx(OWNERS[0], "registry", "set_protocol_params", params=pinned_params())]
        setup += [self.tx(owner, "registry", "register_participant", public_key=self.keys[owner])
                  for owner in OWNERS]
        chain.propose_block(OWNERS[0], setup)
        return chain

    def tx(self, sender, contract, method, **args):
        nonce = self.nonces.get(sender, 0)
        self.nonces[sender] = nonce + 1
        return Transaction(sender=sender, contract=contract, method=method, args=args, nonce=nonce)

    def submit(self, owner):
        group = pinned_round_assignment(pinned_params(), OWNERS, 0).slots[owner]
        return self.tx(owner, "fl_training", "submit_masked_update", round_number=0, group_id=group,
                       payload=np.zeros(model_dimension(), dtype=np.uint64))

    def join(self, method="request_join"):
        return self.tx("owner-9", "registry", method, public_key=self.keys["owner-9"], effective_round=1)

    def cohort_query(self, round_number):
        return self.tx(OWNERS[0], "registry", "get_active_cohort", round_number=round_number)

    def assert_fresh(self, state):
        for round_number in range(pinned_params()["n_rounds"]):
            assert cohort_for_round_from_state(state, round_number) == _fresh_cohort(state, round_number)

    def test_the_dealing_runs_once_per_replica_per_round_block(self, dataset, owners, monkeypatch):
        config = ProtocolConfig(n_owners=len(owners), n_groups=2, n_rounds=2, local_epochs=2,
                                learning_rate=2.0, permutation_seed=13)
        protocol = BlockchainFLProtocol(
            owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config
        )
        dealt, deal = [], fl_training.round_assignment
        monkeypatch.setattr(fl_training, "round_assignment",
                            lambda *args: (dealt.append(args[3]), deal(*args))[1])
        RoundScheduler(protocol).run(stop_after=2)
        # One per replica per round block: the leader's staging and every vote
        # derive it, every commit adopts — not one per submission plus one to finalize.
        replicas = len(protocol.participants)
        assert dealt == [0] * replicas + [1] * replicas

    def test_membership_changes_in_a_block_of_submissions_are_seen(self, chain, monkeypatch):
        assert cohort_for_round_from_state(chain.state, 1) == sorted(OWNERS)  # derived before the block
        txs = [
            self.submit(OWNERS[0]),
            self.join(),
            self.submit(OWNERS[1]),
            self.cohort_query(1),
            self.tx(OWNERS[2], "registry", "request_leave", effective_round=1),
            self.submit(OWNERS[2]),
            self.cohort_query(1),
            self.submit(OWNERS[3]),
            self.tx(OWNERS[3], "fl_training", "finalize_round", round_number=0),
        ]
        block = chain.propose_block(OWNERS[0], txs)
        assert all(receipt.success for receipt in block.receipts)
        assert block.receipts[3].result == sorted(OWNERS + ["owner-9"])
        assert block.receipts[6].result == sorted(set(OWNERS + ["owner-9"]) - {OWNERS[2]})
        self.assert_fresh(chain.state)
        # Derived or not, the chain is the same: same receipts, same head.
        monkeypatch.setattr(WorldState, "derive", lambda self, namespace, key, compute: compute())
        underived = Blockchain(_dealing_runtime)
        for committed in chain.blocks[1:]:
            underived.verify_and_append(committed)
        assert underived.head.block_hash == chain.head.block_hash

    def test_a_failed_transactions_rollback_drops_what_it_derived(self, chain):
        assert cohort_for_round_from_state(chain.state, 1) == sorted(OWNERS)
        block = chain.propose_block(OWNERS[0], [
            self.join("join_then_fail"),
            self.cohort_query(1),
        ])
        assert not block.receipts[0].success and "owner-9" in block.receipts[0].error
        assert block.receipts[1].result == sorted(OWNERS)
        self.assert_fresh(chain.state)

    def test_a_dry_runs_unwind_drops_what_it_derived(self, chain):
        assert cohort_for_round_from_state(chain.state, 1) == sorted(OWNERS)
        block = chain.propose_block(OWNERS[0], [
            self.join(),
            self.cohort_query(1),
        ], dry_run=True)
        assert block.receipts[1].result == sorted(OWNERS + ["owner-9"])
        assert cohort_for_round_from_state(chain.state, 1) == sorted(OWNERS)
        chain.verify_and_append(block, dry_run=True)  # a vote: executes and unwinds again
        assert cohort_for_round_from_state(chain.state, 1) == sorted(OWNERS)
        chain.verify_and_append(block)  # the commit adopts the vote's writes
        assert cohort_for_round_from_state(chain.state, 1) == sorted(OWNERS + ["owner-9"])
        self.assert_fresh(chain.state)

    def test_a_replica_restored_from_a_store_derives_its_own(self, chain, tmp_path):
        path = tmp_path / "chain.db"
        stored = Blockchain(_dealing_runtime, storage=SQLiteBackend(path))
        for committed in chain.blocks[1:]:
            stored.verify_and_append(committed)
        stored.propose_block(OWNERS[0], [
            self.join(),
        ])
        live = cohort_for_round_from_state(stored.state, 1)
        stored.storage.close()
        restored = Blockchain(_dealing_runtime)
        assert restored.attach_storage(SQLiteBackend(path))
        try:
            assert restored.state is not stored.state and restored.state._derived == {}
            assert cohort_for_round_from_state(restored.state, 1) == live == sorted(OWNERS + ["owner-9"])
            self.assert_fresh(restored.state)
        finally:
            restored.storage.close()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["request_join", "request_leave", "join_then_fail", "seal"]),
                  st.sampled_from(OWNERS + ["owner-9"]), st.integers(1, 5)),
        max_size=14,
    ))
    def test_property_the_kept_dealing_equals_a_fresh_one(self, dh_setup, operations):
        _, public_keys = dh_setup
        runtime, state = _dealing_runtime(), WorldState()
        setup_registry(runtime, state, public_keys)
        sealed = 0
        state.seal_version(sealed)
        params = pinned_params()
        ctx = ContractContext(state=state, sender=OWNERS[0], contract_name="fl_training")
        for method, owner, effective_round in operations:
            if method == "seal":
                sealed += 1
                state.seal_version(sealed)
            else:
                args = {"effective_round": effective_round}
                if method != "request_leave":
                    args["public_key"] = public_keys[owner]
                marker = state.snapshot()
                try:
                    runtime.execute(state, owner, "registry", method, args)
                except ContractError:
                    state.restore(marker)  # what a failed transaction's receipt does
            for round_number in range(params["n_rounds"]):
                fresh = _fresh_cohort(state, round_number)
                assert cohort_for_round_from_state(state, round_number) == fresh
                assert _dealt_round(ctx, params, round_number) == pinned_round_assignment(
                    params, fresh, round_number
                )
