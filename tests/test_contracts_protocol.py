"""Tests for the protocol contracts: registry, FL training, contribution, reward.

These tests drive the contracts directly through a ContractRuntime and a shared
WorldState (no consensus machinery), which keeps them fast and lets each state
transition be asserted in isolation.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.contracts.base import ContractRuntime
from repro.blockchain.contracts.contribution import ContributionContract
from repro.blockchain.contracts.fl_training import FLTrainingContract, pinned_round_assignment
from repro.blockchain.contracts.registry import ParticipantRegistryContract
from repro.blockchain.contracts.reward import RewardContract, proportional_payouts
from repro.blockchain.state import WorldState
from repro.core.audit import AuditReport, _audit_epochs
from repro.crypto.dh import DHKeyPair, DHParameters
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.masking import PairwiseMasker
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ContractError
from repro.fl.logistic_regression import LogisticRegressionModel
from repro.crypto.sharding import round_assignment

N_OWNERS = 4
N_GROUPS = 2
N_CLASSES = 3
N_FEATURES = 6
SEED = 13
OWNERS = [f"owner-{i}" for i in range(N_OWNERS)]


@pytest.fixture(scope="module")
def validation_set():
    return make_blobs(n_samples=120, n_features=N_FEATURES, n_classes=N_CLASSES, seed=5)


@pytest.fixture(scope="module")
def dh_setup():
    params = DHParameters.for_testing(bits=64, seed="contract-tests")
    keypairs = {owner: DHKeyPair.generate(params, owner) for owner in OWNERS}
    public_keys = {owner: kp.public_key for owner, kp in keypairs.items()}
    return keypairs, public_keys


def build_runtime(validation_set) -> ContractRuntime:
    features, labels = validation_set
    runtime = ContractRuntime()
    runtime.register(ParticipantRegistryContract())
    runtime.register(FLTrainingContract())
    runtime.register(ContributionContract(features, labels, N_CLASSES))
    runtime.register(RewardContract())
    return runtime


def protocol_params(model_dimension):
    return {
        "n_owners": N_OWNERS,
        "n_groups": N_GROUPS,
        "n_rounds": 2,
        "permutation_seed": SEED,
        "precision_bits": 24,
        "field_bits": 64,
        "max_summands": 64,
        "model_dimension": model_dimension,
    }


def model_dimension():
    return LogisticRegressionModel(N_FEATURES, N_CLASSES).parameters.dimension


def call(runtime, state, sender, contract, method, **args):
    return runtime.execute(state, sender, contract, method, args)[0]


def setup_registry(runtime, state, public_keys, dim):
    call(runtime, state, OWNERS[0], "registry", "set_protocol_params", params=protocol_params(dim))
    for owner in OWNERS:
        call(runtime, state, owner, "registry", "register_participant", public_key=public_keys[owner])


def local_models_for_round(round_number=0, scale=1.0):
    """Deterministic fake local models, one flat vector per owner."""
    dim = model_dimension()
    rng = np.random.default_rng(round_number)
    return {owner: rng.normal(scale=scale, size=dim) for owner in OWNERS}


def group_of(round_number):
    """Every owner's canonical group index for a round."""
    return dict(round_assignment(OWNERS, N_GROUPS, SEED, round_number).slots)


def submit_round(runtime, state, keypairs, public_keys, round_number=0, models=None):
    """Mask and submit every owner's update for a round, then finalize it."""
    codec = FixedPointCodec(max_summands=64)
    models = models or local_models_for_round(round_number)
    assignment = round_assignment(OWNERS, N_GROUPS, SEED, round_number)
    groups = [list(group) for group in assignment.groups]
    membership = group_of(round_number)
    for owner in OWNERS:
        cohort = {peer: public_keys[peer] for peer in assignment.mask_cohort(owner) if peer != owner}
        masker = PairwiseMasker(owner, keypairs[owner], cohort, codec=codec)
        masked = masker.mask(models[owner], round_number)
        call(
            runtime,
            state,
            owner,
            "fl_training",
            "submit_masked_update",
            round_number=round_number,
            group_id=membership[owner],
            payload=np.asarray(masked.payload, dtype=np.uint64),
            n_samples=10,
        )
    call(runtime, state, OWNERS[0], "fl_training", "finalize_round", round_number=round_number)
    return models, groups


class TestOneSubmissionCheck:
    """The runtime's argument check, then ``RoundAssignment.check_submission``, is the
    contract's check, not a mirror of it."""

    DIM = 5

    def _chain(self, validation_set, dh_setup):
        _, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        params = protocol_params(self.DIM)
        call(runtime, state, OWNERS[0], "registry", "set_protocol_params", params=params)
        for owner in OWNERS:
            call(runtime, state, owner, "registry", "register_participant", public_key=public_keys[owner])
        return runtime, state, pinned_round_assignment(params, OWNERS, 0)

    @staticmethod
    def _parent_verdict(assignment, sender, group_id, extra, size, dim):
        """The first check the pre-refactor contract failed, in its order."""
        if extra is not None:  # the call never binds
            return "bad arguments for fl_training.submit_masked_update"
        if sender not in assignment.slots:
            return "is not in the round-0 cohort"
        if group_id != assignment.slots[sender]:
            return f"claims group {group_id} but"
        if size != dim:
            return f"payload has dimension {size}, expected {dim}"
        return None

    @settings(max_examples=120, deadline=None)
    @given(
        sender=st.sampled_from([*OWNERS, "stranger"]),
        group_id=st.integers(-1, 2),
        extra=st.sampled_from([None, "shard_id", "extra"]),
        size=st.integers(DIM - 1, DIM + 1),
    )
    def test_a_reason_iff_a_failed_receipt_with_that_reason(
        self, validation_set, dh_setup, sender, group_id, extra, size
    ):
        runtime, state, assignment = self._chain(validation_set, dh_setup)
        claim = dict(round_number=0, group_id=group_id, payload=np.zeros(size, dtype=np.uint64))
        if extra is not None:
            claim[extra] = 0
        reason = runtime.argument_error(
            "fl_training", "submit_masked_update", claim
        ) or assignment.check_submission(sender, group_id, size, self.DIM)
        try:
            call(runtime, state, sender, "fl_training", "submit_masked_update", **claim)
            receipt_error = None
        except ContractError as exc:
            receipt_error = str(exc)
        assert receipt_error == reason
        # A submission wrong in two ways fails the way it always did.
        verdict = self._parent_verdict(assignment, sender, group_id, extra, size, self.DIM)
        assert (reason is None) == (verdict is None)
        assert verdict is None or verdict in reason
        assert extra is None or repr(extra) in reason

    def test_a_duplicate_outranks_a_wrong_size_but_not_a_wrong_claim(self, validation_set, dh_setup):
        runtime, state, assignment = self._chain(validation_set, dh_setup)
        sender = OWNERS[0]
        group_id = assignment.slots[sender]
        submit = lambda **claim: call(  # noqa: E731
            runtime, state, sender, "fl_training", "submit_masked_update", round_number=0, **claim
        )
        submit(group_id=group_id, payload=np.zeros(self.DIM, dtype=np.uint64))
        with pytest.raises(ContractError, match="already submitted"):
            submit(group_id=group_id, payload=np.zeros(self.DIM + 1, dtype=np.uint64))
        with pytest.raises(ContractError, match="claims group"):
            submit(group_id=group_id + 1, payload=np.zeros(self.DIM, dtype=np.uint64))


def _contract_calls():
    """Every (contract, method) a transaction may call, read from the contracts."""
    features, labels = make_blobs(n_samples=12, n_features=N_FEATURES, n_classes=N_CLASSES, seed=5)
    runtime = build_runtime((features, labels))
    contracts = [runtime.get(name) for name in ("registry", "fl_training", "contribution", "reward")]
    return [(contract.name, method) for contract in contracts for method in sorted(contract.callable_methods())]


class TestArgumentCheck:
    """``ContractRuntime.argument_error`` reads each method's own signature, so the
    reason gossip gives for an argument name a method does not take is the
    failed receipt's reason for every callable method."""

    @pytest.mark.parametrize(
        "contract, method", _contract_calls(), ids=lambda value: value
    )
    def test_an_unknown_argument_fails_with_the_gossip_reason(
        self, validation_set, contract, method
    ):
        runtime, state = build_runtime(validation_set), WorldState()
        taken = list(inspect.signature(runtime.get(contract).callable_methods()[method]).parameters)
        assert taken[0] == "ctx"
        assert runtime.argument_error(contract, method, {name: 0 for name in taken[1:]}) is None
        # ``ctx`` is the runtime's to pass, never the caller's.
        args = {"ctx": 0, "unexpected": 0}
        reason = runtime.argument_error(contract, method, args)
        assert reason == f"bad arguments for {contract}.{method}: unexpected ['ctx', 'unexpected']"
        with pytest.raises(ContractError) as excinfo:
            runtime.execute(state, OWNERS[0], contract, method, args)
        assert str(excinfo.value) == reason


class TestRegistryContract:
    def test_params_can_only_be_pinned_once(self, validation_set):
        runtime, state = build_runtime(validation_set), WorldState()
        dim = model_dimension()
        call(runtime, state, OWNERS[0], "registry", "set_protocol_params", params=protocol_params(dim))
        # Identical confirmation is idempotent.
        result = call(runtime, state, OWNERS[1], "registry", "set_protocol_params", params=protocol_params(dim))
        assert result["status"] == "already-set"
        conflicting = dict(protocol_params(dim), n_groups=3)
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[1], "registry", "set_protocol_params", params=conflicting)

    def test_params_require_mandatory_keys(self, validation_set):
        runtime, state = build_runtime(validation_set), WorldState()
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[0], "registry", "set_protocol_params", params={"n_owners": 4})

    def test_registration_records_public_keys(self, validation_set, dh_setup):
        _, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        participants = call(runtime, state, OWNERS[0], "registry", "get_participants")
        assert set(participants) == set(OWNERS)
        assert participants[OWNERS[1]]["public_key"] == public_keys[OWNERS[1]]

    def test_reregistration_with_same_key_is_idempotent(self, validation_set, dh_setup):
        _, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        result = call(runtime, state, OWNERS[0], "registry", "register_participant", public_key=public_keys[OWNERS[0]])
        assert result["status"] == "already-registered"

    def test_key_change_rejected(self, validation_set, dh_setup):
        _, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[0], "registry", "register_participant", public_key=public_keys[OWNERS[0]] + 1)

    def test_registry_full_rejects_extra_owner(self, validation_set, dh_setup):
        _, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        with pytest.raises(ContractError):
            call(runtime, state, "owner-extra", "registry", "register_participant", public_key=12345)

    def test_setup_completeness_flag(self, validation_set, dh_setup):
        _, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        dim = model_dimension()
        call(runtime, state, OWNERS[0], "registry", "set_protocol_params", params=protocol_params(dim))
        assert call(runtime, state, OWNERS[0], "registry", "is_setup_complete") is False
        for owner in OWNERS:
            call(runtime, state, owner, "registry", "register_participant", public_key=public_keys[owner])
        assert call(runtime, state, OWNERS[0], "registry", "is_setup_complete") is True

    def test_invalid_public_key_rejected(self, validation_set):
        runtime, state = build_runtime(validation_set), WorldState()
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[0], "registry", "register_participant", public_key=1)


class TestFLTrainingContract:
    def test_unregistered_sender_cannot_submit(self, validation_set, dh_setup):
        _, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        with pytest.raises(ContractError):
            call(
                runtime, state, "stranger", "fl_training", "submit_masked_update",
                round_number=0, group_id=0, payload=np.zeros(model_dimension(), dtype=np.uint64),
            )

    def test_wrong_group_claim_rejected(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        membership = group_of(0)
        owner = OWNERS[0]
        wrong_group = (membership[owner] + 1) % N_GROUPS
        with pytest.raises(ContractError):
            call(
                runtime, state, owner, "fl_training", "submit_masked_update",
                round_number=0, group_id=wrong_group,
                payload=np.zeros(model_dimension(), dtype=np.uint64),
            )

    def test_double_submission_rejected(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        membership = group_of(0)
        owner = OWNERS[0]
        payload = np.zeros(model_dimension(), dtype=np.uint64)
        call(runtime, state, owner, "fl_training", "submit_masked_update",
             round_number=0, group_id=membership[owner], payload=payload)
        with pytest.raises(ContractError):
            call(runtime, state, owner, "fl_training", "submit_masked_update",
                 round_number=0, group_id=membership[owner], payload=payload)

    def test_wrong_dimension_rejected(self, validation_set, dh_setup):
        _, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        membership = group_of(0)
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[0], "fl_training", "submit_masked_update",
                 round_number=0, group_id=membership[OWNERS[0]], payload=np.zeros(3, dtype=np.uint64))

    def test_round_outside_schedule_rejected(self, validation_set, dh_setup):
        _, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[0], "fl_training", "submit_masked_update",
                 round_number=99, group_id=0, payload=np.zeros(model_dimension(), dtype=np.uint64))

    def test_finalize_requires_all_submissions(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        membership = group_of(0)
        owner = OWNERS[0]
        call(runtime, state, owner, "fl_training", "submit_masked_update",
             round_number=0, group_id=membership[owner],
             payload=np.zeros(model_dimension(), dtype=np.uint64))
        with pytest.raises(ContractError):
            call(runtime, state, owner, "fl_training", "finalize_round", round_number=0)

    def test_secure_aggregation_recovers_group_means(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        models, groups = submit_round(runtime, state, keypairs, public_keys, round_number=0)
        record = call(runtime, state, OWNERS[0], "fl_training", "get_round", round_number=0)
        for group, published in zip(groups, record["group_models"]):
            expected = np.mean([models[owner] for owner in group], axis=0)
            assert np.allclose(np.asarray(published), expected, atol=1e-5)
        expected_global = np.mean(
            [np.mean([models[o] for o in group], axis=0) for group in groups], axis=0
        )
        assert np.allclose(np.asarray(record["global_model"]), expected_global, atol=1e-5)

    def test_finalize_twice_rejected(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        submit_round(runtime, state, keypairs, public_keys, round_number=0)
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[0], "fl_training", "finalize_round", round_number=0)

    def test_submissions_view_tracks_progress(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        assert call(runtime, state, OWNERS[0], "fl_training", "get_submissions", round_number=0) == []
        membership = group_of(0)
        owner = OWNERS[2]
        call(runtime, state, owner, "fl_training", "submit_masked_update",
             round_number=0, group_id=membership[owner],
             payload=np.zeros(model_dimension(), dtype=np.uint64))
        assert call(runtime, state, OWNERS[0], "fl_training", "get_submissions", round_number=0) == [owner]

    def test_global_model_view(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        assert call(runtime, state, OWNERS[0], "fl_training", "get_global_model", round_number=0) is None
        submit_round(runtime, state, keypairs, public_keys, round_number=0)
        model = call(runtime, state, OWNERS[0], "fl_training", "get_global_model", round_number=0)
        assert np.asarray(model).shape == (model_dimension(),)


class TestContributionContract:
    def test_evaluation_requires_finalized_round(self, validation_set, dh_setup):
        _, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[0], "contribution", "evaluate_round", round_number=0)

    def test_evaluation_produces_values_for_every_owner(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        submit_round(runtime, state, keypairs, public_keys, round_number=0)
        result = call(runtime, state, OWNERS[0], "contribution", "evaluate_round", round_number=0)
        assert set(result["user_values"]) == set(OWNERS)

    def test_group_members_share_their_group_value(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        _, groups = submit_round(runtime, state, keypairs, public_keys, round_number=0)
        call(runtime, state, OWNERS[0], "contribution", "evaluate_round", round_number=0)
        evaluation = call(runtime, state, OWNERS[0], "contribution", "get_round_evaluation", round_number=0)
        for group, value in zip(evaluation["groups"], evaluation["group_values"]):
            for owner in group:
                assert evaluation["user_values"][owner] == pytest.approx(value / len(group))

    def test_efficiency_axiom_holds_on_chain(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        submit_round(runtime, state, keypairs, public_keys, round_number=0)
        call(runtime, state, OWNERS[0], "contribution", "evaluate_round", round_number=0)
        evaluation = call(runtime, state, OWNERS[0], "contribution", "get_round_evaluation", round_number=0)
        assert sum(evaluation["group_values"]) == pytest.approx(evaluation["global_utility"], abs=1e-9)

    def test_double_evaluation_rejected(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        submit_round(runtime, state, keypairs, public_keys, round_number=0)
        call(runtime, state, OWNERS[0], "contribution", "evaluate_round", round_number=0)
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[1], "contribution", "evaluate_round", round_number=0)

    def test_totals_accumulate_across_rounds(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        per_round = []
        for round_number in range(2):
            submit_round(runtime, state, keypairs, public_keys, round_number=round_number)
            result = call(runtime, state, OWNERS[0], "contribution", "evaluate_round", round_number=round_number)
            per_round.append(result["user_values"])
        totals = call(runtime, state, OWNERS[0], "contribution", "get_total_contributions")
        for owner in OWNERS:
            assert totals[owner] == pytest.approx(per_round[0][owner] + per_round[1][owner])

    def test_contract_requires_valid_validation_set(self):
        with pytest.raises(Exception):
            ContributionContract(np.zeros((0, 3)), np.zeros(0), 3)


class TestRewardContract:
    def _evaluated_state(self, validation_set, dh_setup):
        keypairs, public_keys = dh_setup
        runtime, state = build_runtime(validation_set), WorldState()
        setup_registry(runtime, state, public_keys, model_dimension())
        submit_round(runtime, state, keypairs, public_keys, round_number=0)
        call(runtime, state, OWNERS[0], "contribution", "evaluate_round", round_number=0)
        return runtime, state

    def test_distribution_is_proportional_to_positive_contributions(self, validation_set, dh_setup):
        runtime, state = self._evaluated_state(validation_set, dh_setup)
        totals = call(runtime, state, OWNERS[0], "contribution", "get_total_contributions")
        result = call(runtime, state, OWNERS[0], "reward", "distribute", reward_pool=100.0)
        payouts = result["payouts"]
        assert sum(payouts.values()) == pytest.approx(100.0)
        positive = {k: max(v, 0.0) for k, v in totals.items()}
        weight = sum(positive.values())
        for owner in OWNERS:
            assert payouts[owner] == pytest.approx(100.0 * positive[owner] / weight)

    def test_payouts_do_not_depend_on_dict_order(self):
        # A replica restored from a store reads the totals in sorted-key order,
        # a live one in insertion order; both must settle to the same bits.
        totals = {"owner-2": 0.1, "owner-0": 0.7, "owner-1": 0.2, "owner-3": 1e-17}
        restored = dict(sorted(totals.items()))
        assert proportional_payouts(totals, 1000.0) == proportional_payouts(restored, 1000.0)

    def test_distribution_without_contributions_rejected(self, validation_set):
        runtime, state = build_runtime(validation_set), WorldState()
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[0], "reward", "distribute", reward_pool=10.0)

    def test_double_distribution_with_same_label_rejected(self, validation_set, dh_setup):
        runtime, state = self._evaluated_state(validation_set, dh_setup)
        call(runtime, state, OWNERS[0], "reward", "distribute", reward_pool=10.0)
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[0], "reward", "distribute", reward_pool=10.0)

    def test_balances_accumulate_across_labels(self, validation_set, dh_setup):
        runtime, state = self._evaluated_state(validation_set, dh_setup)
        call(runtime, state, OWNERS[0], "reward", "distribute", reward_pool=10.0, label="a")
        call(runtime, state, OWNERS[0], "reward", "distribute", reward_pool=10.0, label="b")
        balances = call(runtime, state, OWNERS[0], "reward", "get_balances")
        assert sum(balances.values()) == pytest.approx(20.0)

    def test_non_positive_totals_split_the_pool_equally(self, validation_set, dh_setup):
        # No owner has positive weight: the pool splits equally — in the
        # kernel, in the contract that settles, and in the audit that checks.
        totals = {OWNERS[0]: -0.25, OWNERS[1]: 0.0, OWNERS[2]: -1e-12, OWNERS[3]: -3.0}
        equal = {owner: 25.0 for owner in OWNERS}
        assert proportional_payouts(totals, 100.0) == equal
        runtime, state = self._evaluated_state(validation_set, dh_setup)
        state.set("contribution", "totals", totals)
        result = call(runtime, state, OWNERS[0], "reward", "distribute", reward_pool=100.0)
        assert result["payouts"] == equal
        state.set("reward", "distribution/epoch-0", {"epoch": 0, "reward_pool": 100.0, "payouts": equal})
        report = AuditReport(chain_valid=True)
        _audit_epochs(state, report, {0: totals}, n_rounds=2, tolerance=1e-9)
        assert report.epochs_checked == [0]
        assert report.mismatches == []

    def test_zero_pool_settles_paying_zeros(self, validation_set, dh_setup):
        runtime, state = self._evaluated_state(validation_set, dh_setup)
        result = call(runtime, state, OWNERS[0], "reward", "distribute", reward_pool=0.0)
        assert result["payouts"] == {owner: 0.0 for owner in OWNERS}
        assert call(runtime, state, OWNERS[0], "reward", "get_distribution")["reward_pool"] == 0.0
        with pytest.raises(ContractError, match="non-negative"):
            call(runtime, state, OWNERS[0], "reward", "distribute", reward_pool=-1e-9, label="again")

    def test_negative_pool_rejected(self, validation_set, dh_setup):
        runtime, state = self._evaluated_state(validation_set, dh_setup)
        with pytest.raises(ContractError):
            call(runtime, state, OWNERS[0], "reward", "distribute", reward_pool=-1.0)

    def test_distribution_record_is_stored(self, validation_set, dh_setup):
        runtime, state = self._evaluated_state(validation_set, dh_setup)
        call(runtime, state, OWNERS[0], "reward", "distribute", reward_pool=50.0)
        record = call(runtime, state, OWNERS[0], "reward", "get_distribution")
        assert record["reward_pool"] == 50.0
        assert set(record["payouts"]) == set(OWNERS)
