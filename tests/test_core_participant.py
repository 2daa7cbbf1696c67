"""Tests for the Participant (trainer + miner) wrapper (repro.core.participant)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.blockchain.contracts.base import ContractRuntime
from repro.blockchain.contracts.registry import ParticipantRegistryContract
from repro.blockchain.network import Network
from repro.core.adversary import AdversaryBehavior
from repro.core.participant import Participant
from repro.core.pipeline import RoundContext, RunSpec, Scenario, Tamper
from repro.crypto.dh import DHParameters
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.sharding import round_assignment
from repro.exceptions import ProtocolError
from repro.fl.logistic_regression import LogisticRegressionModel


def runtime_factory() -> ContractRuntime:
    runtime = ContractRuntime()
    runtime.register(ParticipantRegistryContract())
    return runtime


@pytest.fixture(scope="module")
def participants(dataset, owners):
    network = Network()
    dh_params = DHParameters.for_testing(bits=64, seed="participant-tests")
    codec = FixedPointCodec()
    built = {}
    for data in owners:
        built[data.owner_id] = Participant(
            data=data,
            n_classes=dataset.n_classes,
            network=network,
            runtime_factory=runtime_factory,
            dh_params=dh_params,
            codec=codec,
            local_epochs=2,
            learning_rate=2.0,
        )
    public_keys = {owner_id: p.public_key for owner_id, p in built.items()}
    for participant in built.values():
        participant.learn_peer_keys(public_keys)
    return built


class TestParticipant:
    def test_registration_transaction_targets_registry(self, participants):
        participant = next(iter(participants.values()))
        tx = participant.registration_transaction(nonce=0)
        assert tx.contract == "registry"
        assert tx.method == "register_participant"
        assert tx.args["public_key"] == participant.public_key

    def test_public_keys_are_distinct(self, participants):
        keys = {p.public_key for p in participants.values()}
        assert len(keys) == len(participants)

    def test_train_local_produces_model_of_right_dimension(self, participants, dataset):
        participant = next(iter(participants.values()))
        template = LogisticRegressionModel(dataset.n_features, dataset.n_classes).parameters
        local = participant.train_local(template, round_number=0)
        assert local.dimension == template.dimension

    def test_adversarial_participant_tampering_is_applied(self, participants, dataset):
        # A participant trains honestly; tampering is a run-spec entry that
        # replaces the trained model before it is masked.
        participant = next(iter(participants.values()))
        owner_id = participant.owner_id
        template = LogisticRegressionModel(dataset.n_features, dataset.n_classes).parameters
        local = participant.train_local(template, 0)
        ctx = RoundContext(
            round_number=0, global_parameters=template, owner_ids=[owner_id],
            assignment=round_assignment([owner_id], 1, 13, 0),
        )
        scenario = Scenario(RunSpec(tamper=(Tamper(owner_id, AdversaryBehavior(kind="zero")),)))
        assert local.to_vector().any()
        assert not scenario.transform_update(ctx, owner_id, local).to_vector().any()

    def test_masked_updates_within_a_group_aggregate_correctly(self, participants, dataset):
        template = LogisticRegressionModel(dataset.n_features, dataset.n_classes).parameters
        group = sorted(participants)[:2]
        assignment = round_assignment(group, 1, 13, 0)
        locals_ = {}
        updates = []
        for owner_id in group:
            participant = participants[owner_id]
            locals_[owner_id] = participant.train_local(template, 0)
            tx = participant.masked_update_transaction(locals_[owner_id], 0, assignment, nonce=0)
            assert tx.contract == "fl_training"
            assert tx.args["group_id"] == 0 and "shard_id" not in tx.args
            updates.append(tx.args["payload"])

        codec = participants[group[0]].codec
        total = np.zeros_like(updates[0])
        for payload in updates:
            total = codec.add(total, payload)
        decoded = codec.decode_sum(total, n_summands=len(updates)) / len(updates)
        expected = np.mean([locals_[o].to_vector() for o in group], axis=0)
        assert np.allclose(decoded, expected, atol=1e-5)

    def test_owner_outside_the_assignment_is_refused(self, participants, dataset):
        template = LogisticRegressionModel(dataset.n_features, dataset.n_classes).parameters
        owner_ids = sorted(participants)
        participant = participants[owner_ids[0]]
        local = participant.train_local(template, 0)
        foreign = round_assignment(owner_ids[1:3], 1, 13, 0)
        with pytest.raises(ProtocolError, match="does not belong"):
            participant.masked_update_transaction(local, 0, foreign, nonce=0)

    def test_masking_without_peer_keys_rejected(self, dataset, owners):
        network = Network()
        dh_params = DHParameters.for_testing(bits=64, seed="no-keys")
        participant = Participant(
            data=owners[0],
            n_classes=dataset.n_classes,
            network=network,
            runtime_factory=runtime_factory,
            dh_params=dh_params,
            codec=FixedPointCodec(),
        )
        template = LogisticRegressionModel(dataset.n_features, dataset.n_classes).parameters
        local = participant.train_local(template, 0)
        assignment = round_assignment([owners[0].owner_id, "somebody-else"], 1, 13, 0)
        with pytest.raises(ProtocolError, match="missing public keys"):
            participant.masked_update_transaction(local, 0, assignment, nonce=0)
