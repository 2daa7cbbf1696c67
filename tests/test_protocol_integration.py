"""Integration tests for the end-to-end blockchain FL protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.blockchain.contracts import reward
from repro.core.adversary import AdversaryBehavior
from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import RoundScheduler, RunSpec, Scenario, Tamper
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets
from repro.exceptions import ProtocolError, SetupError
from repro.fl.client import DataOwner
from repro.fl.trainer import FederatedTrainer, TrainingConfig
from repro.shapley.group import accumulate_user_values, group_shapley_round
from repro.shapley.metrics import cosine_similarity
from repro.shapley.utility import AccuracyUtility


def _events(chain):
    return [event for block in chain.blocks for receipt in block.receipts for event in receipt.events]


class TestProtocolRun:
    def test_every_round_is_recorded(self, protocol_run):
        protocol, result = protocol_run
        assert len(result.rounds) == protocol.config.n_rounds

    def test_contributions_cover_every_owner(self, protocol_run):
        protocol, result = protocol_run
        assert set(result.total_contributions) == set(protocol.owner_ids)

    def test_totals_equal_sum_of_round_values(self, protocol_run):
        protocol, result = protocol_run
        for owner in protocol.owner_ids:
            expected = sum(record.user_values[owner] for record in result.rounds)
            assert result.total_contributions[owner] == pytest.approx(expected, abs=1e-9)

    def test_contributions_per_round_is_each_owners_round_series(self, protocol_run):
        protocol, result = protocol_run
        series = result.contributions_per_round()
        assert set(series) == set(protocol.owner_ids)
        for owner in protocol.owner_ids:
            assert series[owner] == [record.user_values[owner] for record in result.rounds]

    def test_rewards_sum_to_the_pool(self, protocol_run):
        protocol, result = protocol_run
        assert sum(result.reward_balances.values()) == pytest.approx(protocol.config.reward_pool)

    def test_rewards_are_monotone_in_contributions(self, protocol_run):
        protocol, result = protocol_run
        contributions = result.total_contributions
        rewards = result.reward_balances
        owners = sorted(contributions, key=contributions.get)
        reward_order = [rewards[o] for o in owners]
        assert reward_order == sorted(reward_order)

    def test_global_model_learns_something(self, protocol_run, dataset):
        protocol, result = protocol_run
        scorer = AccuracyUtility(dataset.test_features, dataset.test_labels, dataset.n_classes)
        final_accuracy = scorer.score(result.final_parameters)
        assert final_accuracy > 0.5
        assert result.rounds[-1].global_utility == pytest.approx(final_accuracy, abs=0.2)

    def test_every_replica_converges_to_the_same_state(self, protocol_run):
        protocol, _ = protocol_run
        roots = {p.node.chain.state.state_root() for p in protocol.participants.values()}
        assert len(roots) == 1

    def test_every_replica_stores_the_committed_payload_buffer_itself(self, protocol_run):
        protocol, _ = protocol_run
        for participant in protocol.participants.values():
            chain = participant.node.chain
            submissions = [tx for block in chain.blocks for tx in block.transactions
                           if tx.method == "submit_masked_update"]
            assert len(submissions) == protocol.config.n_rounds * len(protocol.owner_ids)
            for tx in submissions:
                record = chain.state.get("fl_training", f"update/{tx.args['round_number']}/{tx.sender}")
                assert record["payload"] is tx.args["payload"]

    def test_chain_replays_cleanly_on_every_replica(self, protocol_run):
        protocol, _ = protocol_run
        for participant in protocol.participants.values():
            replayed = participant.node.chain.replay()
            assert replayed.state.state_root() == participant.node.chain.state.state_root()

    def test_consensus_was_unanimous_without_byzantine_miners(self, protocol_run):
        _, result = protocol_run
        for record in result.rounds:
            assert record.consensus is not None and record.consensus.accepted
            assert record.consensus.reject_count == 0

    def test_groups_follow_the_shared_permutation_seed(self, protocol_run):
        protocol, result = protocol_run
        from repro.shapley.group import make_groups

        for record in result.rounds:
            expected = make_groups(
                protocol.owner_ids, protocol.config.n_groups, protocol.config.permutation_seed, record.round_number
            )
            assert [list(g) for g in record.groups] == [list(g) for g in expected]

    def test_transaction_and_block_counts(self, protocol_run):
        protocol, result = protocol_run
        n = len(protocol.owner_ids)
        rounds = protocol.config.n_rounds
        # setup block + one block per round + reward block
        assert result.chain_height == rounds + 2
        # setup: params + n registrations; per round: n updates + finalize + evaluate; final: 1 reward tx
        assert result.total_transactions == (1 + n) + rounds * (n + 2) + 1

    def test_protocol_chain_emits_expected_events(self, protocol_run):
        protocol, _ = protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        names = {event["name"] for event in _events(chain)}
        assert {"ProtocolParamsSet", "ParticipantRegistered", "MaskedUpdateSubmitted",
                "RoundFinalized", "RoundEvaluated", "RewardsDistributed"} <= names

    def test_protocol_emits_one_finalize_event_per_round(self, protocol_run):
        protocol, _ = protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        finalized = [event for event in _events(chain) if event["name"] == "RoundFinalized"]
        assert len(finalized) == protocol.config.n_rounds

    def test_setup_cannot_run_twice(self, protocol_run):
        protocol, _ = protocol_run
        with pytest.raises(SetupError):
            protocol.setup()

    def test_round_before_setup_rejected(self, dataset, owners):
        config = ProtocolConfig(n_owners=len(owners), n_groups=2, n_rounds=1, local_epochs=1)
        protocol = BlockchainFLProtocol(owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config)
        with pytest.raises(ProtocolError):
            RoundScheduler(protocol).run_round(0, protocol._template_parameters)

    def test_owner_count_mismatch_rejected(self, dataset, owners):
        config = ProtocolConfig(n_owners=len(owners) + 1, n_groups=2)
        with pytest.raises(ProtocolError):
            BlockchainFLProtocol(owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config)


class TestEquivalenceWithPlainFedAvg:
    """The masked on-chain path must reproduce plain FedAvg + GroupSV."""

    @pytest.fixture(scope="class")
    def plain_reference(self, dataset, owners, protocol_run):
        protocol, _ = protocol_run
        config = protocol.config
        clients = [
            DataOwner(
                o.owner_id, o.features, o.labels, dataset.n_classes,
                local_epochs=config.local_epochs, learning_rate=config.learning_rate,
                batch_size=config.batch_size, l2=config.l2,
            )
            for o in owners
        ]
        trainer = FederatedTrainer(
            clients, dataset.n_features, dataset.n_classes,
            TrainingConfig(
                n_rounds=config.n_rounds, local_epochs=config.local_epochs,
                learning_rate=config.learning_rate, l2=config.l2, batch_size=config.batch_size,
            ),
        )
        scorer = AccuracyUtility(dataset.test_features, dataset.test_labels, dataset.n_classes)
        global_parameters = trainer.initial_parameters()
        round_results = []
        for round_number in range(config.n_rounds):
            record = trainer.run_round(global_parameters, round_number)
            local_models = {u.owner_id: u.parameters for u in record.updates}
            group_result = group_shapley_round(
                local_models, config.n_groups, config.permutation_seed, round_number, scorer
            )
            round_results.append(group_result)
            global_parameters = group_result.global_model
        return global_parameters, round_results

    def test_final_global_model_matches_plain_path(self, protocol_run, plain_reference):
        _, result = protocol_run
        plain_final, _ = plain_reference
        on_chain = result.final_parameters.to_vector()
        plain = plain_final.to_vector()
        assert np.allclose(on_chain, plain, atol=1e-4)

    def test_per_round_contributions_match_plain_groupsv(self, protocol_run, plain_reference):
        # The on-chain path works on fixed-point encoded weights, so coalition
        # accuracies may differ by at most a test-sample flip or two; the
        # contribution pattern must still match closely.
        _, result = protocol_run
        _, plain_rounds = plain_reference
        for chain_round, plain_round in zip(result.rounds, plain_rounds):
            for owner, value in plain_round.user_values.items():
                assert chain_round.user_values[owner] == pytest.approx(value, abs=0.02)

    def test_total_contributions_match_plain_accumulation(self, protocol_run, plain_reference):
        _, result = protocol_run
        _, plain_rounds = plain_reference
        plain_totals = accumulate_user_values(plain_rounds)
        similarity = cosine_similarity(result.total_contributions, plain_totals)
        assert similarity == pytest.approx(1.0, abs=1e-3)


class TestAudit:
    def test_audit_passes_on_honest_run(self, protocol_run, dataset):
        protocol, _ = protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        report = audit_chain(chain, dataset.test_features, dataset.test_labels, dataset.n_classes)
        assert report.passed
        assert report.rounds_checked == list(range(protocol.config.n_rounds))

    def test_audit_recomputes_the_stored_totals(self, protocol_run, dataset):
        protocol, result = protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        report = audit_chain(chain, dataset.test_features, dataset.test_labels, dataset.n_classes)
        for owner, value in result.total_contributions.items():
            assert report.recomputed_totals[owner] == pytest.approx(value, abs=1e-8)

    def test_audit_detects_tampered_contract_state(self, protocol_run, dataset):
        protocol, _ = protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain.replay()
        # Tamper with the stored evaluation of round 0 directly in the state.
        stored = chain.state.get("contribution", "evaluation/0")
        victim = sorted(stored["user_values"])[0]
        stored["user_values"][victim] += 0.5
        chain.state.set("contribution", "evaluation/0", stored)
        report = audit_chain(chain, dataset.test_features, dataset.test_labels, dataset.n_classes)
        assert not report.passed

    def test_incremental_audit_recomputes_a_plain_distribute_settlement(self, dataset, owners, monkeypatch):
        config = ProtocolConfig(n_owners=4, n_groups=2, n_rounds=1, local_epochs=2,
                                learning_rate=2.0, permutation_seed=13)
        protocol = BlockchainFLProtocol(owners, dataset.test_features, dataset.test_labels,
                                        dataset.n_classes, config)
        first = protocol.owner_ids[0]
        with monkeypatch.context() as patch:  # the settling contract pays the whole pool to one owner
            patch.setattr(reward, "proportional_payouts",
                          lambda totals, pool: {owner: pool * (owner == first) for owner in totals})
            result = protocol.run()
        assert result.reward_balances[first] == config.reward_pool
        chain = protocol.participants[first].node.chain
        report = audit_chain(chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
                             mode="incremental")
        assert not report.passed
        assert [m for m in report.mismatches if m.startswith("distribution 'final': owner ")]

    def test_audit_with_wrong_validation_set_fails(self, protocol_run, dataset):
        protocol, _ = protocol_run
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        rng = np.random.default_rng(0)
        fake_labels = rng.integers(0, dataset.n_classes, size=dataset.test_labels.size)
        report = audit_chain(chain, dataset.test_features, fake_labels, dataset.n_classes)
        assert not report.passed


class TestByzantineAndAdversarialRuns:
    def test_minority_byzantine_miner_does_not_stop_the_protocol(self, dataset):
        _, owners = make_owner_datasets(n_owners=4, sigma=0.2, n_samples=240, seed=21)
        config = ProtocolConfig(
            n_owners=4, n_groups=2, n_rounds=1, local_epochs=2, learning_rate=2.0,
            byzantine_miners=(owners[-1].owner_id,),
        )
        protocol = BlockchainFLProtocol(owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config)
        result = protocol.run()
        assert len(result.rounds) == 1
        assert result.rounds[0].consensus.reject_count == 1
        assert result.rounds[0].consensus.accepted

    def test_free_riding_adversary_earns_less_than_its_honest_counterfactual(self, dataset):
        _, owners = make_owner_datasets(n_owners=4, sigma=0.0, n_samples=240, seed=22)
        config = ProtocolConfig(n_owners=4, n_groups=4, n_rounds=1, local_epochs=3, learning_rate=2.0)
        adversary_id = owners[0].owner_id

        honest = BlockchainFLProtocol(
            owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config
        ).run()
        free_rider = Tamper(adversary_id, AdversaryBehavior(kind="noise", magnitude=5.0, seed=1))
        adversarial = BlockchainFLProtocol(
            owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config
        ).run(Scenario(RunSpec(tamper=(free_rider,))))
        assert adversarial.total_contributions[adversary_id] < honest.total_contributions[adversary_id]
