"""Tests for the staged round pipeline and its scenario hooks.

The key property: scenario orchestration (dropout recovery, straggler delays,
rejected adversarial submissions) changes *when* things happen off chain but
never *what* lands on chain — every recovered scenario run commits exactly the
blocks (hashes included) of an undisturbed run, and the pipeline itself
reproduces the pre-refactor monolithic loop's chain byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blockchain.contracts import reward
from repro.blockchain.transaction import Transaction
from repro.core.adversary import AdversaryBehavior
from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import (
    AdversarialSubmissionScenario,
    AdversaryInjectionScenario,
    ComposedScenario,
    DropoutScenario,
    LateJoinScenario,
    RoundScheduler,
    Scenario,
    StragglerScenario,
)
from repro.core.protocol import BlockchainFLProtocol
from repro.crypto.sharding import round_assignment
from repro.exceptions import ContractStateError, ProtocolError, RoundError


def build_protocol(dataset, owners, **config_overrides):
    """A fresh protocol instance over the shared small setup."""
    settings = dict(
        n_owners=len(owners),
        n_groups=2,
        n_rounds=2,
        local_epochs=2,
        learning_rate=2.0,
        permutation_seed=13,
    )
    settings.update(config_overrides)
    config = ProtocolConfig(**settings)
    return BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config
    )


def chain_fingerprint(protocol):
    """Every block's identity: height, hash, and resulting state root."""
    chain = protocol.participants[protocol.owner_ids[0]].node.chain
    return [(block.height, block.block_hash, block.header.state_root) for block in chain.blocks]


def legacy_run(protocol):
    """The pre-pipeline monolithic loop, reproduced verbatim for receipt pins.

    This mirrors the historical ``BlockchainFLProtocol.run`` implementation:
    submissions gossiped one owner at a time in sorted order, then the two
    closing calls, one consensus round per training round, and a final reward
    block.
    """
    protocol.setup()
    global_parameters = protocol._template_parameters
    for round_number in range(protocol.config.n_rounds):
        assignment = round_assignment(
            protocol.owner_ids, protocol.config.n_groups,
            protocol.config.permutation_seed, round_number,
        )
        for owner_id in protocol.owner_ids:
            participant = protocol.participants[owner_id]
            local_parameters = participant.train_local(global_parameters, round_number)
            tx = participant.masked_update_transaction(
                local_parameters, round_number, assignment,
                nonce=protocol._next_nonce(owner_id),
            )
            protocol._submit(tx)
        closer = protocol.owner_ids[round_number % len(protocol.owner_ids)]
        for contract, method in (("fl_training", "finalize_round"), ("contribution", "evaluate_round")):
            protocol._submit(Transaction(
                sender=closer, contract=contract, method=method,
                args={"round_number": round_number}, nonce=protocol._next_nonce(closer),
            ))
        protocol._commit_block()
        chain = protocol._reference_chain()
        record = chain.state.get("fl_training", f"round/{round_number}")
        global_parameters = protocol._template_parameters.from_vector(
            np.asarray(record["global_model"], dtype=np.float64)
        )
    protocol._submit(Transaction(
        sender=protocol.owner_ids[0], contract="reward", method="distribute",
        args={"reward_pool": protocol.config.reward_pool, "label": "final"},
        nonce=protocol._next_nonce(protocol.owner_ids[0]),
    ))
    protocol._commit_block()


class TestPipelineReceiptParity:
    def test_pipeline_reproduces_the_legacy_loop_byte_for_byte(self, dataset, owners):
        reference = build_protocol(dataset, owners)
        legacy_run(reference)

        pipeline = build_protocol(dataset, owners)
        pipeline.run()

        assert chain_fingerprint(pipeline) == chain_fingerprint(reference)

    def test_dropout_recovery_commits_identical_blocks(self, dataset, owners):
        plain = build_protocol(dataset, owners)
        plain_result = plain.run()

        disturbed = build_protocol(dataset, owners)
        dropped = sorted(o.owner_id for o in owners)[1]
        scheduler = RoundScheduler(disturbed, DropoutScenario(dropped, round_number=0, offline_ticks=2))
        disturbed_result = scheduler.run()

        assert chain_fingerprint(disturbed) == chain_fingerprint(plain)
        assert disturbed_result.total_contributions == plain_result.total_contributions
        assert scheduler.contexts[0].ticks_waited == 2
        assert scheduler.contexts[0].withheld == {}  # recovered
        assert scheduler.contexts[1].ticks_waited == 0  # only round 0 was disturbed

    def test_straggler_within_timeout_commits_identical_blocks(self, dataset, owners):
        plain = build_protocol(dataset, owners)
        plain.run()

        disturbed = build_protocol(dataset, owners)
        straggler = sorted(o.owner_id for o in owners)[-1]
        scheduler = RoundScheduler(disturbed, StragglerScenario(straggler, delay_ticks=3))
        scheduler.run()

        assert chain_fingerprint(disturbed) == chain_fingerprint(plain)
        assert all(ctx.ticks_waited == 3 for ctx in scheduler.contexts)

    def test_rejected_adversarial_claim_commits_identical_blocks(self, dataset, owners):
        plain = build_protocol(dataset, owners)
        plain_result = plain.run()

        disturbed = build_protocol(dataset, owners)
        liar = sorted(o.owner_id for o in owners)[0]
        scenario = AdversarialSubmissionScenario(liar)
        scheduler = RoundScheduler(disturbed, scenario)
        disturbed_result = scheduler.run()

        assert chain_fingerprint(disturbed) == chain_fingerprint(plain)
        assert disturbed_result.reward_balances == plain_result.reward_balances
        rejections = [r for ctx in scheduler.contexts for r in ctx.rejections]
        assert len(rejections) == disturbed.config.n_rounds
        assert all(r.owner_id == liar for r in rejections)
        assert all("claims group" in r.reason for r in rejections)

    def test_composed_scenarios_commit_identical_blocks(self, dataset, owners):
        plain = build_protocol(dataset, owners)
        plain.run()

        ids = sorted(o.owner_id for o in owners)
        disturbed = build_protocol(dataset, owners)
        scenario = ComposedScenario([
            DropoutScenario(ids[1], round_number=1, offline_ticks=1),
            StragglerScenario(ids[2], delay_ticks=2, rounds=[0]),
            AdversarialSubmissionScenario(ids[0], rounds=[0]),
        ])
        RoundScheduler(disturbed, scenario).run()

        assert chain_fingerprint(disturbed) == chain_fingerprint(plain)


class TestTimeoutAndFailure:
    def test_straggler_past_timeout_aborts_without_touching_the_chain(self, dataset, owners):
        protocol = build_protocol(dataset, owners)
        straggler = sorted(o.owner_id for o in owners)[0]
        scheduler = RoundScheduler(
            protocol, StragglerScenario(straggler, delay_ticks=5), max_wait_ticks=3
        )
        with pytest.raises(RoundError, match="straggler timeout"):
            scheduler.run()
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        # Only genesis + the setup block: the aborted round staged transactions
        # at the barrier but never gossiped them.
        assert chain.height == 1
        assert all(len(p.node.mempool.peek()) == 0 for p in protocol.participants.values())

    def test_permanent_dropout_reports_the_missing_owner(self, dataset, owners):
        protocol = build_protocol(dataset, owners)
        gone = sorted(o.owner_id for o in owners)[2]

        class PermanentDropout(Scenario):
            def withhold_submission(self, ctx, owner_id):
                return "dropout" if owner_id == gone else None

        with pytest.raises(RoundError, match=gone):
            RoundScheduler(protocol, PermanentDropout(), max_wait_ticks=2).run()

    def test_failed_settlement_reports_the_receipt_error(self, dataset, owners, monkeypatch):
        protocol = build_protocol(dataset, owners, n_rounds=1)

        def refuse(totals, pool):
            raise ContractStateError("payout refused")

        monkeypatch.setattr(reward, "proportional_payouts", refuse)
        with pytest.raises(ProtocolError, match="settlement failed on chain: .*payout refused"):
            protocol.run()
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        receipt = chain.blocks[-1].receipts[-1]
        assert receipt.success is False
        assert chain.find_receipt(receipt.tx_hash) is receipt
        assert chain.state.get("reward", "distribution/final") is None


class TestScenarioSemantics:
    def test_late_joiner_earns_less_than_full_participation(self, dataset, owners):
        joiner = sorted(o.owner_id for o in owners)[0]

        # Singleton groups give per-owner contribution resolution, so the
        # missing round of signal shows up directly in the joiner's total.
        full = build_protocol(dataset, owners, n_groups=len(owners)).run()
        late = build_protocol(dataset, owners, n_groups=len(owners)).run(
            LateJoinScenario(joiner, join_round=1)
        )

        assert late.total_contributions[joiner] < full.total_contributions[joiner]
        # The other owners' relative ordering is still produced and settled.
        assert set(late.total_contributions) == set(full.total_contributions)

    def test_scenario_injection_matches_participant_level_adversaries(self, dataset, owners):
        attacker = sorted(o.owner_id for o in owners)[1]
        behavior = AdversaryBehavior(kind="noise", magnitude=3.0, seed=5)

        via_participant = build_protocol(dataset, owners)
        participant_protocol = BlockchainFLProtocol(
            owners, dataset.test_features, dataset.test_labels, dataset.n_classes,
            via_participant.config, adversaries={attacker: behavior},
        )
        participant_protocol.run()

        via_scenario = build_protocol(dataset, owners)
        via_scenario.run(AdversaryInjectionScenario({attacker: behavior}))

        assert chain_fingerprint(via_scenario) == chain_fingerprint(participant_protocol)

    def test_windowed_injection_only_tampers_inside_the_window(self, dataset, owners):
        attacker = sorted(o.owner_id for o in owners)[1]
        behavior = AdversaryBehavior(kind="zero")

        windowed = build_protocol(dataset, owners)
        scheduler = RoundScheduler(
            windowed, AdversaryInjectionScenario({attacker: behavior}, start_round=1)
        )
        scheduler.run()
        round0, round1 = scheduler.contexts
        assert np.any(round0.local_models[attacker].to_vector() != 0.0)
        assert np.all(round1.local_models[attacker].to_vector() == 0.0)

    def test_contexts_expose_the_round_state(self, dataset, owners):
        protocol = build_protocol(dataset, owners)
        scheduler = RoundScheduler(protocol)
        scheduler.run()
        assert len(scheduler.contexts) == protocol.config.n_rounds
        for ctx in scheduler.contexts:
            assert set(ctx.local_models) == set(protocol.owner_ids)
            assert set(ctx.submissions) == set(protocol.owner_ids)
            assert ctx.missing_owners() == []
            assert ctx.result is not None
            assert ctx.result.consensus.accepted
            # finalize + evaluate staged by the closing stages
            assert [tx.method for tx in ctx.closing_transactions] == [
                "finalize_round", "evaluate_round",
            ]


class TestVersionedAssembly:
    def test_v2_assembly_run_matches_v1_and_passes_audit(self, dataset, owners):
        # Version 1 — the scalar subset enumeration — survives only as the
        # oracle: fed the coalition utilities each round published, it must
        # reproduce the group values the vectorized assembly put on chain.
        from repro.shapley.native import exact_shapley_from_utilities

        protocol = build_protocol(dataset, owners)
        result = protocol.run()
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        for round_number in range(len(result.rounds)):
            stored = chain.state.get("contribution", f"evaluation/{round_number}")
            labels = [f"group-{j}" for j in range(len(stored["groups"]))]
            table = {
                tuple(key.split("/")): value
                for key, value in stored["coalition_utilities"].items()
            }
            oracle = exact_shapley_from_utilities(labels, table)
            for label, value in zip(labels, stored["group_values"]):
                assert value == pytest.approx(oracle[label], abs=1e-9)

        pinned = chain.state.get("registry", "protocol_params")
        assert pinned["sv_assembly_version"] == 2
        report = audit_chain(chain, dataset.test_features, dataset.test_labels, dataset.n_classes)
        assert report.passed

    def test_v2_chain_replays_on_every_replica(self, dataset, owners):
        protocol = build_protocol(dataset, owners)
        protocol.run()
        roots = {p.node.chain.state.state_root() for p in protocol.participants.values()}
        assert len(roots) == 1

    def test_unknown_version_rejected(self, dataset, owners):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ProtocolConfig(n_owners=len(owners), sv_assembly_version=3)


class TestAbortRecovery:
    def test_aborted_round_rewinds_nonces_so_a_retry_succeeds(self, dataset, owners):
        protocol = build_protocol(dataset, owners)
        straggler = sorted(o.owner_id for o in owners)[0]
        with pytest.raises(RoundError, match="straggler timeout"):
            RoundScheduler(
                protocol, StragglerScenario(straggler, delay_ticks=9), max_wait_ticks=2
            ).run()

        # The abort consumed no on-chain nonces, so the same protocol object
        # can simply be re-run — and commits the chain a plain run would.
        retry_result = RoundScheduler(protocol).run()

        plain = build_protocol(dataset, owners)
        plain_result = plain.run()
        assert chain_fingerprint(protocol) == chain_fingerprint(plain)
        assert retry_result.total_contributions == plain_result.total_contributions

    def test_composed_withhold_reasons_do_not_cross_deliver(self, dataset, owners):
        target = sorted(o.owner_id for o in owners)[1]
        protocol = build_protocol(dataset, owners)
        # The dropout (4 ticks) withholds first; the straggler's earlier
        # 1-tick schedule must NOT end the dropout outage early.
        scenario = ComposedScenario([
            DropoutScenario(target, round_number=0, offline_ticks=4),
            StragglerScenario(target, delay_ticks=1, rounds=[0]),
        ])
        scheduler = RoundScheduler(protocol, scenario)
        scheduler.run()
        assert scheduler.contexts[0].ticks_waited == 4

        plain = build_protocol(dataset, owners)
        plain.run()
        assert chain_fingerprint(protocol) == chain_fingerprint(plain)


class TestManyGroups:
    def test_eleven_singleton_groups_evaluate_on_chain(self, ):
        # Regression: "group-10" sorts lexicographically before "group-2", so
        # the contract's grand-coalition lookup must use the sorted key.
        from repro.datasets.loader import make_owner_datasets

        dataset, owners = make_owner_datasets(n_owners=11, sigma=0.1, n_samples=550, seed=23)
        config = ProtocolConfig(
            n_owners=11, n_groups=11, n_rounds=1, local_epochs=1,
            learning_rate=2.0, permutation_seed=23,
        )
        protocol = BlockchainFLProtocol(
            owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config
        )
        result = protocol.run()
        assert len(result.rounds) == 1
        assert set(result.total_contributions) == {o.owner_id for o in owners}
        assert result.rounds[0].global_utility > 0.0
        # The auditor runs the contract's kernel on the contract's inputs, so
        # its recomputation equals the stored totals to the last bit.
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        report = audit_chain(chain, dataset.test_features, dataset.test_labels, dataset.n_classes)
        assert report.passed, report.mismatches
        assert report.recomputed_totals == chain.state.get("contribution", "totals")
