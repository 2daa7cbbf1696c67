"""Tests for epoch-aware consensus authority rotation and view-change failover.

Four layers are covered:

* schedule level — the pure rotation arithmetic, ``EpochAuthoritySchedule``,
  and ``verify_block_authority`` rejecting proposer/view tampering;
* parity — with ``authority_rotation`` off, headers carry no view and block
  hashes are byte-identical to the pre-rotation hashing scheme;
* runtime level — rotation-enabled runs committing view-stamped blocks, the
  a run spec's ``SilentLeaders`` forcing view changes (including at a churn epoch
  boundary), and the all-proposers-offline abort touching nothing;
* audit level — ``audit_chain`` recomputing and verifying the proposer and
  view number of every committed round, and a syncing miner replaying a
  rotation-enabled chain byte for byte.
"""

from __future__ import annotations

import pytest

from repro.blockchain.block import Block
from repro.blockchain.consensus import (
    EpochAuthoritySchedule,
    committed_round_of_block,
    rotation_index,
    scheduled_proposer,
    verify_block_authority,
)
from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import (
    Join,
    Leave,
    RoundScheduler,
    RunSpec,
    Scenario,
    SilentLeaders,
    Withhold,
)
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets
from repro.exceptions import ConsensusError, InvalidBlockError, ProtocolError, RoundError
from repro.utils.hashing import hash_payload


def build_protocol(dataset, owners, **config_overrides):
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


def chain_of(protocol):
    return protocol.participants[protocol.owner_ids[0]].node.chain


def chain_fingerprint(protocol):
    return [(b.height, b.block_hash, b.header.state_root) for b in chain_of(protocol).blocks]


def round_blocks(chain):
    """(fl_round, block) pairs for every committed training round."""
    pairs = []
    for block in chain.blocks[1:]:
        fl_round = committed_round_of_block(block)
        if fl_round is not None:
            pairs.append((fl_round, block))
    return pairs


# ----------------------------------------------------------------------
# Schedule level
# ----------------------------------------------------------------------

class TestRotationArithmetic:
    def test_rotation_restarts_at_the_epoch_start(self):
        assert rotation_index(3, 3, 0, 4) == 0
        assert rotation_index(4, 3, 0, 4) == 1
        assert rotation_index(4, 3, 3, 4) == 0  # view changes wrap

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ConsensusError):
            rotation_index(0, 0, 0, 0)
        with pytest.raises(ConsensusError):
            rotation_index(1, 2, 0, 3)

    def test_doctests_run(self):
        import doctest

        import repro.blockchain.consensus as consensus

        results = doctest.testmod(consensus)
        assert results.attempted > 0
        assert results.failed == 0


class TestScheduleFromChainState:
    def test_schedule_rotates_through_the_cohort(self, dataset, owners):
        protocol = build_protocol(dataset, owners, authority_rotation=True, n_rounds=2)
        protocol.setup()
        state = chain_of(protocol).state
        cohort = sorted(protocol.owner_ids)
        n = len(cohort)
        for round_number in range(2):
            for view in range(n):
                expected = cohort[(round_number + view) % n]
                assert scheduled_proposer(state, round_number, view) == expected

    def test_schedule_object_matches_the_pure_function(self, dataset, owners):
        protocol = build_protocol(dataset, owners, authority_rotation=True)
        protocol.setup()
        schedule = EpochAuthoritySchedule(lambda: chain_of(protocol).state)
        proposers = schedule.proposers_for_round(1)
        state = chain_of(protocol).state
        assert proposers == [scheduled_proposer(state, 1, view) for view in range(len(proposers))]
        assert protocol.round_proposers(1) == proposers

    def test_wrapped_view_numbers_are_rejected(self, dataset, owners):
        # A cohort member must not be able to re-schedule itself by stamping
        # view + k*|cohort| (or any out-of-range view) into the header.
        protocol = build_protocol(dataset, owners, authority_rotation=True)
        protocol.run()
        chain = chain_of(protocol)
        state = chain.state
        n = len(protocol.owner_ids)
        with pytest.raises(ConsensusError, match="outside"):
            scheduled_proposer(state, 0, n)  # wraps back to the view-0 proposer
        with pytest.raises(ConsensusError, match="outside"):
            scheduled_proposer(state, 0, -1)
        fl_round, block = round_blocks(chain)[0]
        replica = build_protocol(dataset, owners, authority_rotation=True)
        replica_chain = chain_of(replica)
        for earlier in chain.blocks[1:block.height]:
            replica_chain.verify_and_append(earlier)
        wrapped = Block.build(
            height=block.height,
            parent_hash=block.header.parent_hash,
            proposer=block.header.proposer,  # entitled at view 0 — but claims view n
            transactions=list(block.transactions),
            receipts=list(block.receipts),
            state_root=block.header.state_root,
            timestamp=block.header.timestamp,
            view=block.header.view + n,
        )
        with pytest.raises(InvalidBlockError, match="outside"):
            replica_chain.verify_and_append(wrapped)

    def test_round_proposers_requires_rotation(self, dataset, owners):
        protocol = build_protocol(dataset, owners)
        with pytest.raises(ProtocolError, match="rotation"):
            protocol.round_proposers(0)


class TestVerifyBlockAuthority:
    def test_wrong_proposer_is_rejected_by_every_miner(self, dataset, owners):
        protocol = build_protocol(dataset, owners, authority_rotation=True)
        protocol.run()
        chain = chain_of(protocol)
        fl_round, block = round_blocks(chain)[0]
        wrong = [o for o in protocol.owner_ids if o != block.header.proposer][0]
        # Rebuild the same block under a different proposer at the same view:
        # replaying it must fail at the authority check, before re-execution.
        replica = build_protocol(dataset, owners, authority_rotation=True)
        replica_chain = chain_of(replica)
        for earlier in chain.blocks[1:block.height]:
            replica_chain.verify_and_append(earlier)
        forged = Block.build(
            height=block.height,
            parent_hash=block.header.parent_hash,
            proposer=wrong,
            transactions=list(block.transactions),
            receipts=list(block.receipts),
            state_root=block.header.state_root,
            timestamp=block.header.timestamp,
            view=block.header.view,
        )
        with pytest.raises(InvalidBlockError, match="epoch-authority schedule"):
            replica_chain.verify_and_append(forged)

    def test_view_on_a_static_chain_is_rejected(self, dataset, owners):
        protocol = build_protocol(dataset, owners)  # rotation off
        protocol.run()
        chain = chain_of(protocol)
        fl_round, block = round_blocks(chain)[0]
        replica = build_protocol(dataset, owners)
        replica_chain = chain_of(replica)
        for earlier in chain.blocks[1:block.height]:
            replica_chain.verify_and_append(earlier)
        stamped = Block.build(
            height=block.height,
            parent_hash=block.header.parent_hash,
            proposer=block.header.proposer,
            transactions=list(block.transactions),
            receipts=list(block.receipts),
            state_root=block.header.state_root,
            timestamp=block.header.timestamp,
            view=0,
        )
        with pytest.raises(InvalidBlockError, match="no epoch-authority schedule applies"):
            replica_chain.verify_and_append(stamped)

    def test_missing_view_on_a_rotation_chain_is_rejected(self, dataset, owners):
        protocol = build_protocol(dataset, owners, authority_rotation=True)
        protocol.run()
        chain = chain_of(protocol)
        fl_round, block = round_blocks(chain)[0]
        state_before = build_protocol(dataset, owners, authority_rotation=True)
        replica_chain = chain_of(state_before)
        for earlier in chain.blocks[1:block.height]:
            replica_chain.verify_and_append(earlier)
        stripped = Block.build(
            height=block.height,
            parent_hash=block.header.parent_hash,
            proposer=block.header.proposer,
            transactions=list(block.transactions),
            receipts=list(block.receipts),
            state_root=block.header.state_root,
            timestamp=block.header.timestamp,
            view=None,
        )
        with pytest.raises(InvalidBlockError, match="without a view number"):
            replica_chain.verify_and_append(stripped)


# ----------------------------------------------------------------------
# Parity: rotation off == the pre-rotation chain format
# ----------------------------------------------------------------------

class TestRotationOffParity:
    def test_headers_carry_no_view_and_hash_with_the_legacy_payload(self, protocol_run):
        protocol, _ = protocol_run
        for block in chain_of(protocol).blocks:
            header = block.header
            assert header.view is None
            legacy_hash = hash_payload(
                {
                    "height": header.height,
                    "parent_hash": header.parent_hash,
                    "proposer": header.proposer,
                    "tx_root": header.tx_root,
                    "receipt_root": header.receipt_root,
                    "state_root": header.state_root,
                    "timestamp": header.timestamp,
                }
            )
            assert header.block_hash == legacy_hash

    def test_rotation_flag_default_off_produces_identical_chains(self, dataset, owners):
        explicit = build_protocol(dataset, owners, authority_rotation=False)
        explicit.run()
        default = build_protocol(dataset, owners)
        default.run()
        assert chain_fingerprint(explicit) == chain_fingerprint(default)

    def test_audit_checks_static_chains_for_smuggled_views(self, protocol_run, dataset):
        protocol, _ = protocol_run
        report = audit_chain(
            chain_of(protocol), dataset.test_features, dataset.test_labels, dataset.n_classes
        )
        assert report.passed
        assert report.proposers_checked == []  # nothing scheduled, nothing to verify


# ----------------------------------------------------------------------
# Runtime level
# ----------------------------------------------------------------------

class TestRotationRuntime:
    def test_plain_rotation_run_commits_view_zero_blocks(self, dataset, owners):
        protocol = build_protocol(dataset, owners, authority_rotation=True)
        scheduler = RoundScheduler(protocol)
        result = scheduler.run()
        assert len(result.rounds) == protocol.config.n_rounds
        cohort = sorted(protocol.owner_ids)
        for fl_round, block in round_blocks(chain_of(protocol)):
            assert block.header.view == 0
            assert block.header.proposer == cohort[fl_round % len(cohort)]
        for ctx in scheduler.contexts:
            assert ctx.metadata["view"] == 0
            assert ctx.metadata["view_changes"] == []
        # Every replica agrees on the rotation-enabled chain.
        roots = {p.node.chain.state.state_root() for p in protocol.participants.values()}
        assert len(roots) == 1

    def test_silent_leader_forces_a_recorded_view_change(self, dataset, owners):
        protocol = build_protocol(dataset, owners, authority_rotation=True)
        cohort = sorted(protocol.owner_ids)
        silent = cohort[1]  # scheduled at view 0 of round 1
        scheduler = RoundScheduler(protocol, Scenario(RunSpec(silent_leaders=(SilentLeaders(silent),))))
        result = scheduler.run()
        blocks = dict(round_blocks(chain_of(protocol)))
        assert blocks[0].header.view == 0
        assert blocks[0].header.proposer == cohort[0]
        assert blocks[1].header.view == 1
        assert blocks[1].header.proposer == cohort[2]
        assert scheduler.contexts[1].metadata["view_changes"] == [
            {"view": 0, "leader": silent, "reason": "silent"}
        ]
        # A proposer outage is a consensus fault, not a data fault: the silent
        # owner still trained, submitted, and earned.
        assert silent in result.total_contributions

    def test_rejected_proposal_falls_through_to_the_next_view(self, dataset, owners, monkeypatch):
        protocol = build_protocol(dataset, owners, authority_rotation=True, n_rounds=1)
        protocol.setup()  # the round-0 leader also proposes the setup block
        cohort = sorted(protocol.owner_ids)
        leader = protocol.participants[cohort[0]]
        calls = {"n": 0}

        def flaky(engine, authorities=None, view=None):
            calls["n"] += 1
            raise ConsensusError("proposal rejected by the miner vote")

        monkeypatch.setattr(leader.node, "run_consensus_round", flaky)
        scheduler = RoundScheduler(protocol)
        scheduler.run()
        assert calls["n"] == 1
        block = dict(round_blocks(chain_of(protocol)))[0]
        assert block.header.view == 1
        assert block.header.proposer == cohort[1]
        changes = scheduler.contexts[0].metadata["view_changes"]
        assert len(changes) == 1 and "rejected" in changes[0]["reason"]

    def test_all_scheduled_proposers_offline_aborts_touching_nothing(self, dataset, owners):
        protocol = build_protocol(dataset, owners, authority_rotation=True)
        scenario = Scenario(RunSpec(silent_leaders=(SilentLeaders(sorted(protocol.owner_ids)),)))
        with pytest.raises(RoundError, match="every scheduled proposer"):
            RoundScheduler(protocol, scenario).run()
        chain = chain_of(protocol)
        assert chain.height == 1  # genesis + setup only
        assert all(len(p.node.mempool.peek()) == 0 for p in protocol.participants.values())

        # The abort rewound the off-chain nonces, so the same protocol object
        # retries cleanly and commits the chain a plain rotation run would.
        retry = RoundScheduler(protocol).run()
        plain = build_protocol(dataset, owners, authority_rotation=True)
        plain_result = plain.run()
        assert chain_fingerprint(protocol) == chain_fingerprint(plain)
        assert retry.total_contributions == plain_result.total_contributions

    def test_leader_dropout_without_rotation_is_refused(self, dataset, owners):
        # Without the guard the scenario would silently degenerate to a plain
        # run (BlockProposalStage only consults leader_offline on rotation
        # chains) — the scheduler must refuse instead.
        protocol = build_protocol(dataset, owners)  # rotation off
        silent = SilentLeaders("owner-1")
        with pytest.raises(ProtocolError, match="requires authority rotation"):
            RoundScheduler(protocol, Scenario(RunSpec(silent_leaders=(silent,))))
        with pytest.raises(ProtocolError, match="requires authority rotation"):
            RoundScheduler(protocol, Scenario(RunSpec(
                withhold=(Withhold("owner-1", ticks=2, rounds=(0,)),), silent_leaders=(silent,),
            )))

    def test_leader_dropout_composes_with_data_dropout(self, dataset, owners):
        protocol = build_protocol(dataset, owners, authority_rotation=True)
        target = sorted(protocol.owner_ids)[1]
        scheduler = RoundScheduler(protocol, Scenario(RunSpec(
            silent_leaders=(SilentLeaders(target, rounds=(1,)),),
            withhold=(Withhold(target, ticks=2, rounds=(0,)),),
        )))
        scheduler.run()
        assert scheduler.contexts[0].ticks_waited == 2
        assert scheduler.contexts[1].metadata["view"] == 1


# ----------------------------------------------------------------------
# Rotation + churn (epoch boundaries) and the audit
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def rotation_churn_setup():
    return make_owner_datasets(n_owners=5, sigma=0.2, n_samples=400, seed=17)


@pytest.fixture(scope="module")
def rotation_churn_run(rotation_churn_setup):
    """Rotation + churn + a leader silent exactly at the round-2 epoch boundary.

    Join at round 2, leave at round 4, over 5 rounds; the epoch-1 cohort's
    view-0 proposer of round 2 (the boundary round, where the rotation
    restarts) is silent, so the very first block of the new epoch commits
    through a view change.
    """
    dataset, owners = rotation_churn_setup
    genesis, joiner = owners[:4], owners[4]
    config = ProtocolConfig(
        n_owners=len(genesis), n_groups=2, n_rounds=5,
        local_epochs=2, learning_rate=2.0, permutation_seed=13,
        authority_rotation=True,
    )
    protocol = BlockchainFLProtocol(
        genesis, dataset.test_features, dataset.test_labels, dataset.n_classes, config
    )
    leaver = sorted(o.owner_id for o in genesis)[1]
    boundary_cohort = sorted([o.owner_id for o in genesis] + [joiner.owner_id])
    silent = boundary_cohort[0]  # view-0 proposer of boundary round 2
    scheduler = RoundScheduler(protocol, Scenario(RunSpec(
        joins=(Join(joiner, 2),), leaves=(Leave(leaver, 4),),
        silent_leaders=(SilentLeaders(silent, rounds=(2,)),),
    )))
    result = scheduler.run()
    return protocol, scheduler, result, joiner.owner_id, leaver, silent


class TestRotationAcrossEpochs:
    def test_rotation_restarts_and_fails_over_at_the_epoch_boundary(self, rotation_churn_run):
        protocol, scheduler, _, joiner, leaver, silent = rotation_churn_run
        blocks = dict(round_blocks(chain_of(protocol)))
        epoch1_cohort = sorted(set(protocol.owner_ids))  # genesis + joiner
        assert joiner in epoch1_cohort
        # Round 2 opens epoch 1: view 0 goes to the new cohort's first owner,
        # which is silent, so the block commits at view 1 under the next one.
        assert blocks[2].header.view == 1
        assert blocks[2].header.proposer == epoch1_cohort[1]
        assert scheduler.contexts[2].metadata["view_changes"] == [
            {"view": 0, "leader": silent, "reason": "silent"}
        ]
        # Round 4 opens epoch 2 (the leaver is out): rotation restarts again,
        # and the departed owner is no longer an eligible proposer.
        epoch2_cohort = [o for o in epoch1_cohort if o != leaver]
        assert blocks[4].header.view == 0
        assert blocks[4].header.proposer == epoch2_cohort[0]
        assert leaver not in protocol.round_proposers(4)

    def test_joined_owner_becomes_a_proposer_only_from_its_epoch(self, rotation_churn_run):
        protocol, _, _, joiner, _, _ = rotation_churn_run
        assert joiner not in protocol.round_proposers(1)
        assert joiner in protocol.round_proposers(2)

    def test_audit_recomputes_proposer_and_view_for_every_round(
        self, rotation_churn_run, rotation_churn_setup
    ):
        protocol, _, _, _, _, _ = rotation_churn_run
        dataset, _ = rotation_churn_setup
        report = audit_chain(
            chain_of(protocol), dataset.test_features, dataset.test_labels, dataset.n_classes
        )
        assert report.passed, report.mismatches
        assert report.proposers_checked == [0, 1, 2, 3, 4]
        assert report.rounds_checked == [0, 1, 2, 3, 4]
        assert report.epochs_checked == [0, 1, 2]

    def test_audit_flags_a_proposer_that_skips_the_schedule(
        self, rotation_churn_run, rotation_churn_setup
    ):
        protocol, _, _, _, _, _ = rotation_churn_run
        dataset, _ = rotation_churn_setup
        chain = chain_of(protocol).replay()
        fl_round, block = round_blocks(chain)[0]
        wrong = [o for o in sorted(protocol.owner_ids) if o != block.header.proposer][-1]
        forged_header_block = Block(
            header=type(block.header)(
                height=block.header.height,
                parent_hash=block.header.parent_hash,
                proposer=wrong,
                tx_root=block.header.tx_root,
                receipt_root=block.header.receipt_root,
                state_root=block.header.state_root,
                timestamp=block.header.timestamp,
                view=block.header.view,
            ),
            transactions=block.transactions,
            receipts=block.receipts,
        )
        chain.blocks[block.height] = forged_header_block
        report = audit_chain(
            chain, dataset.test_features, dataset.test_labels, dataset.n_classes
        )
        assert not report.passed
        # The forgery breaks the replay (parent links/authority) — and if it
        # got that far, the schedule recomputation names the mismatch.
        assert report.mismatches

    def test_aborted_join_round_rewinds_for_a_clean_retry(self, rotation_churn_setup):
        # Regression: the round-abort nonce rewind used to drop a mid-round
        # joiner's counter; add_participant's idempotent path now restores it,
        # so the documented clean retry actually works.
        dataset, owners = rotation_churn_setup
        genesis, joiner = owners[:4], owners[4]
        config = ProtocolConfig(
            n_owners=len(genesis), n_groups=2, n_rounds=2,
            local_epochs=2, learning_rate=2.0, permutation_seed=13,
            authority_rotation=True,
        )
        protocol = BlockchainFLProtocol(
            genesis, dataset.test_features, dataset.test_labels, dataset.n_classes, config
        )
        doomed = RunSpec(
            joins=(Join(joiner, 1),),
            silent_leaders=(SilentLeaders([o.owner_id for o in genesis], rounds=(0,)),),
        )
        with pytest.raises(RoundError, match="every scheduled proposer"):
            RoundScheduler(protocol, Scenario(doomed)).run()
        assert chain_of(protocol).height == 1  # setup only; the join never landed

        result = RoundScheduler(protocol, Scenario(RunSpec(joins=(Join(joiner, 1),)))).run()
        assert joiner.owner_id in result.total_contributions

    def test_syncing_miner_replays_the_rotation_chain_byte_for_byte(self, rotation_churn_run):
        protocol, _, _, _, _, _ = rotation_churn_run
        chain = chain_of(protocol)
        replayed = chain.replay()
        assert replayed.state.state_root() == chain.state.state_root()
        assert [b.block_hash for b in replayed.blocks] == [b.block_hash for b in chain.blocks]
        assert [b.header.view for b in replayed.blocks] == [b.header.view for b in chain.blocks]
        # Every live replica — including the mid-run joiner's node — agrees.
        roots = {p.node.chain.state.state_root() for p in protocol.participants.values()}
        assert len(roots) == 1
