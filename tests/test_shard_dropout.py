"""A dropout under the sharded topology.

A device dropping mid-round must leave the settled chain byte-identical to an
undisturbed sharded run, with the audit passing in both replay and
incremental modes.
"""

from __future__ import annotations

import pytest

from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import DropoutScenario, RoundScheduler
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets


@pytest.fixture(scope="module")
def six_setup():
    return make_owner_datasets(n_owners=6, sigma=0.1, n_samples=400, seed=7)


def _build(six_setup, **overrides):
    dataset, owners = six_setup
    settings = dict(
        n_owners=6, n_groups=2, n_rounds=2, local_epochs=2,
        learning_rate=2.0, permutation_seed=13,
        shard_size=2,
    )
    settings.update(overrides)
    return BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes,
        ProtocolConfig(**settings),
    )


def _fingerprint(protocol):
    chain = protocol.participants[protocol.owner_ids[0]].node.chain
    return [(b.height, b.block_hash, b.header.state_root) for b in chain.blocks]


class TestShardedDropoutProtocol:
    def test_dropout_in_a_sharded_round_commits_identical_blocks(self, six_setup):
        plain = _build(six_setup)
        plain_result = plain.run()

        disturbed = _build(six_setup)
        dropped = sorted(disturbed.owner_ids)[1]
        scheduler = RoundScheduler(
            disturbed, DropoutScenario(dropped, round_number=0, offline_ticks=2)
        )
        disturbed_result = scheduler.run()

        assert _fingerprint(disturbed) == _fingerprint(plain)
        assert disturbed_result.reward_balances == plain_result.reward_balances
        assert any(ctx.ticks_waited for ctx in scheduler.contexts)

        dataset, _ = six_setup
        chain = disturbed.participants[disturbed.owner_ids[0]].node.chain
        for mode in ("replay", "incremental"):
            report = audit_chain(
                chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
                mode=mode,
            )
            assert report.passed, report.mismatches

    def test_dropout_in_a_sharded_sampled_round_audits_clean(self, six_setup):
        protocol = _build(six_setup, sv_estimator="sampled", sv_samples=16)
        dropped = sorted(protocol.owner_ids)[2]
        scheduler = RoundScheduler(
            protocol, DropoutScenario(dropped, round_number=1, offline_ticks=1)
        )
        scheduler.run()

        dataset, _ = six_setup
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        for mode in ("replay", "incremental"):
            report = audit_chain(
                chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
                mode=mode,
            )
            assert report.passed, report.mismatches
            assert report.estimators_checked == [0, 1]
