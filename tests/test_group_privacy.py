"""Only group sums decode: the privacy side of the paper's Sec. IV trade-off, on chain.

A chain reader holds every block body, so it can ring-sum the masked payloads
of any set of owners.  The pairwise masks cancel exactly in the sum over whole
groups: each group's sum decodes to its members' plaintext sum and to the
round record's group model, and no other set of owners' sum decodes.  So the
finest sum a reader learns is a group's, n/m owners, the resolution GroupSV
scores at.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.pipeline import Join, Leave, RoundScheduler, RunSpec, Scenario
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets


@pytest.fixture(scope="module")
def owner_data():
    """Nine genesis owners plus one that joins mid-run."""
    return make_owner_datasets(n_owners=10, sigma=0.2, n_samples=450, seed=3)


def _run(owner_data, spec):
    dataset, owners = owner_data
    protocol = BlockchainFLProtocol(
        owners[:9], dataset.test_features, dataset.test_labels, dataset.n_classes,
        ProtocolConfig(n_owners=9, n_groups=3, n_rounds=3, local_epochs=1, learning_rate=2.0),
    )
    scheduler = RoundScheduler(protocol, Scenario(spec))
    scheduler.run()
    return protocol, {ctx.round_number: ctx.local_models for ctx in scheduler.contexts}


@pytest.mark.parametrize("churn", [False, True], ids=["fixed", "churn"])
def test_only_whole_group_sums_decode_from_the_block_bodies(owner_data, churn):
    _, owners = owner_data
    spec = RunSpec(joins=(Join(owners[9], 1),), leaves=(Leave(owners[4].owner_id, 2),)) if churn else RunSpec()
    protocol, local_models = _run(owner_data, spec)
    chain = protocol.participants[protocol.owner_ids[0]].node.chain
    codec = protocol.participants[protocol.owner_ids[0]].codec
    payloads = {
        (int(tx.args["round_number"]), tx.sender): tx.args["payload"]
        for block in chain.blocks
        for tx in block.transactions
        if tx.method == "submit_masked_update"
    }

    cohorts = []
    for round_number, models in local_models.items():
        record = chain.state.get("fl_training", f"round/{round_number}")
        groups = [tuple(group) for group in record["groups"]]
        cohort = sorted(owner for group in groups for owner in group)
        cohorts.append(len(cohort))
        plain = {owner: codec.encode(models[owner].to_vector()) for owner in cohort}
        for group, group_model in zip(groups, record["group_models"]):
            masked_sum = codec.sum_encoded(np.stack([payloads[round_number, o] for o in group]))
            assert np.array_equal(masked_sum, codec.sum_encoded(np.stack([plain[o] for o in group])))
            decoded = codec.decode_sum(masked_sum, n_summands=len(group)) / float(len(group))
            assert np.array_equal(decoded, group_model)
        # Every other non-empty set of owners: no coordinate of its decoded
        # masked sum comes within 1.0 of its plaintext sum.
        for size in range(1, len(cohort) + 1):
            for owners_set in itertools.combinations(cohort, size):
                if sorted(o for group in groups if set(group) <= set(owners_set) for o in group) == list(owners_set):
                    continue  # a union of whole groups
                masked = codec.sum_encoded(np.stack([payloads[round_number, o] for o in owners_set]))
                truth = codec.sum_encoded(np.stack([plain[o] for o in owners_set]))
                gap = codec.decode_sum(masked, n_summands=size) - codec.decode_sum(truth, n_summands=size)
                assert np.abs(gap).min() > 1.0, (round_number, owners_set)
    assert cohorts == ([9, 10, 9] if churn else [9, 9, 9])
