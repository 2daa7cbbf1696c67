"""Quickstart: run the full blockchain FL + contribution-evaluation protocol.

This walks through the paper's pipeline end to end on a small instance:

1. build the handwritten-digits setup with 5 data owners of decreasing data
   quality (owner-0 clean, owner-4 noisiest);
2. run the blockchain protocol through the staged round pipeline — a
   :class:`~repro.core.pipeline.RoundScheduler` drives
   Setup -> LocalTraining -> Masking/Submission -> SecureAggregation ->
   Evaluation -> BlockProposal per round and a final Settlement, with
   secure-aggregated FedAvg rounds, on-chain GroupSV contribution evaluation,
   and a reward distribution;
3. audit the chain: independently recompute every published contribution from
   raw chain data, which is the transparency guarantee of the framework.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import RoundScheduler
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets


def main() -> None:
    # 1. Data: 5 owners, Gaussian noise N(0, (sigma * rank)^2) degrades quality.
    dataset, owners = make_owner_datasets(n_owners=5, sigma=0.15, n_samples=1500, seed=7)
    print(f"dataset: {dataset.n_train} train / {dataset.n_test} test samples, "
          f"{dataset.n_features} features, {dataset.n_classes} classes")
    for owner in owners:
        print(f"  {owner.owner_id}: {owner.n_samples} samples, noise sigma = {owner.noise_sigma:.2f}")

    # 2. Protocol: 3 groups, 3 rounds, every owner is both trainer and miner.
    config = ProtocolConfig(
        n_owners=len(owners),
        n_groups=3,
        n_rounds=3,
        local_epochs=5,
        learning_rate=2.0,
        reward_pool=1000.0,
    )
    protocol = BlockchainFLProtocol(
        owner_data=owners,
        validation_features=dataset.test_features,
        validation_labels=dataset.test_labels,
        n_classes=dataset.n_classes,
        config=config,
    )
    # protocol.run() would do the same; the explicit scheduler keeps the
    # per-round contexts around and accepts Scenario hooks (dropout,
    # stragglers, adversary injection, late joins — see repro.core.pipeline).
    scheduler = RoundScheduler(protocol)
    result = scheduler.run()
    print(f"\npipeline stages per round: {[stage.name for stage in scheduler.round_stages]}")

    print("\n--- per-round global model utility (test accuracy) ---")
    for record in result.rounds:
        print(f"  round {record.round_number}: utility = {record.global_utility:.4f}, "
              f"groups = {[list(g) for g in record.groups]}")

    print("\n--- accumulated contributions (GroupSV) and rewards ---")
    ranked = sorted(result.total_contributions, key=result.total_contributions.get, reverse=True)
    for owner_id in ranked:
        print(f"  {owner_id}: contribution = {result.total_contributions[owner_id]:+.4f}, "
              f"reward = {result.reward_balances[owner_id]:8.2f} tokens")

    print("\n--- chain statistics ---")
    print(f"  blocks: {result.chain_height}, transactions: {result.total_transactions}, "
          f"abstract gas: {result.total_gas}")
    print(f"  network: {result.network_stats['messages_sent']} messages, "
          f"{result.network_stats['bytes_sent']} bytes")

    # 3. Transparency: anyone holding the chain can re-derive every contribution.
    chain = protocol.participants[protocol.owner_ids[0]].node.chain
    report = audit_chain(chain, dataset.test_features, dataset.test_labels, dataset.n_classes)
    print(f"\naudit passed: {report.passed} (rounds checked: {report.rounds_checked})")


if __name__ == "__main__":
    main()
