"""Cross-silo scenario: competing banks with heterogeneous (non-IID) data.

The paper's motivating setting is cross-silo FL among mutually untrusted
organizations (e.g. banks).  This example stresses two things the quickstart
does not:

* **non-IID data** — each bank's portfolio is skewed toward different classes
  (Dirichlet label partition), on top of a data-quality gradient;
* **reward fairness under heterogeneity** — contributions (and therefore token
  payouts) should reflect both how much signal a bank brings and how redundant
  that signal is with the other banks';
* **operational flakiness** — one bank's gateway drops mid-round and another
  is consistently slow; the staged pipeline absorbs both (scenario hooks +
  the submission barrier) without changing a single committed block.

Run with:  python examples/cross_silo_banks.py
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.pipeline import ComposedScenario, DropoutScenario, RoundScheduler, StragglerScenario
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.digits import load_digits
from repro.datasets.loader import OwnerDataset, train_test_split
from repro.datasets.noise import gaussian_noise
from repro.fl.partition import dirichlet_partition

BANKS = ["bank-alpha", "bank-beta", "bank-gamma", "bank-delta", "bank-epsilon", "bank-zeta"]


def build_bank_datasets(seed: int = 3):
    """Non-IID, quality-skewed per-bank datasets plus a public validation set."""
    features, labels = load_digits(n_samples=2400, seed=seed, normalized=True)
    train_x, train_y, test_x, test_y = train_test_split(features, labels, test_fraction=0.2, seed=seed)

    # Label-skewed split: each bank over-represents a few digit classes.
    parts = dirichlet_partition(train_y, n_owners=len(BANKS), alpha=0.8, seed=seed, min_samples_per_owner=60)

    banks = []
    for rank, (bank, indices) in enumerate(zip(BANKS, parts)):
        bank_features = train_x[indices]
        # Quality gradient: later banks digitized their records more sloppily.
        noise_sigma = 0.08 * rank
        bank_features = gaussian_noise(bank_features, noise_sigma, seed=seed + rank)
        banks.append(
            OwnerDataset(owner_id=bank, features=bank_features, labels=train_y[indices], noise_sigma=noise_sigma)
        )
    return banks, test_x, test_y


def main() -> None:
    banks, test_x, test_y = build_bank_datasets()
    print("bank portfolios (non-IID, quality gradient):")
    for bank in banks:
        class_counts = np.bincount(bank.labels, minlength=10)
        top_classes = np.argsort(class_counts)[::-1][:3]
        print(f"  {bank.owner_id}: {bank.n_samples:4d} records, noise sigma = {bank.noise_sigma:.2f}, "
              f"dominant digits = {list(map(int, top_classes))}")

    config = ProtocolConfig(
        n_owners=len(banks),
        n_groups=3,
        n_rounds=4,
        local_epochs=5,
        learning_rate=2.0,
        reward_pool=10_000.0,
        permutation_seed=41,
    )
    protocol = BlockchainFLProtocol(banks, test_x, test_y, n_classes=10, config=config)
    # Real consortia are operationally messy: bank-gamma's gateway drops out
    # mid-round 1 (and reconnects), bank-zeta's batch jobs are always a tick
    # late.  Submissions only reach the mempool at the block-proposal barrier,
    # so the committed chain is identical to an undisturbed run.
    flaky = ComposedScenario([
        DropoutScenario("bank-gamma", round_number=1, offline_ticks=2),
        StragglerScenario("bank-zeta", delay_ticks=1),
    ])
    scheduler = RoundScheduler(protocol, flaky)
    result = scheduler.run()

    waits = {ctx.round_number: ctx.ticks_waited for ctx in scheduler.contexts}
    print(f"\nconnectivity hiccups absorbed by the pipeline (ticks waited per round): {waits}")

    print("\nfederated model utility per round:")
    for record in result.rounds:
        print(f"  round {record.round_number}: test accuracy = {record.global_utility:.4f}")

    print("\ncontribution ranking and token payouts:")
    ranked = sorted(result.total_contributions, key=result.total_contributions.get, reverse=True)
    for bank_id in ranked:
        sigma = next(b.noise_sigma for b in banks if b.owner_id == bank_id)
        print(f"  {bank_id}: contribution = {result.total_contributions[bank_id]:+.4f}, "
              f"payout = {result.reward_balances[bank_id]:9.2f} tokens  (noise sigma = {sigma:.2f})")

    print("\nper-round contribution series (how the ranking stabilizes):")
    series = result.contributions_per_round()
    for bank_id in ranked:
        values = ", ".join(f"{value:+.4f}" for value in series[bank_id])
        print(f"  {bank_id}: [{values}]")


if __name__ == "__main__":
    main()
