"""Dynamic membership: owners join and leave the cohort on chain, mid-run.

The registry contract models membership as *cohort epochs*: a
``request_join`` / ``request_leave`` transaction schedules a change that takes
effect at the next round boundary, and every miner derives the active cohort
of any round purely from chain state.  This example runs the acceptance
scenario of the feature:

1. four genesis owners set up the protocol for 5 rounds;
2. ``owner-4`` broadcasts a ``request_join`` in round 1's block and enters the
   cohort at round 2 (its Diffie–Hellman key is registered on chain, so every
   peer re-derives pairwise masks against it before its first masked update);
3. ``owner-1`` broadcasts a ``request_leave`` in round 3's block and exits at
   round 4 (it keeps mining — membership governs the training cohort, not the
   replica set);
4. settlement happens *per epoch*: the reward pool splits across the three
   cohort epochs by Shapley-value mass, so the joiner earns nothing for the
   rounds before it arrived and the leaver nothing for the round it sat out;
5. the transparency audit re-derives every cohort, contribution, and epoch
   settlement from raw chain data, and a fresh miner replay reproduces the
   chain byte for byte.

Run with:  python examples/dynamic_membership.py
"""

from __future__ import annotations

from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.pipeline import ChurnScenario, RoundScheduler
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets


def main() -> None:
    # 1. Five dataset shards: four genesis owners plus one later joiner.
    dataset, owners = make_owner_datasets(n_owners=5, sigma=0.15, n_samples=1200, seed=17)
    genesis, joiner = owners[:4], owners[4]
    leaver = sorted(o.owner_id for o in genesis)[1]
    print(f"genesis cohort: {', '.join(o.owner_id for o in genesis)}")
    print(f"joining at round 2: {joiner.owner_id};  leaving at round 4: {leaver}")

    config = ProtocolConfig(
        n_owners=len(genesis),
        n_groups=2,
        n_rounds=5,
        local_epochs=3,
        learning_rate=2.0,
        reward_pool=1000.0,
        permutation_seed=13,
    )
    protocol = BlockchainFLProtocol(
        owner_data=genesis,
        validation_features=dataset.test_features,
        validation_labels=dataset.test_labels,
        n_classes=dataset.n_classes,
        config=config,
    )

    # 2-3. The churn scenario emits the actual registry transactions.
    scenario = ChurnScenario(joins=[(joiner, 2)], leaves=[(leaver, 4)])
    result = RoundScheduler(protocol, scenario).run()

    print("\nper-round cohorts (derived from chain state by every miner):")
    for record in result.rounds:
        cohort = sorted({owner for group in record.groups for owner in group})
        print(f"  round {record.round_number}: {', '.join(cohort)}  "
              f"(global utility {record.global_utility:.4f})")

    # 4. Per-epoch settlement: pool split by each epoch's SV mass.
    print("\ncohort epochs and settlement:")
    for epoch in result.epoch_settlements:
        print(f"  epoch {epoch['epoch']} (rounds {epoch['start']}..{epoch['end'] - 1}): "
              f"{len(epoch['cohort'])} owners, SV mass {epoch['sv_mass']:.4f}, "
              f"pool {epoch['reward_pool']:.2f}")
        for owner, payout in sorted(epoch["payouts"].items()):
            print(f"    {owner}: {payout:.2f}")

    print("\naccumulated contributions and final balances:")
    for owner in sorted(result.total_contributions):
        print(f"  {owner}: v = {result.total_contributions[owner]:+.4f}, "
              f"reward = {result.reward_balances.get(owner, 0.0):.2f}")

    # 5. Transparency: audit epoch by epoch, then replay the chain from genesis.
    chain = protocol.participants[protocol.owner_ids[0]].node.chain
    report = audit_chain(chain, dataset.test_features, dataset.test_labels, dataset.n_classes)
    print(f"\ntransparency audit: {'PASSED' if report.passed else 'FAILED'} "
          f"(rounds {report.rounds_checked}, epochs {report.epochs_checked})")
    replayed = chain.replay()
    identical = replayed.state.state_root() == chain.state.state_root()
    print(f"miner replay reproduces the chain byte for byte: {identical}")
    if not report.passed or not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
