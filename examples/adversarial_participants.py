"""Adversarial participants and what GroupSV does to their contributions.

Future work item 2 of the paper asks how adversarial participants affect the
Shapley-value calculation.  This example runs the full on-chain protocol three
times on identical data:

* an all-honest baseline;
* a run where one owner free-rides (submits pure noise instead of training);
* a run where one owner mounts a scaling (model-boosting) attack.

It then compares the adversary's evaluated contribution and token payout with
its honest counterfactual, and shows the collateral effect on the global model.
It also demonstrates two defence layers:

* the *pipeline* defence — a submission that lies about its group assignment
  is rejected at gossip-level validation before it can occupy a block slot
  (scenario API: :class:`~repro.core.pipeline.AdversarialSubmissionScenario`);
* the *consensus* defence — a Byzantine miner that votes to reject every
  block cannot stall the protocol while it is a minority.

Run with:  python examples/adversarial_participants.py
"""

from __future__ import annotations

from repro.core.adversary import AdversaryBehavior
from repro.core.config import ProtocolConfig
from repro.core.pipeline import AdversarialSubmissionScenario, RoundScheduler
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets


def run_protocol(owners, dataset, adversaries=None, byzantine=(), scenario=None):
    """One pipeline run with optional adversaries, Byzantine miners, or a scenario."""
    config = ProtocolConfig(
        n_owners=len(owners),
        n_groups=len(owners),  # singleton groups: per-owner resolution, worst case for an attacker
        n_rounds=2,
        local_epochs=5,
        learning_rate=2.0,
        reward_pool=1000.0,
        byzantine_miners=tuple(byzantine),
    )
    protocol = BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config,
        adversaries=adversaries,
    )
    scheduler = RoundScheduler(protocol, scenario)
    return scheduler.run(), scheduler


def main() -> None:
    dataset, owners = make_owner_datasets(n_owners=5, sigma=0.1, n_samples=1200, seed=17)
    attacker = owners[1].owner_id
    print(f"owners: {[o.owner_id for o in owners]}; the adversary in tampered runs is {attacker}\n")

    honest, _ = run_protocol(owners, dataset)
    free_rider, _ = run_protocol(
        owners, dataset, adversaries={attacker: AdversaryBehavior(kind="noise", magnitude=3.0, seed=5)}
    )
    booster, _ = run_protocol(
        owners, dataset, adversaries={attacker: AdversaryBehavior(kind="scale", magnitude=20.0)}
    )

    def summarize(label, result):
        print(f"--- {label} ---")
        print(f"  final global utility: {result.rounds[-1].global_utility:.4f}")
        for owner_id in sorted(result.total_contributions):
            marker = "  <-- adversary" if owner_id == attacker and label != "all honest" else ""
            print(f"  {owner_id}: contribution = {result.total_contributions[owner_id]:+.4f}, "
                  f"reward = {result.reward_balances[owner_id]:7.2f}{marker}")
        print()

    summarize("all honest", honest)
    summarize("free-rider (noise update)", free_rider)
    summarize("model-boosting (x20 scale)", booster)

    print("adversary's contribution, honest vs attacks:")
    print(f"  honest       : {honest.total_contributions[attacker]:+.4f}")
    print(f"  free-rider   : {free_rider.total_contributions[attacker]:+.4f}")
    print(f"  booster      : {booster.total_contributions[attacker]:+.4f}")
    print("\ncollateral damage to the shared model (final utility):")
    print(f"  honest       : {honest.rounds[-1].global_utility:.4f}")
    print(f"  free-rider   : {free_rider.rounds[-1].global_utility:.4f}")
    print(f"  booster      : {booster.rounds[-1].global_utility:.4f}")

    # Pipeline-layer defence: a submission claiming the wrong group is dropped
    # by gossip validation before it reaches a block; the attacker, unable to
    # place the lie, falls back to an honest submission — the chain ends up
    # identical to an all-honest run and the rejection is recorded off chain.
    claim_run, scheduler = run_protocol(
        owners, dataset, scenario=AdversarialSubmissionScenario(attacker)
    )
    rejections = [r for ctx in scheduler.contexts for r in ctx.rejections]
    print("\ngroup-claim attack: "
          f"{len(rejections)} tampered submission(s) rejected at gossip validation")
    for rejection in rejections:
        print(f"  round {rejection.round_number}: {rejection.reason}")
    same = claim_run.total_contributions == honest.total_contributions
    print(f"  contributions identical to the all-honest run: {same}")

    # Consensus-layer defence: a minority Byzantine miner cannot stall the chain.
    byzantine_run, _ = run_protocol(owners, dataset, byzantine=[owners[-1].owner_id])
    verdicts = [record.consensus.accepted for record in byzantine_run.rounds]
    rejections = [record.consensus.reject_count for record in byzantine_run.rounds]
    print("\nByzantine miner run: blocks accepted per round "
          f"{verdicts}, rejecting votes per round {rejections} (protocol still completed)")


if __name__ == "__main__":
    main()
