"""The group-count trade-off: privacy vs contribution resolution vs cost.

Section IV.B of the paper discusses how the number of groups m tunes the
framework between two extremes:

* m = n — every owner forms its own "group"; contributions have per-owner
  resolution but each owner's exact model is revealed on chain;
* m = 1 — one big group; only the fully aggregated model is revealed (best
  privacy) but every owner receives the same contribution (no resolution).

This example quantifies that trade-off on one round of local models: for every
m it reports the (n/m)-anonymity position, the cosine similarity of GroupSV to
the native (ground-truth-style) SV over the same local models, and the number
of coalition evaluations the on-chain contract would have to perform.

Run with:  python examples/privacy_resolution_tradeoff.py
"""

from __future__ import annotations

from repro.analysis.tradeoff import sweep_group_counts
from repro.datasets.loader import make_owner_datasets
from repro.fl.client import DataOwner
from repro.fl.trainer import FederatedTrainer, TrainingConfig
from repro.shapley.native import native_shapley
from repro.shapley.utility import AccuracyUtility, CoalitionModelUtility


def main() -> None:
    dataset, owners = make_owner_datasets(n_owners=9, sigma=0.15, n_samples=2000, seed=9)
    scorer = AccuracyUtility(dataset.test_features, dataset.test_labels, dataset.n_classes)

    # One round of local training gives the local models GroupSV works from.
    clients = [
        DataOwner(o.owner_id, o.features, o.labels, dataset.n_classes, local_epochs=10, learning_rate=2.0)
        for o in owners
    ]
    trainer = FederatedTrainer(
        clients, dataset.n_features, dataset.n_classes,
        TrainingConfig(n_rounds=1, local_epochs=10, learning_rate=2.0),
    )
    record = trainer.run_round(trainer.initial_parameters(), 0)
    local_models = {update.owner_id: update.parameters for update in record.updates}

    # Reference: native SV over the same local models (model-aggregation utility).
    ground_truth = native_shapley(sorted(local_models), CoalitionModelUtility(local_models, scorer))

    points = sweep_group_counts(local_models, ground_truth, scorer, permutation_seed=13)

    header = f"{'m':>3} | {'min anonymity':>13} | {'resolution':>10} | {'cosine sim':>10} | {'rank corr':>9} | {'coalitions':>10} | {'runtime s':>9}"
    print("privacy / resolution / cost trade-off over the group count m")
    print(header)
    print("-" * len(header))
    for point in points:
        print(
            f"{point.n_groups:>3} | {point.min_anonymity:>13} | {point.resolution:>10.2f} | "
            f"{point.cosine_to_ground_truth:>10.4f} | {point.rank_correlation:>9.4f} | "
            f"{point.coalition_evaluations:>10} | {point.runtime_seconds:>9.3f}"
        )

    print("\nreading the table:")
    print("  - smaller m  -> larger anonymity sets (more privacy), coarser contributions")
    print("  - larger m   -> per-owner resolution, but each owner's model average is more exposed")
    print("  - coalition evaluations grow as 2^m, which is the on-chain cost driver")


if __name__ == "__main__":
    main()
