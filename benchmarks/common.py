"""Shared workload builders for the benchmark harness.

Every benchmark reproduces one table or figure of the paper's evaluation
(Section V) or one of the ablations listed in DESIGN.md.  The workloads follow
the paper's setup — 9 data owners, 8:2 train/test split, per-owner Gaussian
noise ``N(0, (σ·i)²)``, logistic regression + FedAvg — but on a reduced sample
count and epoch budget so the whole suite completes in minutes on a laptop.
Reduced scale changes absolute numbers, not the shapes the paper reports.

σ values: the paper reports σ on the raw 0..16 pixel scale; our features are
normalized to [0, 1], so the sweep below uses the equivalent σ/16-style values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.loader import Dataset, OwnerDataset, make_owner_datasets
from repro.fl.client import DataOwner
from repro.fl.server import CentralizedTrainer
from repro.fl.trainer import FederatedTrainer, TrainingConfig
from repro.shapley.backend import RetrainUtility
from repro.shapley.group import GroupShapleyResult, accumulate_user_values, group_shapley_round
from repro.shapley.native import native_shapley
from repro.shapley.utility import AccuracyUtility, CachedUtility

# Paper setup (Section V.A), reduced for benchmark runtime.
N_OWNERS = 9
N_SAMPLES = 1200
SEED = 7
PERMUTATION_SEED = 13
SIGMAS = (0.0, 0.05, 0.1, 0.2)
RETRAIN_EPOCHS = 30
LOCAL_EPOCHS = 10
LEARNING_RATE = 2.0
FL_ROUNDS = 2
GROUP_COUNTS = tuple(range(2, N_OWNERS + 1))


@dataclass
class PaperWorkload:
    """Everything one σ setting needs: data, owners, scorer, and trainers."""

    sigma: float
    dataset: Dataset
    owners: list[OwnerDataset]
    scorer: AccuracyUtility

    @property
    def owner_ids(self) -> list[str]:
        return [owner.owner_id for owner in self.owners]

    def owner_features(self) -> dict[str, np.ndarray]:
        return {owner.owner_id: owner.features for owner in self.owners}

    def owner_labels(self) -> dict[str, np.ndarray]:
        return {owner.owner_id: owner.labels for owner in self.owners}


def build_workload(sigma: float, n_owners: int = N_OWNERS, n_samples: int = N_SAMPLES) -> PaperWorkload:
    """The Section V.A setup for one σ value."""
    dataset, owners = make_owner_datasets(
        n_owners=n_owners, sigma=sigma, n_samples=n_samples, seed=SEED, normalized=True
    )
    scorer = AccuracyUtility(dataset.test_features, dataset.test_labels, dataset.n_classes)
    return PaperWorkload(sigma=sigma, dataset=dataset, owners=owners, scorer=scorer)


def ground_truth_shapley(
    workload: PaperWorkload, epochs: int = RETRAIN_EPOCHS, n_workers: int | None = None
) -> dict[str, float]:
    """Fig. 1 ground truth: native SV over 2^n retrained data-coalition models.

    ``n_workers > 1`` retrains the coalitions on a process pool (identical
    values — the parallel backend is parity-pinned to the serial path).
    """
    trainer = CentralizedTrainer(
        workload.dataset.n_features,
        workload.dataset.n_classes,
        epochs=epochs,
        learning_rate=LEARNING_RATE,
    )
    utility = CachedUtility(
        RetrainUtility(
            workload.owner_features(), workload.owner_labels(), workload.scorer,
            trainer=trainer, n_workers=n_workers,
        )
    )
    return native_shapley(workload.owner_ids, utility)


def train_local_models(workload: PaperWorkload, round_number: int, start_parameters=None):
    """One FedAvg round of local training; returns (local models, global model)."""
    clients = [
        DataOwner(
            owner.owner_id, owner.features, owner.labels, workload.dataset.n_classes,
            local_epochs=LOCAL_EPOCHS, learning_rate=LEARNING_RATE,
        )
        for owner in workload.owners
    ]
    trainer = FederatedTrainer(
        clients,
        workload.dataset.n_features,
        workload.dataset.n_classes,
        TrainingConfig(n_rounds=1, local_epochs=LOCAL_EPOCHS, learning_rate=LEARNING_RATE),
    )
    start = trainer.initial_parameters() if start_parameters is None else start_parameters
    record = trainer.run_round(start, round_number)
    local_models = {update.owner_id: update.parameters for update in record.updates}
    return local_models, record.global_parameters


def group_shapley_over_rounds(
    workload: PaperWorkload, m: int, n_rounds: int = FL_ROUNDS
) -> tuple[dict[str, float], list[GroupShapleyResult]]:
    """GroupSV accumulated over ``n_rounds`` federated rounds (v_i = Σ_r v_i^r)."""
    global_parameters = None
    results = []
    for round_number in range(n_rounds):
        local_models, _ = train_local_models(workload, round_number, global_parameters)
        result = group_shapley_round(local_models, m, PERMUTATION_SEED, round_number, workload.scorer)
        results.append(result)
        global_parameters = result.global_model
    return accumulate_user_values(results), results


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a plain-text table (the benches print what the paper tabulates)."""
    widths = [max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) for i in range(len(headers))]
    lines = [" | ".join(str(headers[i]).rjust(widths[i]) for i in range(len(headers)))]
    lines.append("-+-".join("-" * width for width in widths))
    for row in rows:
        lines.append(" | ".join(str(row[i]).rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
