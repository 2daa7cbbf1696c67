"""Data owners: the FL clients holding local data and producing local updates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.fl.logistic_regression import LogisticRegressionModel
from repro.fl.model import ModelParameters
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class LocalUpdate:
    """The result of one local training pass.

    Attributes:
        owner_id: identity of the data owner.
        round_number: federated round the update belongs to.
        parameters: the owner's *post-training* local model (the paper masks and
            aggregates local models, not deltas).
        n_samples: number of local training samples (FedAvg weighting).
        train_metrics: local training metrics for reporting.
    """

    owner_id: str
    round_number: int
    parameters: ModelParameters
    n_samples: int
    train_metrics: dict[str, float]


class DataOwner:
    """A cross-silo data owner: local dataset plus local training logic."""

    def __init__(
        self,
        owner_id: str,
        features: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        local_epochs: int = 1,
        learning_rate: float = 0.1,
        batch_size: int | None = None,
        l2: float = 1e-4,
    ) -> None:
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels).ravel().astype(int)
        if features.ndim != 2:
            raise ValidationError("features must be a 2-D array")
        if features.shape[0] != labels.size:
            raise ValidationError("features and labels disagree on sample count")
        if features.shape[0] == 0:
            raise ValidationError(f"data owner {owner_id!r} has no samples")
        self.owner_id = owner_id
        self.features = features
        self.labels = labels
        self.n_classes = int(n_classes)
        self.local_epochs = int(local_epochs)
        self.learning_rate = float(learning_rate)
        self.batch_size = batch_size
        self.l2 = float(l2)

    @property
    def n_samples(self) -> int:
        """Number of local training samples."""
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        """Input dimensionality."""
        return int(self.features.shape[1])

    def local_train(self, global_parameters: ModelParameters, round_number: int) -> LocalUpdate:
        """Run local epochs starting from the global model and return the local model."""
        model = LogisticRegressionModel(self.n_features, self.n_classes, l2=self.l2)
        model.set_parameters(global_parameters)
        metrics = model.fit(
            self.features,
            self.labels,
            epochs=self.local_epochs,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            shuffle_seed=derive_seed("local-shuffle", self.owner_id, round_number),
        )
        return LocalUpdate(
            owner_id=self.owner_id,
            round_number=round_number,
            parameters=model.parameters,
            n_samples=self.n_samples,
            train_metrics=metrics,
        )
