"""Centralized training baseline.

Ground-truth Shapley values (Fig. 1) are computed by training one model per
data coalition on the *pooled* data of that coalition, exactly as a trusted
central server would.  :class:`CentralizedTrainer` provides that reference
path; it deliberately shares the model and hyper-parameters with the federated
path so the two are comparable.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.fl.logistic_regression import LogisticRegressionModel
from repro.fl.model import ModelParameters


class CentralizedTrainer:
    """Trains one logistic-regression model on pooled data."""

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        epochs: int = 30,
        learning_rate: float = 0.1,
        l2: float = 1e-4,
        batch_size: int | None = None,
    ) -> None:
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.l2 = float(l2)
        self.batch_size = batch_size

    def train(self, features: np.ndarray, labels: np.ndarray, seed: int = 0) -> ModelParameters:
        """Train from scratch on the given pooled data and return the parameters."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels).ravel().astype(int)
        if features.shape[0] == 0:
            raise ValidationError("cannot train on an empty dataset")
        model = LogisticRegressionModel(self.n_features, self.n_classes, l2=self.l2)
        model.fit(
            features,
            labels,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            shuffle_seed=seed,
        )
        return model.parameters

    def train_on_coalition(
        self,
        owner_features: dict[str, np.ndarray],
        owner_labels: dict[str, np.ndarray],
        coalition: tuple[str, ...],
        seed: int = 0,
    ) -> ModelParameters:
        """Train on the pooled data of the owners in ``coalition``.

        Owner data is concatenated in sorted owner order so the result does not
        depend on coalition enumeration order.
        """
        members = sorted(coalition)
        missing = [owner for owner in members if owner not in owner_features]
        if missing:
            raise ValidationError(f"coalition references unknown owners: {missing}")
        if not members:
            raise ValidationError("coalition must contain at least one owner")
        features = np.concatenate([owner_features[owner] for owner in members], axis=0)
        labels = np.concatenate([owner_labels[owner] for owner in members], axis=0)
        return self.train(features, labels, seed=seed)
