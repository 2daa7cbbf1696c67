"""Plain (serverless-free) federated training loop.

This is the *unmasked* FedAvg reference: clients train locally, the trainer
averages their models, repeats.  The blockchain protocol in
:mod:`repro.core.protocol` produces exactly the same global model (up to
fixed-point quantization), which the integration tests assert — that equality
is the correctness anchor for the secure-aggregation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import RoundError, ValidationError
from repro.fl.client import DataOwner, LocalUpdate
from repro.fl.logistic_regression import LogisticRegressionModel
from repro.fl.model import ModelParameters


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters shared by all federated training paths.

    Attributes:
        n_rounds: number of global FedAvg rounds.
        local_epochs: local gradient-descent epochs per round.
        learning_rate: local learning rate.
        l2: L2 regularization strength.
        batch_size: local mini-batch size (None = full batch).
    """

    n_rounds: int = 10
    local_epochs: int = 1
    learning_rate: float = 0.1
    l2: float = 1e-4
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.n_rounds < 1:
            raise ValidationError("n_rounds must be positive")
        if self.local_epochs < 1:
            raise ValidationError("local_epochs must be positive")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")


@dataclass
class RoundRecord:
    """What happened in one federated round (for reporting and tests)."""

    round_number: int
    global_parameters: ModelParameters
    updates: list[LocalUpdate] = field(default_factory=list)
    eval_metrics: dict[str, float] = field(default_factory=dict)


class FederatedTrainer:
    """Coordinates plain FedAvg over a set of :class:`DataOwner` clients."""

    def __init__(
        self,
        owners: list[DataOwner],
        n_features: int,
        n_classes: int,
        config: TrainingConfig | None = None,
    ) -> None:
        if not owners:
            raise ValidationError("at least one data owner is required")
        owner_ids = [owner.owner_id for owner in owners]
        if len(set(owner_ids)) != len(owner_ids):
            raise ValidationError("owner ids must be unique")
        self.owners = list(owners)
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.config = config or TrainingConfig()
        self.history: list[RoundRecord] = []

    def initial_parameters(self) -> ModelParameters:
        """The zero-initialized global model every path starts from."""
        model = LogisticRegressionModel(self.n_features, self.n_classes, l2=self.config.l2)
        return model.parameters

    def run_round(self, global_parameters: ModelParameters, round_number: int) -> RoundRecord:
        """Run one FedAvg round and return its record.

        The paper splits the data uniformly, so FedAvg's sample weights are
        equal and the new global model is the plain mean of the owners' models.
        """
        updates = [owner.local_train(global_parameters, round_number) for owner in self.owners]
        if not updates:
            raise RoundError(f"round {round_number} produced no updates")
        new_global = ModelParameters.mean([update.parameters for update in updates])
        return RoundRecord(round_number=round_number, global_parameters=new_global, updates=updates)

    def train(
        self,
        test_features: np.ndarray | None = None,
        test_labels: np.ndarray | None = None,
    ) -> ModelParameters:
        """Run the configured number of rounds and return the final global model."""
        global_parameters = self.initial_parameters()
        self.history = []
        for round_number in range(self.config.n_rounds):
            record = self.run_round(global_parameters, round_number)
            global_parameters = record.global_parameters
            if test_features is not None and test_labels is not None:
                model = LogisticRegressionModel(self.n_features, self.n_classes, l2=self.config.l2)
                model.set_parameters(global_parameters)
                record.eval_metrics = model.evaluate(test_features, test_labels)
            self.history.append(record)
        return global_parameters
