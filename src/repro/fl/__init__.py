"""Federated-learning substrate: models, the optimizer, FedAvg, clients, trainers.

The paper trains a multinomial logistic-regression model with gradient descent
locally and FedAvg globally.  This package provides those pieces plus the
reference *centralized* trainer used to establish ground-truth Shapley values,
and data-partitioning helpers for simulating multiple data owners.
"""

from repro.fl.client import DataOwner, LocalUpdate
from repro.fl.logistic_regression import LogisticRegressionModel
from repro.fl.metrics import accuracy, cross_entropy
from repro.fl.model import ModelParameters
from repro.fl.optimizer import SgdOptimizer
from repro.fl.partition import dirichlet_partition, uniform_partition
from repro.fl.server import CentralizedTrainer
from repro.fl.trainer import FederatedTrainer, TrainingConfig

__all__ = [
    "DataOwner",
    "LocalUpdate",
    "LogisticRegressionModel",
    "accuracy",
    "cross_entropy",
    "ModelParameters",
    "SgdOptimizer",
    "dirichlet_partition",
    "uniform_partition",
    "CentralizedTrainer",
    "FederatedTrainer",
    "TrainingConfig",
]
