"""repro — Transparent Contribution Evaluation for Secure Federated Learning on Blockchain.

A from-scratch reproduction of Ma, Cao & Xiong (ICDE 2021): a blockchain-based
cross-silo federated-learning framework in which model updates are protected by
secure aggregation and each owner's contribution is evaluated transparently on
chain with the Group Shapley Value (GroupSV) protocol.

Public API highlights
---------------------

Data and FL substrate::

    from repro.datasets import make_owner_datasets
    from repro.fl import DataOwner, FederatedTrainer, LogisticRegressionModel

Shapley valuation::

    from repro.shapley import native_shapley, group_shapley_round, cosine_similarity

The full on-chain protocol (staged round pipeline + scenario hooks)::

    from repro.core import BlockchainFLProtocol, ProtocolConfig, audit_chain
    from repro.core import RoundScheduler, Scenario, DropoutScenario

See ``examples/quickstart.py`` for an end-to-end walk-through and
``docs/architecture.md`` for the pipeline/backend design.
"""

from repro.core.config import ProtocolConfig
from repro.core.pipeline import RoundContext, RoundScheduler, Scenario
from repro.core.protocol import BlockchainFLProtocol, ProtocolResult
from repro.datasets.loader import Dataset, OwnerDataset, make_owner_datasets
from repro.fl.logistic_regression import LogisticRegressionModel
from repro.fl.model import ModelParameters
from repro.shapley.group import GroupShapleyResult, compute_group_shapley, group_shapley_round
from repro.shapley.metrics import cosine_similarity
from repro.shapley.native import native_shapley
from repro.shapley.utility import AccuracyUtility, CoalitionModelUtility, RetrainUtility

__version__ = "1.0.0"

__all__ = [
    "ProtocolConfig",
    "BlockchainFLProtocol",
    "ProtocolResult",
    "RoundContext",
    "RoundScheduler",
    "Scenario",
    "Dataset",
    "OwnerDataset",
    "make_owner_datasets",
    "LogisticRegressionModel",
    "ModelParameters",
    "GroupShapleyResult",
    "compute_group_shapley",
    "group_shapley_round",
    "cosine_similarity",
    "native_shapley",
    "AccuracyUtility",
    "CoalitionModelUtility",
    "RetrainUtility",
    "__version__",
]
