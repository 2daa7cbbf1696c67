"""repro — Transparent Contribution Evaluation for Secure Federated Learning on Blockchain.

A from-scratch reproduction of Ma, Cao & Xiong (ICDE 2021): a blockchain-based
cross-silo federated-learning framework in which model updates are protected by
secure aggregation and each owner's contribution is evaluated transparently on
chain with the Group Shapley Value (GroupSV) protocol.

Public API highlights
---------------------

Every name is imported from the module that defines it; the package
``__init__`` files hold only their docstrings.

Data and FL substrate::

    from repro.datasets.loader import make_owner_datasets
    from repro.fl.client import DataOwner
    from repro.fl.logistic_regression import LogisticRegressionModel
    from repro.fl.trainer import FederatedTrainer

Shapley valuation::

    from repro.shapley.group import group_shapley_round
    from repro.shapley.metrics import cosine_similarity
    from repro.shapley.native import native_shapley

The full on-chain protocol (staged round pipeline + scenario hooks)::

    from repro.core.audit import audit_chain
    from repro.core.config import ProtocolConfig
    from repro.core.pipeline import DropoutScenario, RoundScheduler, Scenario
    from repro.core.protocol import BlockchainFLProtocol

See ``examples/quickstart.py`` for an end-to-end walk-through and
``docs/architecture.md`` for the pipeline/backend design.
"""

__version__ = "1.0.0"
