"""Federated-learning substrate: models, the optimizer, FedAvg, clients, trainers.

The paper trains a multinomial logistic-regression model with gradient descent
locally and FedAvg globally.  This package provides those pieces plus the
reference *centralized* trainer used to establish ground-truth Shapley values,
and data-partitioning helpers for simulating multiple data owners.
"""
