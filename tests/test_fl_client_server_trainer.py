"""Tests for data owners, the centralized trainer, and the FedAvg loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.fl.client import DataOwner
from repro.fl.logistic_regression import LogisticRegressionModel
from repro.fl.server import CentralizedTrainer
from repro.fl.trainer import FederatedTrainer, TrainingConfig


@pytest.fixture(scope="module")
def owner_clients(dataset, owners):
    return [
        DataOwner(o.owner_id, o.features, o.labels, dataset.n_classes, local_epochs=5, learning_rate=2.0)
        for o in owners
    ]


def _accuracy(parameters, features, labels, n_classes):
    model = LogisticRegressionModel(features.shape[1], n_classes)
    model.set_parameters(parameters)
    return model.evaluate(features, labels)["accuracy"]


class TestDataOwner:
    def test_local_train_returns_update_with_metadata(self, dataset, owner_clients):
        client = owner_clients[0]
        template = LogisticRegressionModel(dataset.n_features, dataset.n_classes)
        update = client.local_train(template.parameters, round_number=0)
        assert update.owner_id == client.owner_id
        assert update.round_number == 0
        assert update.n_samples == client.n_samples
        assert update.parameters.dimension == template.parameters.dimension

    def test_local_training_improves_local_accuracy(self, dataset, owner_clients):
        client = owner_clients[0]
        template = LogisticRegressionModel(dataset.n_features, dataset.n_classes)
        before = _accuracy(template.parameters, client.features, client.labels, dataset.n_classes)
        update = client.local_train(template.parameters, round_number=0)
        after = _accuracy(update.parameters, client.features, client.labels, dataset.n_classes)
        assert after > before

    def test_local_training_is_deterministic(self, dataset, owner_clients):
        client = owner_clients[0]
        template = LogisticRegressionModel(dataset.n_features, dataset.n_classes)
        a = client.local_train(template.parameters, round_number=1)
        b = client.local_train(template.parameters, round_number=1)
        assert np.allclose(a.parameters.to_vector(), b.parameters.to_vector(), atol=1e-9)

    def test_round_number_changes_minibatch_order_only(self, dataset, owners):
        data = owners[0]
        client = DataOwner(
            data.owner_id, data.features, data.labels, dataset.n_classes,
            local_epochs=2, learning_rate=1.0, batch_size=16,
        )
        template = LogisticRegressionModel(dataset.n_features, dataset.n_classes)
        a = client.local_train(template.parameters, round_number=0)
        b = client.local_train(template.parameters, round_number=1)
        assert not np.allclose(a.parameters.to_vector(), b.parameters.to_vector(), atol=1e-9)

    def test_rejects_empty_dataset(self, dataset):
        with pytest.raises(ValidationError):
            DataOwner("empty", np.zeros((0, dataset.n_features)), np.zeros(0), dataset.n_classes)

    def test_rejects_mismatched_features_labels(self, dataset):
        with pytest.raises(ValidationError):
            DataOwner("bad", np.zeros((5, dataset.n_features)), np.zeros(4), dataset.n_classes)


class TestCentralizedTrainer:
    def test_training_reaches_reasonable_accuracy(self, dataset):
        trainer = CentralizedTrainer(dataset.n_features, dataset.n_classes, epochs=60, learning_rate=2.0)
        params = trainer.train(dataset.train_features, dataset.train_labels)
        assert _accuracy(params, dataset.test_features, dataset.test_labels, dataset.n_classes) > 0.7

    def test_coalition_training_pools_data(self, dataset, owners):
        trainer = CentralizedTrainer(dataset.n_features, dataset.n_classes, epochs=20, learning_rate=2.0)
        owner_features = {o.owner_id: o.features for o in owners}
        owner_labels = {o.owner_id: o.labels for o in owners}
        pair = tuple(sorted(owner_features)[:2])
        params = trainer.train_on_coalition(owner_features, owner_labels, pair)
        assert params.dimension == LogisticRegressionModel(dataset.n_features, dataset.n_classes).parameters.dimension

    def test_coalition_order_does_not_matter(self, dataset, owners):
        trainer = CentralizedTrainer(dataset.n_features, dataset.n_classes, epochs=10, learning_rate=2.0)
        owner_features = {o.owner_id: o.features for o in owners}
        owner_labels = {o.owner_id: o.labels for o in owners}
        ids = sorted(owner_features)[:3]
        forward = trainer.train_on_coalition(owner_features, owner_labels, tuple(ids))
        backward = trainer.train_on_coalition(owner_features, owner_labels, tuple(reversed(ids)))
        assert np.allclose(forward.to_vector(), backward.to_vector(), atol=1e-9)

    def test_unknown_coalition_member_rejected(self, dataset, owners):
        trainer = CentralizedTrainer(dataset.n_features, dataset.n_classes)
        owner_features = {o.owner_id: o.features for o in owners}
        owner_labels = {o.owner_id: o.labels for o in owners}
        with pytest.raises(ValidationError):
            trainer.train_on_coalition(owner_features, owner_labels, ("ghost",))

    def test_empty_coalition_rejected(self, dataset, owners):
        trainer = CentralizedTrainer(dataset.n_features, dataset.n_classes)
        owner_features = {o.owner_id: o.features for o in owners}
        owner_labels = {o.owner_id: o.labels for o in owners}
        with pytest.raises(ValidationError):
            trainer.train_on_coalition(owner_features, owner_labels, ())


class TestFederatedTrainer:
    def test_round_record_contains_all_updates(self, dataset, owner_clients):
        trainer = FederatedTrainer(owner_clients, dataset.n_features, dataset.n_classes)
        record = trainer.run_round(trainer.initial_parameters(), 0)
        assert len(record.updates) == len(owner_clients)

    def test_global_model_is_average_of_locals(self, dataset, owner_clients):
        trainer = FederatedTrainer(owner_clients, dataset.n_features, dataset.n_classes)
        record = trainer.run_round(trainer.initial_parameters(), 0)
        expected = np.mean([update.parameters.to_vector() for update in record.updates], axis=0)
        assert np.allclose(record.global_parameters.to_vector(), expected, atol=1e-9)

    def test_training_improves_test_accuracy(self, dataset, owner_clients):
        config = TrainingConfig(n_rounds=3, local_epochs=5, learning_rate=2.0)
        trainer = FederatedTrainer(owner_clients, dataset.n_features, dataset.n_classes, config)
        final = trainer.train(dataset.test_features, dataset.test_labels)
        first_round_acc = trainer.history[0].eval_metrics["accuracy"]
        last_round_acc = trainer.history[-1].eval_metrics["accuracy"]
        assert last_round_acc >= first_round_acc
        assert last_round_acc > 0.5
        assert final.dimension == trainer.initial_parameters().dimension

    def test_history_has_one_record_per_round(self, dataset, owner_clients):
        config = TrainingConfig(n_rounds=2, local_epochs=2, learning_rate=1.0)
        trainer = FederatedTrainer(owner_clients, dataset.n_features, dataset.n_classes, config)
        trainer.train()
        assert len(trainer.history) == 2

    def test_rejects_duplicate_owner_ids(self, dataset, owner_clients):
        with pytest.raises(ValidationError):
            FederatedTrainer(owner_clients + [owner_clients[0]], dataset.n_features, dataset.n_classes)

    def test_rejects_empty_owner_list(self, dataset):
        with pytest.raises(ValidationError):
            FederatedTrainer([], dataset.n_features, dataset.n_classes)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainingConfig(n_rounds=0)
        with pytest.raises(ValidationError):
            TrainingConfig(learning_rate=0)
        with pytest.raises(ValidationError):
            TrainingConfig(local_epochs=0)
