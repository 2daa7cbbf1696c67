"""Tests for multinomial logistic regression (repro.fl.logistic_regression)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import make_blobs
from repro.exceptions import ModelShapeError, TrainingError, ValidationError
from repro.fl.logistic_regression import LogisticRegressionModel, softmax


@pytest.fixture(scope="module")
def blob_data():
    return make_blobs(n_samples=300, n_features=5, n_classes=3, class_separation=5.0, noise=0.6, seed=2)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        probabilities = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_monotone_in_logits(self):
        probabilities = softmax(np.array([[1.0, 2.0, 3.0]]))
        assert probabilities[0, 2] > probabilities[0, 1] > probabilities[0, 0]

    def test_numerically_stable_for_large_logits(self):
        probabilities = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probabilities).all()
        assert probabilities[0, 0] == pytest.approx(1.0)

    def test_shift_invariance(self):
        logits = np.array([[0.3, -1.2, 2.0]])
        assert np.allclose(softmax(logits), softmax(logits + 100.0))


class TestConstruction:
    def test_zero_initialization_by_default(self):
        model = LogisticRegressionModel(4, 3)
        assert model.parameters.norm() == 0.0

    def test_random_initialization_is_deterministic(self):
        a = LogisticRegressionModel(4, 3, init_scale=0.1, seed=1)
        b = LogisticRegressionModel(4, 3, init_scale=0.1, seed=1)
        assert a.parameters.allclose(b.parameters)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValidationError):
            LogisticRegressionModel(0, 3)
        with pytest.raises(ValidationError):
            LogisticRegressionModel(4, 1)

    def test_rejects_negative_l2(self):
        with pytest.raises(ValidationError):
            LogisticRegressionModel(4, 3, l2=-0.1)

    def test_set_parameters_checks_shapes(self):
        model = LogisticRegressionModel(4, 3)
        other = LogisticRegressionModel(5, 3)
        with pytest.raises(ModelShapeError):
            model.set_parameters(other.parameters)

    def test_set_vector_roundtrip(self):
        model = LogisticRegressionModel(4, 3)
        vector = np.arange(model.parameters.dimension, dtype=np.float64)
        model.set_vector(vector)
        assert np.allclose(model.parameters.to_vector(), vector)


class TestInference:
    def test_predict_proba_shape_and_normalization(self, blob_data):
        features, _ = blob_data
        model = LogisticRegressionModel(5, 3)
        probabilities = model.predict_proba(features[:10])
        assert probabilities.shape == (10, 3)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_zero_model_predicts_uniformly(self):
        model = LogisticRegressionModel(4, 3)
        probabilities = model.predict_proba(np.ones((1, 4)))
        assert np.allclose(probabilities, 1.0 / 3.0)

    def test_single_sample_vector_is_accepted(self):
        model = LogisticRegressionModel(4, 3)
        assert model.predict(np.ones(4)).shape == (1,)

    def test_wrong_feature_count_rejected(self):
        model = LogisticRegressionModel(4, 3)
        with pytest.raises(ModelShapeError):
            model.predict(np.ones((2, 5)))


class TestTraining:
    def test_training_beats_chance_on_separable_data(self, blob_data):
        features, labels = blob_data
        model = LogisticRegressionModel(5, 3)
        metrics = model.fit(features, labels, epochs=100, learning_rate=0.5)
        assert metrics["accuracy"] > 0.9

    def test_loss_decreases_during_training(self, blob_data):
        features, labels = blob_data
        model = LogisticRegressionModel(5, 3)
        initial = model.evaluate(features, labels)["loss"]
        model.fit(features, labels, epochs=20, learning_rate=0.5)
        assert model.evaluate(features, labels)["loss"] < initial

    def test_minibatch_training_also_learns(self, blob_data):
        features, labels = blob_data
        model = LogisticRegressionModel(5, 3)
        metrics = model.fit(features, labels, epochs=10, learning_rate=0.3, batch_size=32)
        assert metrics["accuracy"] > 0.8

    def test_training_is_deterministic_given_seed(self, blob_data):
        features, labels = blob_data
        a = LogisticRegressionModel(5, 3)
        b = LogisticRegressionModel(5, 3)
        a.fit(features, labels, epochs=5, learning_rate=0.3, batch_size=16, shuffle_seed=7)
        b.fit(features, labels, epochs=5, learning_rate=0.3, batch_size=16, shuffle_seed=7)
        assert a.parameters.allclose(b.parameters)

    def test_divergence_raises_training_error(self, blob_data):
        features, labels = blob_data
        model = LogisticRegressionModel(5, 3)
        # The diverging step overflows float64 on its way to the non-finite
        # parameters fit() then refuses; the overflow warning is expected.
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(TrainingError):
            model.fit(features * 1e3, labels, epochs=200, learning_rate=1e12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(20, 4))
        labels = rng.integers(0, 3, size=20)
        model = LogisticRegressionModel(4, 3, l2=0.01, init_scale=0.1, seed=5)
        analytic = model.gradients(features, labels).to_vector()

        def loss_at(vector):
            probe = LogisticRegressionModel(4, 3, l2=0.01)
            probe.set_vector(vector)
            from repro.fl.metrics import cross_entropy

            data_loss = cross_entropy(labels, probe.predict_proba(features))
            weights = probe.parameters.get("weights")
            return data_loss + 0.5 * 0.01 * float(np.sum(weights**2))

        base_vector = model.parameters.to_vector()
        epsilon = 1e-6
        for index in [0, 3, 7, 11, 14]:
            bumped = base_vector.copy()
            bumped[index] += epsilon
            numeric = (loss_at(bumped) - loss_at(base_vector)) / epsilon
            assert numeric == pytest.approx(analytic[index], abs=1e-3)

    def test_label_out_of_range_rejected(self):
        model = LogisticRegressionModel(4, 3)
        with pytest.raises(ValidationError):
            model.gradients(np.ones((2, 4)), np.array([0, 7]))

    def test_sample_count_mismatch_rejected(self):
        model = LogisticRegressionModel(4, 3)
        with pytest.raises(ValidationError):
            model.gradients(np.ones((2, 4)), np.array([0]))
