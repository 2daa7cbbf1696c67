"""Multinomial logistic regression trained with gradient descent.

This is the model family used in the paper's experiments ("logistic regression
with gradient descent in the local train epoch").  The implementation is pure
NumPy: a softmax output layer over a linear map, cross-entropy loss with L2
regularization, full-batch or mini-batch gradient descent, and the
:class:`~repro.fl.model.ModelParameters` container so that weights flow through
the secure-aggregation and Shapley layers unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelShapeError, TrainingError, ValidationError
from repro.fl.metrics import accuracy, cross_entropy
from repro.fl.model import ModelParameters
from repro.fl.optimizer import SgdOptimizer
from repro.utils.rng import spawn_rng


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


class LogisticRegressionModel:
    """Softmax (multinomial) logistic regression.

    Args:
        n_features: input dimensionality.
        n_classes: number of output classes.
        l2: L2 regularization strength applied to the weight matrix (not bias).
        init_scale: standard deviation of the (deterministic) weight init; zero
            initialization is used when ``init_scale == 0``.
        seed: seed for the weight initialization.
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        l2: float = 1e-4,
        init_scale: float = 0.0,
        seed: int = 0,
    ) -> None:
        if n_features < 1 or n_classes < 2:
            raise ValidationError("need n_features >= 1 and n_classes >= 2")
        if l2 < 0:
            raise ValidationError("l2 must be non-negative")
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.l2 = float(l2)
        if init_scale > 0:
            rng = spawn_rng("logreg-init", seed, n_features, n_classes)
            weights = rng.normal(0.0, init_scale, size=(n_features, n_classes))
        else:
            weights = np.zeros((n_features, n_classes))
        bias = np.zeros(n_classes)
        self._params = ModelParameters.from_mapping({"weights": weights, "bias": bias})

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------

    @property
    def parameters(self) -> ModelParameters:
        """The current parameters (weights and bias)."""
        return self._params

    def set_parameters(self, params: ModelParameters) -> None:
        """Replace the model parameters, checking structural compatibility."""
        expected = self._params.shapes()
        if params.shapes() != expected:
            raise ModelShapeError(f"expected parameter shapes {expected}, got {params.shapes()}")
        self._params = params

    def set_vector(self, vector: np.ndarray) -> None:
        """Replace parameters from a flat vector (the on-chain representation)."""
        self._params = self._params.from_vector(vector)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def _validate_features(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ModelShapeError(
                f"expected features with {self.n_features} columns, got shape {features.shape}"
            )
        return features

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities for each row of ``features``."""
        features = self._validate_features(features)
        weights = self._params.get("weights")
        bias = self._params.get("bias")
        return softmax(features @ weights + bias)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return np.argmax(self.predict_proba(features), axis=1)

    def evaluate(self, features: np.ndarray, labels: np.ndarray) -> dict[str, float]:
        """Accuracy and cross-entropy on a labelled set."""
        probabilities = self.predict_proba(features)
        predictions = np.argmax(probabilities, axis=1)
        return {
            "accuracy": accuracy(labels, predictions),
            "loss": cross_entropy(labels, probabilities),
        }

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def gradients(self, features: np.ndarray, labels: np.ndarray) -> ModelParameters:
        """Gradient of the regularized cross-entropy loss at the current parameters."""
        features = self._validate_features(features)
        labels = np.asarray(labels).ravel().astype(int)
        if labels.size != features.shape[0]:
            raise ValidationError("features and labels disagree on sample count")
        if np.any(labels < 0) or np.any(labels >= self.n_classes):
            raise ValidationError("labels outside [0, n_classes)")
        n_samples = features.shape[0]
        probabilities = self.predict_proba(features)
        one_hot = np.zeros_like(probabilities)
        one_hot[np.arange(n_samples), labels] = 1.0
        error = probabilities - one_hot
        weights = self._params.get("weights")
        grad_weights = features.T @ error / n_samples + self.l2 * weights
        grad_bias = error.mean(axis=0)
        return ModelParameters.from_mapping({"weights": grad_weights, "bias": grad_bias})

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 1,
        learning_rate: float = 0.1,
        batch_size: int | None = None,
        optimizer: SgdOptimizer | None = None,
        shuffle_seed: int = 0,
    ) -> dict[str, float]:
        """Train in place with (mini-batch) gradient descent.

        Returns the final training metrics.  Raises :class:`TrainingError` if
        the loss becomes non-finite (diverging learning rate).
        """
        features = self._validate_features(features)
        labels = np.asarray(labels).ravel().astype(int)
        optimizer = optimizer or SgdOptimizer(learning_rate=learning_rate)
        n_samples = features.shape[0]
        rng = spawn_rng("logreg-shuffle", shuffle_seed)
        for epoch in range(int(epochs)):
            if batch_size is None or batch_size >= n_samples:
                batches = [np.arange(n_samples)]
            else:
                order = rng.permutation(n_samples)
                batches = [order[i : i + batch_size] for i in range(0, n_samples, batch_size)]
            for batch in batches:
                grads = self.gradients(features[batch], labels[batch])
                self._params = optimizer.step(self._params, grads)
            if not np.all(np.isfinite(self._params.to_vector())):
                raise TrainingError(f"parameters diverged at epoch {epoch}")
        return self.evaluate(features, labels)
