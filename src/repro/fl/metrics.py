"""Classification metrics used as utility functions and evaluation reports."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def _check_labels(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    if y_true.size == 0:
        raise ValidationError("metrics require at least one sample")
    if y_true.shape != y_pred.shape:
        raise ValidationError(f"label arrays differ in length: {y_true.size} vs {y_pred.size}")
    return y_true, y_pred


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct predictions — the paper's utility function u(.)."""
    y_true, y_pred = _check_labels(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def cross_entropy(y_true: np.ndarray, probabilities: np.ndarray, eps: float = 1e-12) -> float:
    """Mean categorical cross-entropy of predicted class probabilities."""
    y_true = np.asarray(y_true).ravel().astype(int)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.ndim != 2:
        raise ValidationError("probabilities must be a 2-D (n_samples, n_classes) array")
    if probabilities.shape[0] != y_true.size:
        raise ValidationError("probabilities and labels disagree on sample count")
    if np.any(y_true < 0) or np.any(y_true >= probabilities.shape[1]):
        raise ValidationError("labels outside the probability matrix's class range")
    clipped = np.clip(probabilities, eps, 1.0)
    picked = clipped[np.arange(y_true.size), y_true]
    return float(-np.mean(np.log(picked)))

