"""Generic synthetic classification datasets.

These generators back unit tests and the extension experiments that need
datasets of arbitrary size/dimension (e.g. the throughput sweep over model
dimension) where the digits substitute would be overkill.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import spawn_rng


def make_blobs(
    n_samples: int,
    n_features: int,
    n_classes: int,
    class_separation: float = 3.0,
    noise: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian blobs: one isotropic cluster per class.

    Class centers are drawn deterministically on a sphere of radius
    ``class_separation``; samples add isotropic noise of scale ``noise``.
    """
    if n_samples < n_classes:
        raise ValidationError("need at least one sample per class")
    if n_features < 1 or n_classes < 2:
        raise ValidationError("need n_features >= 1 and n_classes >= 2")
    rng = spawn_rng("make-blobs", seed, n_samples, n_features, n_classes)
    directions = rng.normal(size=(n_classes, n_features))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    centers = class_separation * directions / np.maximum(norms, 1e-12)

    per_class = [n_samples // n_classes] * n_classes
    for i in range(n_samples % n_classes):
        per_class[i] += 1
    features = []
    labels = []
    for cls in range(n_classes):
        samples = centers[cls] + rng.normal(0.0, noise, size=(per_class[cls], n_features))
        features.append(samples)
        labels.append(np.full(per_class[cls], cls, dtype=np.int64))
    features = np.concatenate(features, axis=0)
    labels = np.concatenate(labels, axis=0)
    order = rng.permutation(n_samples)
    return features[order], labels[order]

