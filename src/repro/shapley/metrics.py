"""Similarity measures between contribution vectors.

Fig. 2 of the paper uses cosine similarity between the GroupSV vector and the
ground-truth (native) SV vector.  Rank correlation and L2 distance are provided
as complementary views used by the ablation benchmarks.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ValidationError


def _aligned(a: Mapping[str, float] | Sequence[float], b: Mapping[str, float] | Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Align two contribution collections into comparable vectors.

    Dict inputs are aligned by key (both must cover the same participants);
    sequence inputs are compared positionally.
    """
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        if set(a) != set(b):
            raise ValidationError("contribution dicts cover different participants")
        keys = sorted(a)
        return np.array([a[k] for k in keys], float), np.array([b[k] for k in keys], float)
    vec_a = np.asarray(list(a), dtype=np.float64)
    vec_b = np.asarray(list(b), dtype=np.float64)
    if vec_a.shape != vec_b.shape:
        raise ValidationError("contribution vectors have different lengths")
    if vec_a.size == 0:
        raise ValidationError("contribution vectors must be non-empty")
    return vec_a, vec_b


def cosine_similarity(a, b) -> float:
    """cos θ = (a · b) / (|a| |b|); 1.0 if both vectors are all-zero."""
    vec_a, vec_b = _aligned(a, b)
    norm_a = np.linalg.norm(vec_a)
    norm_b = np.linalg.norm(vec_b)
    if norm_a == 0.0 and norm_b == 0.0:
        return 1.0
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.clip(np.dot(vec_a, vec_b) / (norm_a * norm_b), -1.0, 1.0))  # rounding past ±1


def l2_distance(a, b) -> float:
    """Euclidean distance between two contribution vectors."""
    vec_a, vec_b = _aligned(a, b)
    return float(np.linalg.norm(vec_a - vec_b))


def max_abs_error(a, b) -> float:
    """Largest absolute per-participant difference."""
    vec_a, vec_b = _aligned(a, b)
    return float(np.max(np.abs(vec_a - vec_b)))


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean rank), 1-based."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty_like(values)
    ranks[order] = np.arange(1, values.size + 1, dtype=np.float64)
    # Average ranks over ties.
    unique_values = np.unique(values)
    for value in unique_values:
        mask = values == value
        if np.count_nonzero(mask) > 1:
            ranks[mask] = ranks[mask].mean()
    return ranks


def spearman_correlation(a, b) -> float:
    """Spearman rank correlation; 1.0 when either side has no rank variation in both."""
    vec_a, vec_b = _aligned(a, b)
    if vec_a.size < 2:
        return 1.0
    ranks_a = _ranks(vec_a)
    ranks_b = _ranks(vec_b)
    std_a = np.std(ranks_a)
    std_b = np.std(ranks_b)
    if std_a == 0.0 and std_b == 0.0:
        return 1.0
    if std_a == 0.0 or std_b == 0.0:
        return 0.0
    covariance = np.mean((ranks_a - ranks_a.mean()) * (ranks_b - ranks_b.mean()))
    return float(covariance / (std_a * std_b))
