"""Small validation helpers used across the library.

These raise :class:`repro.exceptions.ValidationError` with descriptive messages
so failures at module boundaries are easy to diagnose.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def require_format_tag(name: str, version: object, current: int, error: type[Exception]) -> int:
    """Refuse any value of a format tag but the one this build reads and writes.

    The version fields that survive their retired alternatives
    (``state_root_version``, ``sv_assembly_version``) are tags, not knobs:
    they exist so a chain or store written under another format is refused.
    """
    if version != current:
        raise error(
            f"{name} {version!r} is retired or unknown: "
            f"this build reads and writes only version {current}"
        )
    return current


def ensure_positive_int(value: object, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def ensure_non_negative_int(value: object, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return value


def ensure_probability(value: object, name: str) -> float:
    """Validate that ``value`` lies in [0, 1] and return it as ``float``."""
    try:
        value = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number in [0, 1]") from exc
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def ensure_in_range(value: float, low: float, high: float, name: str) -> float:
    """Validate that ``low <= value <= high``."""
    value = float(value)
    if not low <= value <= high:
        raise ValidationError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def ensure_finite(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that every element of ``array`` is finite."""
    array = np.asarray(array)
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} contains non-finite values")
    return array


def ensure_same_shape(a: np.ndarray, b: np.ndarray, name: str) -> None:
    """Validate that two arrays share a shape."""
    if np.shape(a) != np.shape(b):
        raise ValidationError(f"{name}: shapes differ ({np.shape(a)} vs {np.shape(b)})")
