"""Model parameter containers.

All model parameters flow through :class:`ModelParameters`, a named collection
of float arrays that can be flattened into a single vector (the representation
masked and put on chain) and restored from it.  Arithmetic helpers implement
the linear operations FedAvg and coalition-model averaging need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.exceptions import ModelShapeError, ValidationError


@dataclass(frozen=True)
class ModelParameters:
    """An ordered, immutable collection of named parameter arrays."""

    arrays: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self) -> None:
        normalized = []
        seen = set()
        for name, array in self.arrays:
            if not isinstance(name, str) or not name:
                raise ValidationError("parameter names must be non-empty strings")
            if name in seen:
                raise ValidationError(f"duplicate parameter name {name!r}")
            seen.add(name)
            normalized.append((name, np.asarray(array, dtype=np.float64).copy()))
        object.__setattr__(self, "arrays", tuple(normalized))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, np.ndarray]) -> "ModelParameters":
        """Build from a name → array mapping (ordered by insertion)."""
        return cls(arrays=tuple((name, np.asarray(arr)) for name, arr in mapping.items()))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def get(self, name: str) -> np.ndarray:
        """A copy of the named parameter array."""
        for key, array in self.arrays:
            if key == name:
                return array.copy()
        raise ModelShapeError(f"no parameter named {name!r}")

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Mapping of parameter name to shape."""
        return {name: tuple(arr.shape) for name, arr in self.arrays}

    @property
    def dimension(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(arr.size for _, arr in self.arrays))

    # ------------------------------------------------------------------
    # Flattening (the on-chain representation)
    # ------------------------------------------------------------------

    def to_vector(self) -> np.ndarray:
        """Flatten all parameters into one float64 vector, in declaration order."""
        if not self.arrays:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate([arr.ravel() for _, arr in self.arrays])

    def from_vector(self, vector: np.ndarray) -> "ModelParameters":
        """Rebuild parameters with this object's structure from a flat vector."""
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.size != self.dimension:
            raise ModelShapeError(
                f"vector has {vector.size} elements, model needs {self.dimension}"
            )
        rebuilt = []
        offset = 0
        for name, arr in self.arrays:
            size = arr.size
            rebuilt.append((name, vector[offset : offset + size].reshape(arr.shape)))
            offset += size
        return ModelParameters(arrays=tuple(rebuilt))

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _check_compatible(self, other: "ModelParameters") -> None:
        if self.shapes() != other.shapes():
            raise ModelShapeError(
                f"incompatible parameter structures: {self.shapes()} vs {other.shapes()}"
            )

    def add(self, other: "ModelParameters") -> "ModelParameters":
        """Element-wise sum."""
        self._check_compatible(other)
        return ModelParameters(
            arrays=tuple(
                (name, arr + other_arr)
                for (name, arr), (_, other_arr) in zip(self.arrays, other.arrays)
            )
        )

    def subtract(self, other: "ModelParameters") -> "ModelParameters":
        """Element-wise difference ``self - other``."""
        self._check_compatible(other)
        return ModelParameters(
            arrays=tuple(
                (name, arr - other_arr)
                for (name, arr), (_, other_arr) in zip(self.arrays, other.arrays)
            )
        )

    def scale(self, factor: float) -> "ModelParameters":
        """Element-wise scaling."""
        return ModelParameters(arrays=tuple((name, arr * float(factor)) for name, arr in self.arrays))

    @staticmethod
    def mean(items: Iterable["ModelParameters"]) -> "ModelParameters":
        """Unweighted average of several parameter sets (plain coalition aggregation)."""
        items = list(items)
        if not items:
            raise ValidationError("cannot average an empty collection of parameters")
        total = items[0]
        for other in items[1:]:
            total = total.add(other)
        return total.scale(1.0 / len(items))
