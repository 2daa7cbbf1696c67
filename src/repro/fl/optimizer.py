"""The gradient-descent optimizer for local training."""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.fl.model import ModelParameters


class SgdOptimizer:
    """Plain (full-batch or mini-batch) gradient descent: ``w <- w - lr * g``."""

    def __init__(self, learning_rate: float = 0.1) -> None:
        if learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)

    def step(self, params: ModelParameters, gradients: ModelParameters) -> ModelParameters:
        """Apply one descent step and return the new parameters."""
        return params.subtract(gradients.scale(self.learning_rate))
