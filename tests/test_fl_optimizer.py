"""Tests for optimizers (repro.fl.optimizer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.fl.model import ModelParameters
from repro.fl.optimizer import SgdOptimizer


def make_params(value=1.0):
    return ModelParameters.from_mapping({"w": np.full(4, value)})


def make_grads(value=0.5):
    return ModelParameters.from_mapping({"w": np.full(4, value)})


class TestSgd:
    def test_step_moves_against_gradient(self):
        new = SgdOptimizer(learning_rate=0.1).step(make_params(1.0), make_grads(0.5))
        assert np.allclose(new.get("w"), 0.95)

    def test_zero_gradient_is_identity(self):
        new = SgdOptimizer(0.1).step(make_params(2.0), make_grads(0.0))
        assert np.allclose(new.to_vector(), make_params(2.0).to_vector(), atol=1e-9)

    def test_learning_rate_scales_step(self):
        small = SgdOptimizer(0.1).step(make_params(), make_grads())
        large = SgdOptimizer(1.0).step(make_params(), make_grads())
        assert np.all(large.get("w") < small.get("w"))

    def test_rejects_non_positive_learning_rate(self):
        with pytest.raises(ValidationError):
            SgdOptimizer(0.0)
