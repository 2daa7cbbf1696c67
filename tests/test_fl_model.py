"""Tests for the model parameter container (repro.fl.model)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelShapeError, ValidationError
from repro.fl.model import ModelParameters


def params(weights=None, bias=None):
    weights = np.arange(6, dtype=np.float64).reshape(2, 3) if weights is None else weights
    bias = np.array([1.0, -1.0, 0.5]) if bias is None else bias
    return ModelParameters.from_mapping({"weights": weights, "bias": bias})


class TestConstruction:
    def test_from_mapping_preserves_order(self):
        assert [name for name, _ in params().arrays] == ["weights", "bias"]

    def test_arrays_are_copied(self):
        weights = np.zeros((2, 2))
        model = ModelParameters.from_mapping({"w": weights})
        weights[0, 0] = 99
        assert model.get("w")[0, 0] == 0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            ModelParameters(arrays=(("w", np.zeros(2)), ("w", np.zeros(2))))

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            ModelParameters(arrays=(("", np.zeros(2)),))

    def test_get_unknown_name_rejected(self):
        with pytest.raises(ModelShapeError):
            params().get("missing")

    def test_dimension(self):
        assert params().dimension == 9


class TestVectorRoundtrip:
    def test_to_from_vector_roundtrip(self):
        model = params()
        rebuilt = model.from_vector(model.to_vector())
        assert np.allclose(model.to_vector(), rebuilt.to_vector(), atol=1e-9)

    def test_from_vector_rejects_wrong_length(self):
        with pytest.raises(ModelShapeError):
            params().from_vector(np.zeros(5))

    def test_vector_order_is_declaration_order(self):
        model = params()
        vector = model.to_vector()
        assert np.array_equal(vector[:6], model.get("weights").ravel())
        assert np.array_equal(vector[6:], model.get("bias"))

    def test_empty_parameters_flatten_to_empty_vector(self):
        empty = ModelParameters(arrays=())
        assert empty.to_vector().size == 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=9, max_size=9))
    def test_property_roundtrip_any_vector(self, values):
        model = params()
        vector = np.array(values)
        assert np.allclose(model.from_vector(vector).to_vector(), vector)


class TestArithmetic:
    def test_add_subtract(self):
        a, b = params(), params()
        assert np.allclose(a.add(b).to_vector(), a.scale(2.0).to_vector(), atol=1e-9)
        assert not a.subtract(b).to_vector().any()

    def test_scale(self):
        assert np.allclose(params().scale(3.0).to_vector(), 3.0 * params().to_vector())

    def test_incompatible_shapes_rejected(self):
        other = ModelParameters.from_mapping({"weights": np.zeros((3, 3)), "bias": np.zeros(3)})
        with pytest.raises(ModelShapeError):
            params().add(other)

    def test_mean(self):
        a = params()
        b = a.scale(3.0)
        assert np.allclose(ModelParameters.mean([a, b]).to_vector(), a.scale(2.0).to_vector(), atol=1e-9)

    def test_mean_of_one_is_identity(self):
        assert np.array_equal(ModelParameters.mean([params()]).to_vector(), params().to_vector())

    def test_mean_of_empty_rejected(self):
        with pytest.raises(ValidationError):
            ModelParameters.mean([])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-10, 10), min_size=9, max_size=9),
            min_size=1,
            max_size=6,
        )
    )
    def test_property_mean_matches_numpy(self, vectors):
        template = params()
        models = [template.from_vector(np.array(vector)) for vector in vectors]
        expected = np.mean([np.array(v) for v in vectors], axis=0)
        assert np.allclose(ModelParameters.mean(models).to_vector(), expected)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=9, max_size=9), st.floats(-5, 5))
    def test_property_scale_distributes_over_add(self, values, factor):
        template = params()
        model = template.from_vector(np.array(values))
        left = model.add(model).scale(factor)
        right = model.scale(factor).add(model.scale(factor))
        assert np.allclose(left.to_vector(), right.to_vector(), atol=1e-9)
