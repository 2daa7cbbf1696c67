"""Tests for classification metrics (repro.fl.metrics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.fl.metrics import accuracy, cross_entropy


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_none_correct(self):
        assert accuracy([0, 1, 2], [1, 2, 0]) == 0.0

    def test_partial(self):
        assert accuracy([0, 1, 2, 3], [0, 1, 0, 0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            accuracy([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            accuracy([0, 1], [0])


class TestCrossEntropy:
    def test_confident_correct_prediction_has_low_loss(self):
        probabilities = np.array([[0.99, 0.01], [0.01, 0.99]])
        assert cross_entropy([0, 1], probabilities) < 0.02

    def test_confident_wrong_prediction_has_high_loss(self):
        probabilities = np.array([[0.01, 0.99]])
        assert cross_entropy([0], probabilities) > 4.0

    def test_uniform_prediction_loss_is_log_k(self):
        probabilities = np.full((4, 4), 0.25)
        assert cross_entropy([0, 1, 2, 3], probabilities) == pytest.approx(np.log(4))

    def test_requires_2d_probabilities(self):
        with pytest.raises(ValidationError):
            cross_entropy([0], np.array([0.5, 0.5]))

    @pytest.mark.parametrize("shape", [(1,), (1, 1, 2)])
    def test_a_non_matrix_with_one_row_per_label_is_rejected(self, shape):
        with pytest.raises(ValidationError, match="2-D"):
            cross_entropy([0], np.full(shape, 0.5))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            cross_entropy([5], np.array([[0.5, 0.5]]))

    def test_label_equal_to_the_class_count_rejected(self):
        with pytest.raises(ValidationError, match="class range"):
            cross_entropy([2], np.array([[0.5, 0.5]]))

    def test_negative_label_rejected(self):
        with pytest.raises(ValidationError, match="class range"):
            cross_entropy([-1], np.array([[0.5, 0.5]]))

    def test_a_zero_probability_is_clipped_to_a_finite_loss(self):
        loss = cross_entropy([0], np.array([[0.0, 1.0]]), eps=1e-6)
        assert loss == pytest.approx(-np.log(1e-6))

    def test_sample_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            cross_entropy([0, 1], np.array([[1.0, 0.0]]))

