"""Tests for contribution-vector similarity metrics (repro.shapley.metrics)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.shapley.metrics import cosine_similarity, spearman_correlation


class TestCosineSimilarity:
    def test_dict_alignment(self):
        assert cosine_similarity({"a": 1.0, "b": 0.0}, {"b": 0.0, "a": 1.0}) == pytest.approx(1.0)

    def test_identical_vectors(self):
        assert cosine_similarity([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_scaled_vectors_are_still_parallel(self):
        assert cosine_similarity([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_opposite_vectors(self):
        assert cosine_similarity([1, 1], [-1, -1]) == pytest.approx(-1.0)

    def test_dict_inputs_align_by_key(self):
        a = {"x": 1.0, "y": 2.0}
        b = {"y": 2.0, "x": 1.0}
        assert cosine_similarity(a, b) == pytest.approx(1.0)

    def test_dict_inputs_with_different_keys_rejected(self):
        with pytest.raises(ValidationError):
            cosine_similarity({"x": 1.0}, {"y": 1.0})

    def test_both_zero_vectors_are_similar(self):
        assert cosine_similarity([0, 0], [0, 0]) == 1.0

    def test_one_zero_vector_is_dissimilar(self):
        assert cosine_similarity([0, 0], [1, 0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            cosine_similarity([1, 2], [1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            cosine_similarity([], [])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=10))
    @example([1.183115084081641e-158] * 2)  # subnormal norms: the quotient read 1 + 2.9e-9
    def test_property_bounded_and_reflexive(self, values):
        other = [v + 1e-3 for v in values]
        sim = cosine_similarity(values, other)
        assert -1.0 - 1e-9 <= sim <= 1.0 + 1e-9
        assert cosine_similarity(values, values) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=10),
        st.lists(st.floats(-100, 100), min_size=2, max_size=10),
    )
    def test_property_symmetry(self, a, b):
        length = min(len(a), len(b))
        a, b = a[:length], b[:length]
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))


class TestSpearman:
    def test_identical_ranking_is_one(self):
        assert spearman_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_ranking_is_minus_one(self):
        assert spearman_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_vectors_are_fully_correlated(self):
        assert spearman_correlation([1, 1, 1], [2, 2, 2]) == 1.0

    def test_one_constant_vector_is_uncorrelated(self):
        assert spearman_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_single_element(self):
        assert spearman_correlation([1], [5]) == 1.0

    def test_two_elements_are_ranked(self):
        assert spearman_correlation([1, 2], [2, 1]) == pytest.approx(-1.0)

    def test_ties_share_their_mean_rank(self):
        # Ranks [1, 2.5, 2.5, 4] against [1, 3, 2, 4]: Pearson's r of the ranks.
        assert spearman_correlation([1, 2, 2, 3], [1, 3, 2, 4]) == pytest.approx(3 / np.sqrt(10))

    def test_monotone_transformation_preserves_correlation(self):
        values = [0.1, 0.5, 0.2, 0.9]
        transformed = [v**3 for v in values]
        assert spearman_correlation(values, transformed) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=12))
    def test_property_bounded(self, values):
        rng = np.random.default_rng(0)
        other = rng.permutation(values).tolist()
        correlation = spearman_correlation(values, other)
        assert -1.0 - 1e-9 <= correlation <= 1.0 + 1e-9
