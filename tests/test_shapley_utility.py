"""Tests for utility functions (repro.shapley.utility)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import UtilityError, ValidationError
from repro.fl.model import ModelParameters
from repro.shapley.backend import RetrainUtility
from repro.shapley.engine import MAX_PLAYERS
from repro.shapley.native import native_shapley
from repro.shapley.utility import (
    AccuracyUtility,
    CachedUtility,
    CoalitionModelUtility,
    UtilityFunction,
)


class TestAccuracyUtility:
    def test_score_of_perfect_model_is_one(self, dataset, scorer):
        # Train a strong model on the full training data and check the scorer
        # reports its (high) accuracy consistently with direct evaluation.
        from repro.fl.logistic_regression import LogisticRegressionModel

        model = LogisticRegressionModel(dataset.n_features, dataset.n_classes)
        model.fit(dataset.train_features, dataset.train_labels, epochs=40, learning_rate=2.0)
        direct = model.evaluate(dataset.test_features, dataset.test_labels)["accuracy"]
        assert scorer.score(model.parameters) == pytest.approx(direct)

    def test_score_vector_matches_score(self, dataset, scorer, local_models):
        params = next(iter(local_models.values()))
        assert scorer.score_vector(params.to_vector()) == pytest.approx(scorer.score(params))

    def test_zero_model_scores_near_chance(self, dataset, scorer):
        from repro.fl.logistic_regression import LogisticRegressionModel

        zero = LogisticRegressionModel(dataset.n_features, dataset.n_classes).parameters
        assert scorer.score(zero) < 0.35

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValidationError):
            AccuracyUtility(np.zeros((0, 4)), np.zeros(0), 3)

    def test_features_and_labels_of_different_lengths_rejected(self):
        with pytest.raises(ValidationError, match="disagree on sample count"):
            AccuracyUtility(np.zeros((4, 2)), np.zeros(3), 3)

    def test_direct_coalition_call_is_an_error(self, scorer):
        with pytest.raises(UtilityError):
            scorer(("a",))

    def test_single_class_rejected(self):
        # The kernel takes a top-2 over the classes; one class used to be
        # accepted and die in score_batch with an IndexError.
        with pytest.raises(ValidationError):
            AccuracyUtility(np.zeros((4, 2)), np.zeros(4), 1)

    @pytest.mark.parametrize("labels", [
        [0, 1, 2, 7, 7, 7, 1, 1], [0, 1, 2, 2, 0, 1, -1, 1], [0, 1, 2, 3, 0, 1, 2, 0],
    ])
    def test_labels_outside_the_class_range_rejected(self, labels):
        # Used to be accepted and silently scored as always-wrong samples.
        with pytest.raises(ValidationError):
            AccuracyUtility(np.zeros((8, 2)), np.array(labels), 3)


def _scalar_scores(scorer, vectors):
    return np.array([scorer.score_vector(vector) for vector in vectors])


def _kernel_game(f, c, n, k, seed):
    """A random scorer and a ``(k, d)`` batch of random flat models."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, f))
    labels = rng.integers(0, c, size=n)
    scorer = AccuracyUtility(features, labels, c)
    return rng, scorer, rng.normal(size=(k, f * c + c))


def _leading_pair_model(rng, scorer, kind):
    """A flat model whose two leading classes are ``kind`` apart on every sample.

    Class ``i`` is sample 0's label and class ``j`` a copy of it, both lifted
    above every other class; ``kind`` separates their biases: ``"tie"`` not at
    all, ``"sub_margin"`` by 1e-12 relative, ``"over_margin"`` by four times
    the tie margin at the largest logit.
    """
    f, c = scorer.test_features.shape[1], scorer.n_classes
    weights, bias = rng.normal(size=(f, c)), rng.normal(size=c)
    i = int(scorer.test_labels[0])
    j = (i + 1 + int(rng.integers(c - 1))) % c
    weights[:, j] = weights[:, i]
    ceiling = float(np.abs(scorer.test_features @ weights).max() + np.abs(bias).max())
    bias[i] = bias[j] = 3.0 * ceiling + 1.0
    if kind == "sub_margin":
        bias[j] *= 1.0 + 1e-12
    elif kind == "over_margin":
        bias[j] += 4.0 * AccuracyUtility._TIE_MARGIN * (4.0 * ceiling + 2.0)
    return np.concatenate([weights.ravel(), bias])


_SCORER_SHAPES = dict(
    f=st.integers(min_value=1, max_value=8),
    c=st.integers(min_value=2, max_value=10),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
_KERNEL_SHAPES = dict(_SCORER_SHAPES, k=st.integers(min_value=1, max_value=60))


class TestScoreBatchKernel:
    """``score_batch`` equals the ``score_vector`` loop exactly, whatever the model."""

    @settings(max_examples=60, deadline=None)
    @given(**_KERNEL_SHAPES)
    def test_property_random_models_match_the_scalar_path(self, f, c, n, k, seed):
        _, scorer, vectors = _kernel_game(f, c, n, k, seed)
        assert np.array_equal(scorer.score_batch(vectors), _scalar_scores(scorer, vectors))

    @settings(max_examples=60, deadline=None)
    @given(**_KERNEL_SHAPES)
    def test_property_ties_and_margin_edges_match_the_scalar_path(self, f, c, n, k, seed):
        # The tie involves the label's class (sample 0's), where "label logit
        # == top-1" and the scalar argmax's lowest-index rule can disagree.
        rng, scorer, vectors = _kernel_game(f, c, n, k, seed)
        for row, kind in zip(rng.permutation(k), ("tie", "sub_margin", "over_margin")):
            vectors[row] = _leading_pair_model(rng, scorer, kind)
        assert np.array_equal(scorer.score_batch(vectors), _scalar_scores(scorer, vectors))

    @settings(max_examples=30, deadline=None)
    @given(chunks=st.integers(min_value=2, max_value=5), data=st.data(), **_SCORER_SHAPES)
    def test_property_chunk_aligned_slices_score_alike(self, chunks, data, f, c, n, seed):
        # Chunks are scored independently of each other.
        rows_per_chunk = data.draw(st.integers(min_value=1, max_value=7))
        with mock.patch.object(AccuracyUtility, "_CHUNK_LOGITS_ELEMENTS", rows_per_chunk * n * c):
            rng, scorer, _ = _kernel_game(f, c, n, 1, seed)
            assert scorer.batch_chunk_rows() == rows_per_chunk
            vectors = rng.normal(size=(chunks * rows_per_chunk - 1, f * c + c))
            whole = scorer.score_batch(vectors)
            start = rows_per_chunk * data.draw(st.integers(min_value=0, max_value=chunks - 1))
            stop = rows_per_chunk * data.draw(st.integers(min_value=start // rows_per_chunk, max_value=chunks))
            assert np.array_equal(scorer.score_batch(vectors[start:stop]), whole[start:stop])

    def test_only_suspect_models_are_rescored(self):
        # The guardrail: a model goes back through score_vector iff some sample's
        # top-2 gap is not strictly above the margin, or a logit is not finite.
        rng, scorer, vectors = _kernel_game(5, 4, 24, 6, seed=17)
        for row, kind in enumerate(("tie", "sub_margin", "over_margin"), start=1):
            vectors[row] = _leading_pair_model(rng, scorer, kind)
        vectors[4, 3] = np.nan
        expected = _scalar_scores(scorer, vectors)
        with mock.patch.object(scorer, "score_vector", wraps=scorer.score_vector) as rescored:
            assert np.array_equal(scorer.score_batch(vectors), expected)
        seen = [call.args[0] for call in rescored.call_args_list]
        assert len(seen) == 3
        for vector, row in zip(seen, (1, 2, 4)):
            assert np.array_equal(vector, vectors[row], equal_nan=True)

    @pytest.mark.parametrize("position", ["weight", "bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_match_the_scalar_path(self, value, position, monkeypatch):
        # Regression: softmax spreads a NaN to every class, so the scalar path
        # predicts class 0 where a raw-logit argmax picks the NaN's index, and
        # ``gap <= margin`` is False on NaN, so the model was never flagged.
        rng = np.random.default_rng(3)
        scorer = AccuracyUtility(rng.normal(size=(32, 5)), rng.integers(0, 3, size=32), 3)
        monkeypatch.setattr(AccuracyUtility, "_CHUNK_LOGITS_ELEMENTS", 256 * 32 * 3)
        vectors = rng.normal(size=(5000, 18))
        vectors[2500, 4 if position == "weight" else 16] = value
        # The scalar softmax itself warns on inf - inf; it is the oracle, not the subject.
        with np.errstate(invalid="ignore"):
            expected = scorer.score_vector(vectors[2500])
            assert scorer.score_batch(vectors[2500][None])[0] == expected
            serial = scorer.score_batch(vectors)
            assert serial[2500] == expected
            assert np.array_equal(serial[2495:2505], _scalar_scores(scorer, vectors[2495:2505]))


class TestRetrainUtility:
    @pytest.fixture(scope="class")
    def retrain(self, dataset, owners, scorer):
        from repro.fl.server import CentralizedTrainer

        owner_features = {o.owner_id: o.features for o in owners}
        owner_labels = {o.owner_id: o.labels for o in owners}
        trainer = CentralizedTrainer(dataset.n_features, dataset.n_classes, epochs=15, learning_rate=2.0)
        return RetrainUtility(owner_features, owner_labels, scorer, trainer=trainer)

    def test_empty_coalition_is_zero(self, retrain):
        assert retrain(()) == 0.0

    def test_grand_coalition_beats_single_owner(self, retrain, owners):
        ids = sorted(o.owner_id for o in owners)
        assert retrain(tuple(ids)) >= retrain((ids[-1],)) - 0.05

    def test_coalition_order_does_not_matter(self, retrain, owners):
        ids = sorted(o.owner_id for o in owners)[:2]
        assert retrain(tuple(ids)) == pytest.approx(retrain(tuple(reversed(ids))))

    def test_unknown_owner_rejected(self, retrain):
        with pytest.raises(UtilityError):
            retrain(("ghost",))

    def test_evaluation_counter_increments(self, retrain, owners):
        before = retrain.evaluations()
        retrain((sorted(o.owner_id for o in owners)[0],))
        assert retrain.evaluations() == before + 1

    def test_no_owners_rejected(self, scorer):
        with pytest.raises(ValidationError, match="at least one owner"):
            RetrainUtility({}, {}, scorer)

    def test_vector_of_an_empty_or_oversized_game_is_declined_untrained(self, retrain):
        before = retrain.evaluations()
        assert retrain.coalition_utility_vector([]) is None
        assert retrain.coalition_utility_vector([f"p{i}" for i in range(MAX_PLAYERS + 1)]) is None
        assert retrain.evaluations() == before

    def test_vector_over_an_unknown_owner_rejected(self, retrain, owners):
        with pytest.raises(UtilityError, match="ghost"):
            retrain.coalition_utility_vector([owners[0].owner_id, "ghost"])

    def test_mismatched_owner_maps_rejected(self, dataset, owners, scorer):
        owner_features = {o.owner_id: o.features for o in owners}
        owner_labels = {o.owner_id: o.labels for o in owners[:-1]}
        with pytest.raises(ValidationError):
            RetrainUtility(owner_features, owner_labels, scorer)


class _SumScorer:
    """Scores a flat model by the sum of its entries."""

    def __init__(self):
        self.rows = 0

    def score_batch(self, vectors):
        vectors = np.asarray(vectors)
        self.rows += len(vectors)
        return vectors.sum(axis=1)


class TestCoalitionModelUtility:
    def test_singleton_coalition_scores_the_member_model(self, scorer, local_models):
        utility = CoalitionModelUtility(local_models, scorer)
        owner = sorted(local_models)[0]
        assert utility((owner,)) == pytest.approx(scorer.score(local_models[owner]))

    def test_coalition_model_is_plain_average(self, scorer, local_models):
        utility = CoalitionModelUtility(local_models, scorer)
        pair = tuple(sorted(local_models)[:2])
        averaged = ModelParameters.mean([local_models[pair[0]], local_models[pair[1]]])
        assert utility(pair) == pytest.approx(scorer.score(averaged))

    def test_empty_coalition_is_zero(self, scorer, local_models):
        assert CoalitionModelUtility(local_models, scorer)(()) == 0.0

    def test_unknown_member_rejected(self, scorer, local_models):
        with pytest.raises(UtilityError):
            CoalitionModelUtility(local_models, scorer)(("ghost",))

    def test_empty_member_map_rejected(self, scorer):
        with pytest.raises(ValidationError, match="at least one member"):
            CoalitionModelUtility({}, scorer)

    def test_every_path_counts_the_coalitions_it_scores(self):
        scorer = _SumScorer()
        utility = CoalitionModelUtility({"a": np.ones(2), "b": np.full(2, 3.0)}, scorer)
        assert utility(("b", "a")) == 4.0 and utility(()) == 0.0
        assert utility.evaluations() == scorer.rows == 1
        assert utility.evaluate_coalitions([("a",), (), ("b",)]) == [2.0, 0.0, 6.0]
        assert utility.evaluations() == scorer.rows == 3
        assert utility.coalition_utility_vector(["b", "a"]).tolist() == [0.0, 2.0, 6.0, 4.0]
        assert utility.evaluations() == scorer.rows == 6

    def test_an_all_empty_batch_scores_nothing(self):
        scorer = _SumScorer()
        utility = CoalitionModelUtility({"a": np.ones(2)}, scorer)
        utility.empty_value = 0.25
        assert utility.evaluate_coalitions([(), ()]) == [0.25, 0.25]
        assert utility.coalition_utility_vector([]) is None
        assert scorer.rows == 0 and utility.evaluations() == 0

    def test_members_of_different_dimensions_rejected(self, scorer):
        with pytest.raises(ValidationError, match="disagree on dimension"):
            CoalitionModelUtility({"a": np.zeros(2), "b": np.zeros(3)}, scorer)


class _Additive(UtilityFunction):
    """A utility that defines only ``__call__``."""

    def __call__(self, coalition):
        return float(sum(len(player) for player in coalition))


class TestUtilityFunctionDefaults:
    def test_the_base_call_is_abstract(self):
        with pytest.raises(NotImplementedError):
            UtilityFunction()(("a",))

    def test_a_call_only_utility_gets_the_scalar_defaults(self):
        utility = _Additive()
        assert utility.evaluate_coalitions([("a",), ("bb", "a"), ()]) == [1.0, 3.0, 0.0]
        assert utility.coalition_utility_vector(["a", "bb"]) is None
        assert utility.evaluations() == 0 and utility.empty_value == 0.0
        # Without a vectorized path the exact engine walks coalitions one by one.
        assert native_shapley(["a", "bb"], utility) == pytest.approx({"a": 1.0, "bb": 2.0})


class TestCachedUtility:
    def test_caches_by_sorted_coalition(self):
        calls = []

        def utility(coalition):
            calls.append(coalition)
            return float(len(coalition))

        cached = CachedUtility(utility)
        assert cached(("b", "a")) == cached(("a", "b"))
        assert len(calls) == 1

    def test_empty_coalition_uses_empty_value_without_calling_inner(self):
        calls = []
        cached = CachedUtility(lambda s: calls.append(s) or 1.0)
        assert cached(()) == 0.0
        assert calls == []

    def test_evaluations_counts_distinct_coalitions(self):
        cached = CachedUtility(lambda s: 1.0)
        cached(("a",))
        cached(("a",))
        cached(("b",))
        assert cached.evaluations() == 2

    @staticmethod
    def _game():
        scorer = _SumScorer()
        members = {name: np.full(2, float(k + 1)) for k, name in enumerate("abc")}
        return CoalitionModelUtility(members, scorer), scorer

    def test_a_warm_memo_answers_the_vector_without_another_sweep(self):
        inner, scorer = self._game()
        cached = CachedUtility(inner)
        first = cached.coalition_utility_vector(["c", "a", "b"])
        assert scorer.rows == 7
        assert np.array_equal(cached.coalition_utility_vector(["a", "b", "c"]), first)
        assert scorer.rows == 7
        # A memo filled by scalar calls alone answers it too.
        inner, scorer = self._game()
        scalar_only = CachedUtility(inner)
        for coalition in (("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"), ("a", "b", "c")):
            scalar_only(coalition)
        assert np.array_equal(scalar_only.coalition_utility_vector("abc"), first)
        assert scorer.rows == 7

    def test_the_caches_empty_value_overrides_the_inner_vectors(self):
        inner, _ = self._game()
        cached = CachedUtility(inner)
        cached.empty_value = 0.5
        vector = cached.coalition_utility_vector(["a", "b"])
        assert vector[0] == 0.5 and vector[3] == 3.0
        assert inner.coalition_utility_vector(["a", "b"])[0] == inner.empty_value == 0.0

    def test_inherits_empty_value_from_utility_function(self, scorer, local_models):
        inner = CoalitionModelUtility(local_models, scorer)
        inner.empty_value = 0.25
        assert CachedUtility(inner)(()) == 0.25
