"""Tests for utility functions (repro.shapley.utility)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import UtilityError, ValidationError
from repro.fl.model import ModelParameters
from repro.shapley.utility import (
    AccuracyUtility,
    CachedUtility,
    CoalitionModelUtility,
    RetrainUtility,
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

    def test_macro_f1_metric_variant(self, dataset, local_models):
        scorer = AccuracyUtility(dataset.test_features, dataset.test_labels, dataset.n_classes, metric="macro_f1")
        value = scorer.score(next(iter(local_models.values())))
        assert 0.0 <= value <= 1.0

    def test_unknown_metric_rejected(self, dataset):
        with pytest.raises(ValidationError):
            AccuracyUtility(dataset.test_features, dataset.test_labels, dataset.n_classes, metric="auc")

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValidationError):
            AccuracyUtility(np.zeros((0, 4)), np.zeros(0), 3)

    def test_direct_coalition_call_is_an_error(self, scorer):
        with pytest.raises(UtilityError):
            scorer(("a",))

    def test_single_class_rejected(self):
        # The kernel takes a top-2 over the classes; one class used to be
        # accepted and die in score_batch with an IndexError.
        with pytest.raises(ValidationError):
            AccuracyUtility(np.zeros((4, 2)), np.zeros(4), 1)

    @pytest.mark.parametrize("labels", [[0, 1, 2, 7, 7, 7, 1, 1], [0, 1, 2, 2, 0, 1, -1, 1]])
    def test_labels_outside_the_class_range_rejected(self, labels):
        # Used to be accepted and silently scored as always-wrong samples.
        with pytest.raises(ValidationError):
            AccuracyUtility(np.zeros((8, 2)), np.array(labels), 3)


def _scalar_scores(scorer, vectors):
    return np.array([scorer.score_vector(vector) for vector in vectors])


def _kernel_game(f, c, n, k, metric, seed):
    """A random scorer and a ``(k, d)`` batch of random flat models."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, f))
    labels = rng.integers(0, c, size=n)
    scorer = AccuracyUtility(features, labels, c, metric=metric)
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
    metric=st.sampled_from(["accuracy", "macro_f1"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
_KERNEL_SHAPES = dict(_SCORER_SHAPES, k=st.integers(min_value=1, max_value=60))


class TestScoreBatchKernel:
    """``score_batch`` equals the ``score_vector`` loop exactly, whatever the model."""

    @settings(max_examples=60, deadline=None)
    @given(**_KERNEL_SHAPES)
    def test_property_random_models_match_the_scalar_path(self, f, c, n, k, metric, seed):
        _, scorer, vectors = _kernel_game(f, c, n, k, metric, seed)
        assert np.array_equal(scorer.score_batch(vectors), _scalar_scores(scorer, vectors))

    @settings(max_examples=60, deadline=None)
    @given(**_KERNEL_SHAPES)
    def test_property_ties_and_margin_edges_match_the_scalar_path(self, f, c, n, k, metric, seed):
        # The tie involves the label's class (sample 0's), where "label logit
        # == top-1" and the scalar argmax's lowest-index rule can disagree.
        rng, scorer, vectors = _kernel_game(f, c, n, k, metric, seed)
        for row, kind in zip(rng.permutation(k), ("tie", "sub_margin", "over_margin")):
            vectors[row] = _leading_pair_model(rng, scorer, kind)
        assert np.array_equal(scorer.score_batch(vectors), _scalar_scores(scorer, vectors))

    @settings(max_examples=30, deadline=None)
    @given(chunks=st.integers(min_value=2, max_value=5), data=st.data(), **_SCORER_SHAPES)
    def test_property_chunk_aligned_slices_score_alike(self, chunks, data, f, c, n, metric, seed):
        # Chunks are scored independently of each other.
        rows_per_chunk = data.draw(st.integers(min_value=1, max_value=7))
        with mock.patch.object(AccuracyUtility, "_CHUNK_LOGITS_ELEMENTS", rows_per_chunk * n * c):
            rng, scorer, _ = _kernel_game(f, c, n, 1, metric, seed)
            assert scorer.batch_chunk_rows() == rows_per_chunk
            vectors = rng.normal(size=(chunks * rows_per_chunk - 1, f * c + c))
            whole = scorer.score_batch(vectors)
            start = rows_per_chunk * data.draw(st.integers(min_value=0, max_value=chunks - 1))
            stop = rows_per_chunk * data.draw(st.integers(min_value=start // rows_per_chunk, max_value=chunks))
            assert np.array_equal(scorer.score_batch(vectors[start:stop]), whole[start:stop])

    def test_only_suspect_models_are_rescored(self):
        # The guardrail: a model goes back through score_vector iff some sample's
        # top-2 gap is not strictly above the margin, or a logit is not finite.
        rng, scorer, vectors = _kernel_game(5, 4, 24, 6, "accuracy", seed=17)
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

    def test_mismatched_owner_maps_rejected(self, dataset, owners, scorer):
        owner_features = {o.owner_id: o.features for o in owners}
        owner_labels = {o.owner_id: o.labels for o in owners[:-1]}
        with pytest.raises(ValidationError):
            RetrainUtility(owner_features, owner_labels, scorer)


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
        with pytest.raises(ValidationError):
            CoalitionModelUtility({}, scorer)


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

    def test_cache_contents_snapshot(self):
        cached = CachedUtility(lambda s: float(len(s)))
        cached(("a", "b"))
        assert cached.cache_contents() == {("a", "b"): 2.0}

    def test_inherits_empty_value_from_utility_function(self, scorer, local_models):
        inner = CoalitionModelUtility(local_models, scorer)
        inner.empty_value = 0.25
        assert CachedUtility(inner)(()) == 0.25
