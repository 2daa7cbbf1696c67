"""Tests for the stratified + truncated sampled Shapley estimator.

The properties the on-chain receipts rely on: determinism in the seed,
unbiasedness (exact recovery on additive games, CI coverage of exact values on
real model games), honest confidence intervals, rounded-up block counts, and
the canonical per-round seed derivation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import make_blobs
from repro.exceptions import ShapleyError
from repro.fl.model import ModelParameters
from repro.shapley.engine import coalition_utility_vector, exact_shapley_from_utility_vector
from repro.shapley.estimator import (
    DEFAULT_CONFIDENCE,
    TRUNCATION_TOLERANCE,
    ShapleyEstimate,
    estimator_seed_for_round,
    sampled_group_shapley,
    stratified_permutation_shapley,
)
from repro.shapley.native import native_shapley
from repro.shapley.utility import AccuracyUtility, CachedUtility, CoalitionModelUtility
from repro.utils.rng import spawn_rng


def _weights(players):
    return {player: 0.1 * (index + 1) for index, player in enumerate(players)}


class TestStratifiedPermutationShapley:
    def test_deterministic_in_the_seed(self):
        # An asymmetric game: a symmetric one would estimate identically under
        # every seed thanks to the position stratification.
        players = ["a", "b", "c"]
        weights = _weights(players)
        utility = lambda s: sum(weights[p] for p in s) ** 2
        first = stratified_permutation_shapley(players, utility, n_permutations=12, seed=3)
        second = stratified_permutation_shapley(players, utility, n_permutations=12, seed=3)
        assert first == second
        different = stratified_permutation_shapley(players, utility, n_permutations=12, seed=4)
        assert different.values != first.values or different.half_widths != first.half_widths

    def test_additive_game_is_recovered_exactly_with_zero_width(self):
        # In an additive game every marginal equals the player's weight, so
        # the estimator is exact and the sample variance is identically zero.
        players = ["a", "b", "c", "d"]
        weights = _weights(players)
        utility = lambda s: sum(weights[p] for p in s)
        estimate = stratified_permutation_shapley(
            players, utility, n_permutations=8, seed=1, tolerance=0.0
        )
        for player in players:
            assert estimate.values[player] == pytest.approx(weights[player], abs=1e-12)
            # Up to float cancellation in the running sum of squares.
            assert estimate.half_widths[player] == pytest.approx(0.0, abs=1e-6)

    def test_estimates_cover_the_exact_values_on_a_nonadditive_game(self):
        players = [f"p{i}" for i in range(6)]
        weights = _weights(players)
        utility = lambda s: sum(weights[p] for p in s) ** 2
        exact = native_shapley(players, utility)
        estimate = stratified_permutation_shapley(
            players, utility, n_permutations=300, seed=2, tolerance=0.0
        )
        assert estimate.within_bounds(exact)

    def test_block_stratification_rounds_the_sample_count_up(self):
        players = ["a", "b", "c"]
        estimate = stratified_permutation_shapley(players, lambda s: float(len(s)), n_permutations=4, seed=0)
        # 4 requested, m = 3 → 2 blocks of 3 rotations = 6 actual.
        assert estimate.n_permutations == 6

    def test_single_player_game(self):
        estimate = stratified_permutation_shapley(["solo"], lambda s: 2.5 if s else 0.0, n_permutations=4, seed=0)
        assert estimate.values == {"solo": 2.5}
        assert estimate.half_widths["solo"] == 0.0
        assert estimate.grand_utility == 2.5

    def test_efficiency_holds_without_truncation(self):
        # Permutation sampling is exactly efficient per permutation: the
        # marginals along one order telescope to u(grand) − u(∅).
        players = [f"p{i}" for i in range(5)]
        weights = _weights(players)
        utility = lambda s: sum(weights[p] for p in s) ** 2
        estimate = stratified_permutation_shapley(
            players, utility, n_permutations=20, seed=5, tolerance=0.0
        )
        assert sum(estimate.values.values()) == pytest.approx(estimate.grand_utility)

    def test_truncation_zeroes_the_tail(self):
        # With a huge tolerance every prefix is "within tolerance" of the
        # grand utility, so only first-position marginals survive.
        players = ["a", "b", "c"]
        utility = lambda s: float(len(s))
        truncated = stratified_permutation_shapley(
            players, utility, n_permutations=6, seed=0, tolerance=100.0
        )
        full = stratified_permutation_shapley(
            players, utility, n_permutations=6, seed=0, tolerance=0.0
        )
        # Stratification puts each player first exactly once per block, so the
        # truncated estimate is 1/m of the first-position marginal.
        for player in players:
            assert truncated.values[player] == pytest.approx(1.0 / 3.0)
            assert full.values[player] == pytest.approx(1.0)

    def test_input_validation(self):
        utility = lambda s: float(len(s))
        with pytest.raises(ShapleyError):
            stratified_permutation_shapley([], utility)
        with pytest.raises(ShapleyError):
            stratified_permutation_shapley(["a"], utility, n_permutations=1)
        with pytest.raises(ShapleyError):
            stratified_permutation_shapley(["a", "a"], utility)
        with pytest.raises(ShapleyError):
            stratified_permutation_shapley(["a"], utility, confidence=0.5)
        with pytest.raises(ShapleyError):
            stratified_permutation_shapley(["a"], utility, tolerance=-1.0)

    def test_result_is_order_independent(self):
        players = ["c", "a", "b"]
        utility = lambda s: float(len(s)) ** 2
        forward = stratified_permutation_shapley(sorted(players), utility, n_permutations=9, seed=7)
        shuffled = stratified_permutation_shapley(players, utility, n_permutations=9, seed=7)
        assert forward == shuffled


class TestEstimatorSeed:
    def test_pure_function_of_seed_and_round(self):
        assert estimator_seed_for_round(13, 0) == estimator_seed_for_round(13, 0)
        assert estimator_seed_for_round(13, 0) != estimator_seed_for_round(13, 1)
        assert estimator_seed_for_round(13, 0) != estimator_seed_for_round(14, 0)

    def test_stays_in_the_signed_32_bit_range(self):
        for seed in (0, 13, 2**31, 2**40):
            for round_number in (0, 5, 1000):
                derived = estimator_seed_for_round(seed, round_number)
                assert 0 <= derived <= 0x7FFFFFFF


class TestShapleyEstimate:
    def test_within_bounds(self):
        estimate = ShapleyEstimate(
            values={"a": 1.0, "b": 2.0},
            half_widths={"a": 0.1, "b": 0.2},
            n_permutations=10, seed=0,
            confidence=DEFAULT_CONFIDENCE, tolerance=TRUNCATION_TOLERANCE,
            grand_utility=3.0,
        )
        assert estimate.within_bounds({"a": 1.05, "b": 1.85})
        assert not estimate.within_bounds({"a": 1.2, "b": 2.0})
        assert not estimate.within_bounds({"a": 1.0})  # missing player


@pytest.fixture(scope="module")
def model_game():
    """A 10-player game over real model vectors scored on a validation set."""
    features, labels = make_blobs(400, 8, 3, seed=21)
    scorer = AccuracyUtility(features[200:], labels[200:], 3)
    rng = spawn_rng("sampled-shapley-models", 21)
    base = rng.normal(size=(8 + 1) * 3)
    vectors = {f"g{i:02d}": base + 0.4 * rng.normal(size=base.size) for i in range(10)}
    return vectors, scorer


class TestModelGameCoverage:
    def test_sampled_estimate_covers_the_exact_values(self, model_game):
        # The acceptance criterion: at n ≤ 14 groups the sampled estimate must
        # fall within its reported confidence interval of the exact values.
        vectors, scorer = model_game
        labels = sorted(vectors)
        exact_values = exact_shapley_from_utility_vector(
            coalition_utility_vector(np.stack([vectors[label] for label in labels]), scorer)
        )
        exact = {label: float(value) for label, value in zip(labels, exact_values)}
        estimate = sampled_group_shapley(
            labels, vectors, scorer, n_permutations=400, seed=11
        )
        assert estimate.within_bounds(exact), {
            label: (exact[label], estimate.values[label], estimate.half_widths[label])
            for label in labels
        }

    def test_vector_utility_matches_the_model_parameters_utility(self, model_game, scorer, local_models):
        # The one game class built from flat vectors must agree bit for bit
        # with itself built from the equivalent ModelParameters, on all three
        # evaluation paths — and both with the scalar definition
        # score(ModelParameters.mean(sorted S)).
        reference = CoalitionModelUtility(local_models, scorer)
        vectors = {owner: model.to_vector() for owner, model in local_models.items()}
        vector_utility = CoalitionModelUtility(vectors, scorer)
        owners = sorted(local_models)
        coalitions = [(owners[0],), tuple(owners[:2]), tuple(owners), ()]
        for coalition in coalitions:
            assert vector_utility(coalition) == reference(coalition)
            if coalition:
                averaged = ModelParameters.mean([local_models[owner] for owner in coalition])
                assert reference(coalition) == scorer.score(averaged)
        batched = vector_utility.evaluate_coalitions(coalitions)
        assert batched == [reference(c) for c in coalitions]
        assert batched == reference.evaluate_coalitions(coalitions)
        table = vector_utility.coalition_utility_vector(owners)
        assert np.array_equal(table, reference.coalition_utility_vector(owners))
        assert table[-1] == reference(tuple(owners))

    def test_sampled_group_shapley_rejects_label_mismatch(self, model_game):
        vectors, scorer = model_game
        with pytest.raises(ShapleyError):
            sampled_group_shapley(["x"], vectors, scorer)

    def test_cached_utility_is_reused_across_blocks(self, model_game):
        vectors, scorer = model_game
        labels = sorted(vectors)[:5]
        subset = {label: vectors[label] for label in labels}
        utility = CachedUtility(CoalitionModelUtility(subset, scorer))
        estimate = stratified_permutation_shapley(labels, utility, n_permutations=50, seed=3)
        # The cache bounds distinct evaluations by the number of distinct
        # prefixes, well under blocks × m².
        assert estimate.evaluations == utility.evaluations()
        assert estimate.evaluations < estimate.n_permutations * len(labels)
