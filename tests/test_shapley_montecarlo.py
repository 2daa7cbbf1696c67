"""Tests for Monte-Carlo Shapley approximations (repro.shapley.montecarlo)."""

from __future__ import annotations

import pytest

from repro.exceptions import ShapleyError
from repro.shapley.montecarlo import (
    PERMUTATION_BATCH,
    permutation_sampling_shapley,
    truncated_monte_carlo_shapley,
)
from repro.shapley.native import native_shapley
from repro.shapley.utility import CachedUtility
from tests.helpers import legacy_permutation_sampling


def additive_utility(private):
    return lambda coalition: sum(private[p] for p in coalition)


class TestPermutationSampling:
    def test_exact_for_additive_games(self):
        # For additive games every permutation gives identical marginals, so the
        # estimator is exact after a single permutation.
        private = {"a": 1.0, "b": 2.0, "c": 3.0}
        estimate = permutation_sampling_shapley(list(private), additive_utility(private), n_permutations=1)
        for player, value in private.items():
            assert estimate[player] == pytest.approx(value)

    def test_converges_to_native_values(self):
        def utility(coalition):
            value = len(coalition) ** 1.5
            if {"a", "b"}.issubset(coalition):
                value += 2.0
            return value

        players = ["a", "b", "c", "d"]
        exact = native_shapley(players, utility)
        estimate = permutation_sampling_shapley(players, utility, n_permutations=2000, seed=3)
        for player in players:
            assert estimate[player] == pytest.approx(exact[player], abs=0.15)

    def test_efficiency_holds_per_estimate(self):
        def utility(coalition):
            return float(len(coalition)) ** 2

        players = ["a", "b", "c"]
        estimate = permutation_sampling_shapley(players, utility, n_permutations=50, seed=1)
        assert sum(estimate.values()) == pytest.approx(utility(tuple(players)))

    def test_deterministic_for_seed(self):
        def utility(coalition):
            return float(len(coalition))

        players = ["a", "b", "c"]
        a = permutation_sampling_shapley(players, utility, n_permutations=20, seed=5)
        b = permutation_sampling_shapley(players, utility, n_permutations=20, seed=5)
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ShapleyError):
            permutation_sampling_shapley([], lambda s: 0.0)
        with pytest.raises(ShapleyError):
            permutation_sampling_shapley(["a"], lambda s: 0.0, n_permutations=0)


class TestTruncatedMonteCarlo:
    def test_matches_plain_sampling_when_tolerance_is_zero(self):
        def utility(coalition):
            return float(len(coalition))

        players = ["a", "b", "c", "d"]
        plain = permutation_sampling_shapley(players, utility, n_permutations=40, seed=7)
        truncated = truncated_monte_carlo_shapley(players, utility, n_permutations=40, tolerance=0.0, seed=7)
        for player in players:
            assert truncated[player] == pytest.approx(plain[player])

    def test_truncation_saves_utility_evaluations(self):
        # Utility saturates once 2 of 6 players are present, so TMC should stop
        # scanning permutations early and evaluate far fewer coalitions.
        players = [f"p{i}" for i in range(6)]

        def utility(coalition):
            return min(len(coalition), 2) / 2.0

        plain_cache = CachedUtility(utility)
        permutation_sampling_shapley(players, plain_cache, n_permutations=60, seed=2)
        tmc_cache = CachedUtility(utility)
        truncated_monte_carlo_shapley(players, tmc_cache, n_permutations=60, tolerance=0.0, seed=2)
        assert tmc_cache.evaluations() <= plain_cache.evaluations()

    def test_estimates_remain_close_to_exact_under_truncation(self):
        private = {"a": 1.0, "b": 2.0, "c": 0.5}
        exact = native_shapley(list(private), additive_utility(private))
        estimate = truncated_monte_carlo_shapley(
            list(private), additive_utility(private), n_permutations=500, tolerance=0.01, seed=4
        )
        for player in private:
            assert estimate[player] == pytest.approx(exact[player], abs=0.15)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ShapleyError):
            truncated_monte_carlo_shapley(["a"], lambda s: 0.0, tolerance=-1.0)

    def test_rejects_empty_players(self):
        with pytest.raises(ShapleyError):
            truncated_monte_carlo_shapley([], lambda s: 0.0)


class TestCrossPermutationBatching:
    """Batching rounds of permutations must not change the estimate at all."""

    @staticmethod
    def _lumpy_utility(coalition):
        value = len(coalition) ** 1.3
        if {"a", "c"}.issubset(coalition):
            value += 1.5
        if {"b", "d", "e"}.issubset(coalition):
            value -= 0.75
        return value

    def test_batched_equals_the_historical_per_permutation_pattern(self):
        # 120 permutations span two rounds of PERMUTATION_BATCH (64 + 56).
        players = ["a", "b", "c", "d", "e"]
        assert 120 > PERMUTATION_BATCH
        # The reference: one permutation at a time, one scalar call per prefix.
        historical, _ = legacy_permutation_sampling(players, self._lumpy_utility, 120, seed=9)
        batched = permutation_sampling_shapley(
            players, self._lumpy_utility, n_permutations=120, seed=9
        )
        assert batched == historical  # bit-for-bit, not approx

    def test_batched_run_uses_one_batched_evaluation_per_round(self):
        players = ["a", "b", "c", "d"]
        calls = []

        class RecordingCache(CachedUtility):
            def evaluate_batch(self, coalitions):
                calls.append(len(coalitions))
                return super().evaluate_batch(coalitions)

        cache = RecordingCache(self._lumpy_utility)
        permutation_sampling_shapley(players, cache, n_permutations=PERMUTATION_BATCH + 8, seed=1)
        assert calls == [PERMUTATION_BATCH * len(players), 8 * len(players)]

    def test_batch_size_does_not_change_evaluation_coverage(self):
        players = ["a", "b", "c", "d"]
        _, unbatched = legacy_permutation_sampling(players, self._lumpy_utility, 50, seed=3)
        batched = CachedUtility(self._lumpy_utility)
        permutation_sampling_shapley(players, batched, n_permutations=50, seed=3)
        assert batched.cache_contents() == unbatched.cache_contents()
