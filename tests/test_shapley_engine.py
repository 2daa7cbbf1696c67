"""Parity and regression tests for the vectorized bitmask Shapley engine.

The engine (repro.shapley.engine) must reproduce the legacy scalar pipeline:
``exact_shapley_from_utilities`` is kept as the reference oracle, and every
vectorized stage is checked against its scalar counterpart — the subset-sum
coalition construction bit-for-bit, ``score_batch`` prediction-for-prediction,
and the assembled Shapley values to 1e-9 on random games.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ShapleyError, ValidationError
from repro.fl.model import ModelParameters
from repro.shapley.engine import (
    MAX_PLAYERS,
    coalition_mask,
    coalition_means,
    coalition_utility_vector,
    exact_shapley_from_utility_vector,
    mask_coalition,
    player_bits,
    popcount_table,
    shapley_weight_table,
    subset_sums,
)
from repro.shapley.group import compute_group_shapley, group_shapley_round, make_groups, aggregate_group_models
from repro.shapley.montecarlo import permutation_sampling_shapley, truncated_monte_carlo_shapley
from repro.shapley.native import all_coalitions, exact_shapley_from_utilities, native_shapley
from repro.shapley.utility import AccuracyUtility, CachedUtility, CoalitionModelUtility
from repro.utils.rng import spawn_rng
from tests.helpers import legacy_permutation_sampling


def table_vector(players, table):
    """A tuple-keyed utility table as the engine's bitmask-indexed vector."""
    return np.array([table[mask_coalition(mask, players)] for mask in range(1 << len(players))])


def random_utility_table(players, rng, empty=0.0):
    """A random tuple-keyed coalition-utility table over all subsets."""
    table = {coalition: float(rng.normal()) for coalition in all_coalitions(players) if coalition}
    table[()] = empty
    return table


# ----------------------------------------------------------------------
# Bitmask helpers
# ----------------------------------------------------------------------


class TestBitmaskHelpers:
    def test_player_bits_sorts_players(self):
        assert player_bits(["b", "a"]) == {"a": 0, "b": 1}

    def test_mask_roundtrip(self):
        players = ["a", "b", "c", "d"]
        bits = player_bits(players)
        for coalition in all_coalitions(players):
            mask = coalition_mask(coalition, bits)
            assert mask_coalition(mask, players) == coalition

    def test_unknown_player_rejected(self):
        with pytest.raises(ShapleyError):
            coalition_mask(("ghost",), player_bits(["a"]))

    def test_duplicate_players_rejected(self):
        with pytest.raises(ShapleyError):
            player_bits(["a", "a"])

    def test_popcount_table(self):
        counts = popcount_table(4)
        assert counts.size == 16
        for mask in range(16):
            assert counts[mask] == bin(mask).count("1")

    def test_weight_table_sums_to_one(self):
        # Sum over sizes of C(n-1, s) * w[s] is the total weight each player
        # distributes over its marginal contributions: exactly 1.
        from math import comb

        n = 7
        weights = shapley_weight_table(n)
        assert sum(comb(n - 1, s) * weights[s] for s in range(n)) == pytest.approx(1.0)

    def test_player_cap_enforced(self):
        with pytest.raises(ShapleyError):
            shapley_weight_table(MAX_PLAYERS + 1)


# ----------------------------------------------------------------------
# Exact-SV assembly parity against the legacy oracle
# ----------------------------------------------------------------------


class TestExactAssemblyParity:
    @pytest.mark.parametrize("n_players", range(1, 11))
    def test_matches_legacy_on_random_games(self, n_players):
        players = [f"p{i}" for i in range(n_players)]
        for seed in range(3):
            rng = np.random.default_rng(1000 * n_players + seed)
            table = random_utility_table(players, rng)
            oracle = exact_shapley_from_utilities(players, table)
            vector = table_vector(players, table)
            values = exact_shapley_from_utility_vector(vector)
            for position, player in enumerate(players):
                assert abs(values[position] - oracle[player]) <= 1e-9

    def test_matches_legacy_with_nonzero_empty_utility(self):
        players = ["a", "b", "c"]
        rng = np.random.default_rng(42)
        table = random_utility_table(players, rng, empty=0.37)
        oracle = exact_shapley_from_utilities(players, table)
        values = exact_shapley_from_utility_vector(table_vector(players, table))
        for position, player in enumerate(players):
            assert abs(values[position] - oracle[player]) <= 1e-9

    def test_glove_game_closed_form(self):
        # a holds a left glove, b and c right gloves; known SVs 2/3, 1/6, 1/6.
        players = ["a", "b", "c"]
        bits = player_bits(players)
        vector = np.zeros(8)
        for coalition in all_coalitions(players):
            lefts = int("a" in coalition)
            rights = sum(1 for p in ("b", "c") if p in coalition)
            vector[coalition_mask(coalition, bits)] = float(min(lefts, rights))
        values = exact_shapley_from_utility_vector(vector)
        assert values[0] == pytest.approx(2.0 / 3.0)
        assert values[1] == pytest.approx(1.0 / 6.0)
        assert values[2] == pytest.approx(1.0 / 6.0)

    def test_efficiency_axiom(self):
        rng = np.random.default_rng(7)
        vector = rng.normal(size=64)
        values = exact_shapley_from_utility_vector(vector)
        assert values.sum() == pytest.approx(vector[-1] - vector[0], abs=1e-9)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ShapleyError):
            exact_shapley_from_utility_vector(np.zeros(6))

    def test_rejects_scalar_vector(self):
        with pytest.raises(ShapleyError):
            exact_shapley_from_utility_vector(np.zeros(1))

    def test_missing_coalition_still_raises_in_oracle(self):
        with pytest.raises(ShapleyError):
            exact_shapley_from_utilities(["a", "b"], {("a",): 1.0, ("a", "b"): 2.0})


class TestEmptyValueHandling:
    """The exact_shapley_from_utilities empty-coalition fix (satellite task)."""

    def test_explicit_table_entry_wins(self):
        values = exact_shapley_from_utilities(["a"], {(): 0.5, ("a",): 2.0})
        assert values["a"] == pytest.approx(1.5)

    def test_caller_supplied_empty_value_is_honored(self):
        values = exact_shapley_from_utilities(["a"], {("a",): 2.0}, empty_value=0.5)
        assert values["a"] == pytest.approx(1.5)

    def test_default_remains_zero(self):
        values = exact_shapley_from_utilities(["a"], {("a",): 2.0})
        assert values["a"] == pytest.approx(2.0)

    def test_empty_value_applies_to_every_marginal(self):
        # For two players the empty utility enters both players' size-0 terms.
        table = {("a",): 1.0, ("b",): 1.0, ("a", "b"): 2.0}
        baseline = exact_shapley_from_utilities(["a", "b"], table)
        shifted = exact_shapley_from_utilities(["a", "b"], table, empty_value=1.0)
        assert baseline["a"] - shifted["a"] == pytest.approx(0.5)
        assert baseline["b"] - shifted["b"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Subset-sum DP: bit-for-bit against the sequential fold
# ----------------------------------------------------------------------


class TestSubsetSums:
    def test_matches_sequential_fold_bit_for_bit(self):
        rng = np.random.default_rng(3)
        members = rng.normal(size=(6, 17))
        sums = subset_sums(members)
        for mask in range(1, 64):
            picked = [members[i] for i in range(6) if mask >> i & 1]
            total = picked[0].copy()
            for extra in picked[1:]:
                total = total + extra
            assert np.array_equal(sums[mask], total)

    def test_coalition_means_match_model_parameters_mean(self):
        rng = np.random.default_rng(5)
        template = ModelParameters.from_mapping({"w": np.zeros((3, 4)), "b": np.zeros(4)})
        members = [template.from_vector(rng.normal(size=16)) for _ in range(5)]
        matrix = np.stack([member.to_vector() for member in members])
        means = coalition_means(matrix)
        for mask in range(1, 32):
            picked = [members[i] for i in range(5) if mask >> i & 1]
            expected = ModelParameters.mean(picked).to_vector()
            assert np.array_equal(means[mask], expected)

    def test_empty_row_is_zero(self):
        means = coalition_means(np.ones((3, 4)))
        assert np.array_equal(means[0], np.zeros(4))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValidationError):
            subset_sums(np.zeros(4))


# ----------------------------------------------------------------------
# Batched scoring
# ----------------------------------------------------------------------


class TestScoreBatch:
    def test_matches_score_vector_on_local_models(self, scorer, local_models):
        vectors = np.stack([params.to_vector() for params in local_models.values()])
        batch = scorer.score_batch(vectors)
        scalar = np.array([scorer.score_vector(vector) for vector in vectors])
        assert np.array_equal(batch, scalar)

    def test_matches_score_vector_on_random_vectors(self, dataset, scorer, rng):
        dimension = dataset.n_features * dataset.n_classes + dataset.n_classes
        vectors = rng.normal(size=(32, dimension))
        batch = scorer.score_batch(vectors)
        scalar = np.array([scorer.score_vector(vector) for vector in vectors])
        assert np.array_equal(batch, scalar)

    def test_macro_f1_metric(self, dataset, local_models, rng):
        scorer = AccuracyUtility(
            dataset.test_features, dataset.test_labels, dataset.n_classes, metric="macro_f1"
        )
        dimension = dataset.n_features * dataset.n_classes + dataset.n_classes
        vectors = np.concatenate(
            [
                np.stack([params.to_vector() for params in local_models.values()]),
                rng.normal(size=(8, dimension)),
            ]
        )
        batch = scorer.score_batch(vectors)
        scalar = np.array([scorer.score_vector(vector) for vector in vectors])
        assert np.array_equal(batch, scalar)

    def test_single_vector_promoted_to_batch(self, scorer, local_models):
        vector = next(iter(local_models.values())).to_vector()
        assert scorer.score_batch(vector).shape == (1,)
        assert scorer.score_batch(vector)[0] == scorer.score_vector(vector)

    def test_rejects_wrong_dimension(self, scorer):
        with pytest.raises(ValidationError):
            scorer.score_batch(np.zeros((2, 3)))

    def test_argmax_ties_resolve_like_scalar_path(self):
        # Softmax collapses sub-epsilon logit gaps into exact ties; the batch
        # path must apply the same decision function so both pick the same
        # class (regression for the raw-logit argmax divergence).
        scorer = AccuracyUtility(np.array([[1.0]]), np.array([1]), 2)
        vector = np.array([1e-20, 2e-20, 0.0, 0.0])
        assert scorer.score_batch(vector)[0] == scorer.score_vector(vector)


# ----------------------------------------------------------------------
# Engine end-to-end vs the scalar utility pipeline
# ----------------------------------------------------------------------


class TestBitmaskCoalitionEngine:
    """``coalition_utility_vector`` + ``exact_shapley_from_utility_vector`` end to end."""

    def test_utility_table_matches_scalar_coalition_utility(self, scorer, local_models):
        players = sorted(local_models)
        utilities = coalition_utility_vector(
            np.stack([local_models[owner].to_vector() for owner in players]), scorer
        )
        assert utilities.size == 2 ** len(players)
        game = CoalitionModelUtility(local_models, scorer)
        for mask in range(1, utilities.size):
            coalition = mask_coalition(mask, players)
            # The scalar definition of u(S), independent of every batched path.
            averaged = ModelParameters.mean([local_models[owner] for owner in coalition])
            assert utilities[mask] == scorer.score(averaged)
            assert utilities[mask] == game(coalition)

    def test_shapley_values_match_legacy_oracle(self, scorer, local_models):
        players = sorted(local_models)
        utilities = coalition_utility_vector(
            np.stack([local_models[owner].to_vector() for owner in players]), scorer
        )
        values = exact_shapley_from_utility_vector(utilities)
        table = {
            mask_coalition(mask, players): float(utilities[mask])
            for mask in range(utilities.size)
        }
        oracle = exact_shapley_from_utilities(players, table)
        for owner, value in zip(players, values):
            assert abs(value - oracle[owner]) <= 1e-9

    def test_native_shapley_routes_through_engine(self, scorer, local_models):
        # The vectorized path must agree with a hand-built scalar table.
        utility = CachedUtility(CoalitionModelUtility(local_models, scorer))
        values = native_shapley(sorted(local_models), utility)
        scalar_table = {(): 0.0}
        reference = CoalitionModelUtility(local_models, scorer)
        for coalition in all_coalitions(sorted(local_models)):
            if coalition:
                scalar_table[coalition] = reference(coalition)
        oracle = exact_shapley_from_utilities(sorted(local_models), scalar_table)
        for owner in local_models:
            assert abs(values[owner] - oracle[owner]) <= 1e-9
        # The cache reports full power-set coverage, exactly as the scalar path did.
        assert utility.evaluations() == 2 ** len(local_models) - 1
        assert utility.cache_contents() == {k: v for k, v in scalar_table.items() if k}

    def test_empty_member_map_rejected(self, scorer):
        with pytest.raises(ShapleyError, match="at least one player"):
            coalition_utility_vector(np.zeros((0, 4)), scorer)
        with pytest.raises(ValidationError):
            CoalitionModelUtility({}, scorer)

    def test_utility_vector_falls_back_to_scalar_path_over_budget(
        self, scorer, local_models, monkeypatch
    ):
        import repro.shapley.engine as engine_module

        players = sorted(local_models)
        batched = CoalitionModelUtility(local_models, scorer).coalition_utility_vector(players)
        monkeypatch.setattr(engine_module, "MAX_MODEL_MATRIX_ELEMENTS", 8)
        # Over budget the game is walked coalition by coalition inside the
        # engine (constant memory), with the very same bits.
        inner = CoalitionModelUtility(local_models, scorer)
        assert np.array_equal(inner.coalition_utility_vector(players), batched)
        values = native_shapley(players, CachedUtility(inner))
        assert set(values) == set(local_models)

    def test_coalition_utility_vector_scalar_fallback_matches_engine(
        self, scorer, local_models, monkeypatch
    ):
        import repro.shapley.engine as engine_module

        matrix = np.stack([local_models[owner].to_vector() for owner in sorted(local_models)])
        batched = coalition_utility_vector(matrix, scorer)
        monkeypatch.setattr(engine_module, "MAX_MODEL_MATRIX_ELEMENTS", 8)
        scalar = coalition_utility_vector(matrix, scorer)
        assert np.array_equal(scalar, batched)

    def test_group_shapley_survives_engine_budget(self, scorer, local_models, monkeypatch):
        # Games past the engine's memory budget must complete through the
        # scalar walk instead of raising (regression: the budget error told
        # callers to use a path they could not reach).
        import repro.shapley.engine as engine_module

        baseline = group_shapley_round(local_models, 2, 13, 0, scorer)
        monkeypatch.setattr(engine_module, "MAX_MODEL_MATRIX_ELEMENTS", 8)
        fallback = group_shapley_round(local_models, 2, 13, 0, scorer)
        assert fallback.group_values == baseline.group_values
        assert fallback.user_values == baseline.user_values


# ----------------------------------------------------------------------
# compute_group_shapley regression vs the pre-engine implementation: coalition
# utilities bit for bit; Shapley values to the last few ulps (the vectorized
# assembly sums in a different floating-point order than the scalar oracle)
# ----------------------------------------------------------------------


def legacy_compute_group_shapley(group_models, groups, scorer):
    """The pre-engine Algorithm 1 lines 4-7, kept verbatim as the regression oracle."""
    m = len(groups)
    labels = [f"group-{j}" for j in range(m)]
    label_models = dict(zip(labels, group_models))
    utility = CachedUtility(CoalitionModelUtility(label_models, scorer))
    table = {coalition: utility(coalition) for coalition in all_coalitions(labels)}
    group_value_map = exact_shapley_from_utilities(labels, table)
    group_values = tuple(group_value_map[label] for label in labels)
    user_values = {}
    for group, value in zip(groups, group_values):
        share = value / len(group)
        for user in group:
            user_values[user] = share
    return group_values, user_values, {k: v for k, v in table.items() if k}


class TestComputeGroupShapleyRegression:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_bit_for_bit_on_seeded_workload(self, scorer, local_models, m):
        groups = make_groups(sorted(local_models), m, seed=13, round_number=0)
        group_models = aggregate_group_models(groups, local_models)
        result = compute_group_shapley(group_models, groups, scorer, round_number=0)
        legacy_values, legacy_users, legacy_table = legacy_compute_group_shapley(
            group_models, groups, scorer
        )
        assert result.coalition_utilities == legacy_table
        assert result.group_values == pytest.approx(legacy_values, abs=1e-12)
        assert result.user_values == pytest.approx(legacy_users, abs=1e-12)

    def test_round_trip_through_group_shapley_round(self, scorer, local_models):
        result = group_shapley_round(local_models, 2, 13, 0, scorer)
        groups = make_groups(sorted(local_models), 2, 13, 0)
        group_models = aggregate_group_models(groups, local_models)
        legacy_values, legacy_users, _ = legacy_compute_group_shapley(group_models, groups, scorer)
        assert result.group_values == pytest.approx(legacy_values, abs=1e-12)
        assert result.user_values == pytest.approx(legacy_users, abs=1e-12)


# ----------------------------------------------------------------------
# Monte-Carlo estimators: batched lookups must not change the estimates
# ----------------------------------------------------------------------


def legacy_tmc(players, utility, n_permutations, tolerance, seed):
    players = sorted(players)
    cached = utility if isinstance(utility, CachedUtility) else CachedUtility(utility)
    grand_utility = cached(tuple(players))
    rng = spawn_rng("tmc-shapley", seed, len(players), n_permutations)
    totals = {player: 0.0 for player in players}
    for _ in range(n_permutations):
        order = [players[i] for i in rng.permutation(len(players))]
        previous_utility = cached.empty_value
        coalition = []
        truncated = False
        for player in order:
            if truncated:
                continue
            coalition.append(player)
            current_utility = cached(tuple(coalition))
            totals[player] += current_utility - previous_utility
            previous_utility = current_utility
            if abs(grand_utility - current_utility) <= tolerance:
                truncated = True
    return {player: total / n_permutations for player, total in totals.items()}, cached


class TestMonteCarloParity:
    def test_permutation_sampling_bit_for_bit(self, scorer, local_models):
        players = sorted(local_models)
        fast_cache = CachedUtility(CoalitionModelUtility(local_models, scorer))
        fast = permutation_sampling_shapley(players, fast_cache, n_permutations=25, seed=11)
        slow, slow_cache = legacy_permutation_sampling(
            players, CoalitionModelUtility(local_models, scorer), 25, 11
        )
        assert fast == slow
        # Same distinct coalitions evaluated: the batch path must not inflate
        # the utility-evaluation accounting the benchmarks report.
        assert fast_cache.evaluations() == slow_cache.evaluations()
        assert fast_cache.cache_contents() == slow_cache.cache_contents()

    @pytest.mark.parametrize("tolerance", [0.0, 0.05])
    def test_tmc_bit_for_bit(self, scorer, local_models, tolerance):
        players = sorted(local_models)
        fast_cache = CachedUtility(CoalitionModelUtility(local_models, scorer))
        fast = truncated_monte_carlo_shapley(
            players, fast_cache, n_permutations=25, tolerance=tolerance, seed=11
        )
        slow, slow_cache = legacy_tmc(
            players, CoalitionModelUtility(local_models, scorer), 25, tolerance, 11
        )
        assert fast == slow
        assert fast_cache.evaluations() == slow_cache.evaluations()
        assert fast_cache.cache_contents() == slow_cache.cache_contents()

    def test_tmc_vectorized_on_warm_cache(self, scorer, local_models):
        # Precompute the full utility vector, then TMC consumes pure lookups.
        players = sorted(local_models)
        cache = CachedUtility(CoalitionModelUtility(local_models, scorer))
        assert cache.coalition_utility_vector(players) is not None
        warm = truncated_monte_carlo_shapley(players, cache, n_permutations=25, tolerance=0.05, seed=11)
        slow, _ = legacy_tmc(players, CoalitionModelUtility(local_models, scorer), 25, 0.05, 11)
        assert warm == slow

    def test_generic_callable_still_works(self):
        private = {"a": 1.0, "b": 2.0, "c": 3.0}
        estimate = permutation_sampling_shapley(
            list(private), lambda s: sum(private[p] for p in s), n_permutations=4, seed=0
        )
        for player, value in private.items():
            assert estimate[player] == pytest.approx(value)


# ----------------------------------------------------------------------
# CachedUtility batching plumbing
# ----------------------------------------------------------------------


class TestCachedUtilityBatching:
    def test_evaluate_batch_memoizes_and_reuses(self):
        calls = []

        def utility(coalition):
            calls.append(coalition)
            return float(len(coalition))

        cached = CachedUtility(utility)
        cached(("a",))
        values = cached.evaluate_batch([("a",), ("a", "b"), (), ("a",)])
        assert np.array_equal(values, [1.0, 2.0, 0.0, 1.0])
        # Only the genuinely new coalition was evaluated.
        assert calls == [("a",), ("a", "b")]

    def test_cached_values_requires_full_coverage(self):
        cached = CachedUtility(lambda s: float(len(s)))
        cached(("a",))
        assert cached.cached_values([("a",), ("b",)]) is None
        cached(("b",))
        assert np.array_equal(cached.cached_values([("a",), ("b",), ()]), [1.0, 1.0, 0.0])

    def test_preload_seeds_the_memo(self):
        calls = []

        def utility(coalition):
            calls.append(coalition)
            return -1.0

        cached = CachedUtility(utility)
        cached.preload({("a",): 0.5, (): 9.0})
        assert cached(("a",)) == 0.5
        assert calls == []
        assert cached.evaluations() == 1

    def test_coalition_utility_vector_populates_cache(self, scorer, local_models):
        cached = CachedUtility(CoalitionModelUtility(local_models, scorer))
        vector = cached.coalition_utility_vector(sorted(local_models))
        assert vector is not None
        assert vector.size == 2 ** len(local_models)
        assert cached.evaluations() == vector.size - 1
        reference = CoalitionModelUtility(local_models, scorer)
        for coalition, value in cached.cache_contents().items():
            assert value == reference(coalition)

    def test_coalition_utility_vector_none_for_plain_callables(self):
        cached = CachedUtility(lambda s: float(len(s)))
        assert cached.coalition_utility_vector(["a", "b"]) is None
