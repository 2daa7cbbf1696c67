"""Tests for the exact Shapley value (repro.shapley.native).

These test the combinatorial machinery against known cooperative games where
the Shapley value has a closed form, and check the Shapley axioms as
property-based invariants.
"""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShapleyError
from repro.shapley.native import exact_shapley_from_utilities, native_shapley
from repro.shapley.utility import CachedUtility
from tests.helpers import all_coalitions


class TestKnownGames:
    def test_additive_game_gives_individual_values(self):
        # u(S) = sum of each member's private value => v_i equals that value.
        private = {"a": 1.0, "b": 2.0, "c": 4.0}
        values = native_shapley(list(private), lambda s: sum(private[p] for p in s))
        for player, expected in private.items():
            assert values[player] == pytest.approx(expected)

    def test_symmetric_players_share_equally(self):
        # u(S) = 1 if |S| >= 2 else 0 ("majority" game with 3 symmetric players).
        values = native_shapley(["a", "b", "c"], lambda s: 1.0 if len(s) >= 2 else 0.0)
        for value in values.values():
            assert value == pytest.approx(1.0 / 3.0)

    def test_null_player_gets_zero(self):
        # Player "d" never changes the utility.
        def utility(coalition):
            return 1.0 if "a" in coalition else 0.0

        values = native_shapley(["a", "d"], utility)
        assert values["d"] == pytest.approx(0.0)
        assert values["a"] == pytest.approx(1.0)

    def test_glove_game(self):
        # Classic glove game: a has a left glove, b and c have right gloves;
        # a pair is worth 1. Known SVs: a = 2/3, b = c = 1/6.
        def utility(coalition):
            lefts = int("a" in coalition)
            rights = sum(1 for p in ("b", "c") if p in coalition)
            return float(min(lefts, rights))

        values = native_shapley(["a", "b", "c"], utility)
        assert values["a"] == pytest.approx(2.0 / 3.0)
        assert values["b"] == pytest.approx(1.0 / 6.0)
        assert values["c"] == pytest.approx(1.0 / 6.0)

    def test_unanimity_game(self):
        # u(S) = 1 iff S contains the full carrier {a, b}; c is a null player.
        def utility(coalition):
            return 1.0 if {"a", "b"}.issubset(coalition) else 0.0

        values = native_shapley(["a", "b", "c"], utility)
        assert values["a"] == pytest.approx(0.5)
        assert values["b"] == pytest.approx(0.5)
        assert values["c"] == pytest.approx(0.0)

    def test_single_player_gets_grand_utility(self):
        values = native_shapley(["only"], lambda s: 5.0 if s else 0.0)
        assert values["only"] == pytest.approx(5.0)


def _table(players, utility):
    return {coalition: utility(coalition) for coalition in all_coalitions(players) if coalition}


class TestReferenceOracle:
    """``exact_shapley_from_utilities``, the scalar oracle the engine is checked against."""

    @pytest.mark.parametrize("utility, expected", [
        (lambda s: float(min(int("a" in s), sum(p in s for p in "bc"))), {"a": 2 / 3, "b": 1 / 6, "c": 1 / 6}),
        (lambda s: float({"a", "b"} <= set(s)), {"a": 0.5, "b": 0.5, "c": 0.0}),
        (lambda s: float(len(s) >= 2), {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}),
    ], ids=["glove", "unanimity", "majority"])
    def test_closed_form_games(self, utility, expected):
        values = exact_shapley_from_utilities(["c", "a", "b"], _table("abc", utility))
        assert values == pytest.approx(expected)

    @pytest.mark.parametrize("explicit, argument, empty", [
        (0.5, None, 0.5), (None, 0.25, 0.25), (None, None, 0.0), (0.5, 0.25, 0.5),
    ], ids=["table-entry", "argument", "default", "table-entry-wins"])
    def test_the_empty_coalitions_utility(self, explicit, argument, empty):
        table = {("a",): 2.0, ("b",): 1.0, ("a", "b"): 4.0}
        if explicit is not None:
            table[()] = explicit
        values = exact_shapley_from_utilities(["a", "b"], table, empty_value=argument)
        assert values["a"] == pytest.approx(0.5 * (2.0 - empty) + 0.5 * (4.0 - 1.0))
        assert sum(values.values()) == pytest.approx(4.0 - empty)

    @pytest.mark.parametrize("missing", [("b",), ("a", "b")])
    def test_a_missing_coalition_is_named(self, missing):
        table = {("a",): 1.0, ("b",): 1.0, ("a", "b"): 2.0}
        del table[missing]
        with pytest.raises(ShapleyError, match=re.escape(f"missing coalition {missing}")):
            exact_shapley_from_utilities(["a", "b"], table)


class TestValidation:
    def test_rejects_empty_player_list(self):
        with pytest.raises(ShapleyError, match="native_shapley requires at least one player"):
            native_shapley([], lambda s: 0.0)

    def test_rejects_duplicate_players(self):
        with pytest.raises(ShapleyError):
            native_shapley(["a", "a"], lambda s: 0.0)

    def test_exact_from_utilities_requires_complete_table(self):
        with pytest.raises(ShapleyError):
            exact_shapley_from_utilities(["a", "b"], {("a",): 1.0, ("a", "b"): 2.0})

    def test_utility_called_once_per_coalition(self):
        calls = []

        def utility(coalition):
            calls.append(coalition)
            return float(len(coalition))

        cached = CachedUtility(utility)
        native_shapley(["a", "b", "c", "d"], cached)
        # 2^4 - 1 non-empty coalitions evaluated exactly once each.
        assert len(calls) == 15


class TestAxiomsAsProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(min_value=-5, max_value=5),
            min_size=2,
            max_size=4,
        ),
        st.data(),
    )
    def test_efficiency_and_symmetry(self, private_values, data):
        players = sorted(private_values)
        # Superadditive-ish random game: base additive part plus a bonus that
        # depends only on coalition size (keeps symmetric players symmetric).
        size_bonus = data.draw(
            st.lists(st.floats(min_value=0, max_value=2), min_size=len(players) + 1, max_size=len(players) + 1)
        )

        def utility(coalition):
            return sum(private_values[p] for p in coalition) + size_bonus[len(coalition)] - size_bonus[0]

        values = native_shapley(players, utility)
        # Efficiency: values sum to u(grand) - u(empty).
        grand = utility(tuple(players))
        assert abs(sum(values.values()) - (grand - utility(()))) < 1e-9
        # Symmetry: two players with equal private value are interchangeable.
        by_value = {}
        for player, private in private_values.items():
            by_value.setdefault(round(private, 10), []).append(player)
        for group in by_value.values():
            for first, second in zip(group, group[1:]):
                assert values[first] == pytest.approx(values[second])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
    def test_additivity(self, n_players, seed):
        import numpy as np

        players = [f"p{i}" for i in range(n_players)]
        rng = np.random.default_rng(seed)
        table_u = {tuple(sorted(c)): float(rng.normal()) for c in all_coalitions(players)}
        table_v = {tuple(sorted(c)): float(rng.normal()) for c in all_coalitions(players)}
        table_u[()] = 0.0
        table_v[()] = 0.0
        table_sum = {key: table_u[key] + table_v[key] for key in table_u}
        sv_u = exact_shapley_from_utilities(players, table_u)
        sv_v = exact_shapley_from_utilities(players, table_v)
        sv_sum = exact_shapley_from_utilities(players, table_sum)
        for player in players:
            assert sv_sum[player] == pytest.approx(sv_u[player] + sv_v[player], abs=1e-9)

    def test_weights_sum_to_one_per_player(self):
        # The Shapley weighting 1/(n * C(n-1, |S|)) over all S ⊆ I\{i} sums to 1.
        n = 6
        total = sum(
            1.0 / (n * math.comb(n - 1, size)) * math.comb(n - 1, size)
            for size in range(n)
        )
        assert total == pytest.approx(1.0)
