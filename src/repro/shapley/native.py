"""The exact ("native") Shapley value, Eq. (1) of the paper.

For player i among n players with utility u(.):

    v_i = (1/n) * sum_{S ⊆ I \\ {i}}  [ u(S ∪ {i}) − u(S) ] / C(n−1, |S|)

The implementation enumerates all coalitions once, caches their utilities, and
then assembles every player's value from the cached table — so the cost is
2^n utility evaluations regardless of n, matching the paper's complexity
discussion (native SV needs 2^n coalition models).

:func:`native_shapley` routes through :mod:`repro.shapley.engine`: utilities
are gathered into a bitmask-indexed vector (in one batched scoring pass when
the utility supports it) and the Shapley weighting is applied with vectorized
reductions.  :func:`exact_shapley_from_utilities` is the scalar subset
enumeration of Eq. (1) — nothing in ``src/`` calls it; it stays importable as
the reference oracle the parity tests compare the engine against.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Callable, Mapping

import numpy as np

from repro.exceptions import ShapleyError
from repro.shapley.engine import _check_n_players, exact_shapley_from_utility_vector, mask_coalition
from repro.shapley.utility import CachedUtility, UtilityFunction


def native_shapley(
    players: list[str],
    utility: UtilityFunction | Callable[[tuple[str, ...]], float],
) -> dict[str, float]:
    """Exact Shapley values for every player.

    Args:
        players: participant identifiers.
        utility: coalition utility ``u(S)``; it is wrapped in a cache so each of
            the 2^n coalitions is evaluated exactly once.  Utilities exposing a
            vectorized power-set evaluation (e.g.
            :class:`~repro.shapley.utility.CoalitionModelUtility`) are scored
            in one batched pass instead of 2^n scalar calls.

    Returns:
        Mapping of player id to its Shapley value.
    """
    if not players:
        raise ShapleyError("native_shapley requires at least one player")
    if len(set(players)) != len(players):
        raise ShapleyError("player ids must be unique")
    players = sorted(players)
    cached = utility if isinstance(utility, CachedUtility) else CachedUtility(utility)

    vector = cached.coalition_utility_vector(players)
    if vector is None:
        _check_n_players(len(players))
        vector = np.array([cached(mask_coalition(mask, players)) for mask in range(1 << len(players))])
    values = exact_shapley_from_utility_vector(vector)
    return {player: float(value) for player, value in zip(players, values)}


def exact_shapley_from_utilities(
    players: list[str],
    utilities: Mapping[tuple[str, ...], float],
    empty_value: float | None = None,
) -> dict[str, float]:
    """Assemble exact Shapley values from a pre-computed coalition-utility table.

    The table must contain every non-empty subset of ``players`` (keys are
    sorted tuples), which lets tests check the combinatorial weighting
    independently of model training.

    This is the scalar reference oracle; the runtime assembly is
    :func:`repro.shapley.engine.exact_shapley_from_utility_vector`.

    Args:
        players: participant identifiers.
        utilities: coalition -> utility table.
        empty_value: utility of the empty coalition when the table has no
            explicit ``()`` entry.  Defaults to 0.0 — the historical behavior —
            but callers holding a :class:`~repro.shapley.utility.UtilityFunction`
            should pass its ``empty_value`` so a non-zero u(∅) is honored
            consistently instead of being silently replaced.
    """
    players = sorted(players)
    n = len(players)
    if () in utilities:
        empty_utility = float(utilities[()])
    elif empty_value is not None:
        empty_utility = float(empty_value)
    else:
        empty_utility = 0.0
    values: dict[str, float] = {}
    for player in players:
        others = [p for p in players if p != player]
        total = 0.0
        for size in range(n):
            weight = 1.0 / (n * comb(n - 1, size))
            for subset in combinations(others, size):
                without = tuple(sorted(subset))
                with_player = tuple(sorted(subset + (player,)))
                if without not in utilities and without != ():
                    raise ShapleyError(f"utility table is missing coalition {without}")
                if with_player not in utilities:
                    raise ShapleyError(f"utility table is missing coalition {with_player}")
                u_without = utilities[without] if without else empty_utility
                total += weight * (utilities[with_player] - u_without)
        values[player] = total
    return values
