"""Monte-Carlo Shapley approximations (extension baselines).

The paper's related-work section cites Ghorbani & Zou and Jia et al., whose
main concern is reducing the 2^n cost of exact SV by sampling.  We implement
the two standard estimators so the benchmark suite can compare GroupSV against
them on accuracy and runtime:

* permutation sampling: average marginal contributions over random permutations;
* truncated Monte-Carlo (TMC): permutation sampling that stops scanning a
  permutation once the running utility is within a tolerance of the grand
  coalition's utility (later marginals are ~0).

Both estimators batch their work through the bitmask engine's utility plumbing:
all marginals of a permutation reduce to one utility-vector lookup over the
permutation's prefix coalitions.  The permutation-sampling estimator batches
*across* permutations as well: the prefix coalitions of a whole round of
:data:`PERMUTATION_BATCH` permutations are stacked into one
:meth:`~repro.shapley.utility.CachedUtility.evaluate_batch` call (and thus one
``score_batch`` pass over every distinct uncached prefix), cutting the
remaining per-permutation Python overhead for large ``n_permutations``.
Cached prefixes never touch Python-level model code at all.  The sampled
values match the historical scalar loops (regression-tested bit-for-bit on
the seeded workloads): permutations are drawn in the same RNG sequence, the
same utilities are combined by the same per-player accumulation order, and
the batched scorer resolves argmax ties exactly as the scalar one does.

TMC is deliberately not batched across permutations: which prefixes it
evaluates depends on where each permutation truncates, so stacking rounds of
permutations would evaluate coalitions past the truncation point and defeat
the estimator's purpose.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import ShapleyError
from repro.shapley.estimator import _prefix_coalitions
from repro.shapley.utility import CachedUtility, UtilityFunction
from repro.utils.rng import spawn_rng

#: Permutations whose prefix coalitions share one batched utility evaluation.
#: The grouping never changes a bit of the estimate, only how many coalitions
#: one ``evaluate_batch`` call sees.
PERMUTATION_BATCH = 64


def permutation_sampling_shapley(
    players: list[str],
    utility: UtilityFunction | Callable[[tuple[str, ...]], float],
    n_permutations: int = 100,
    seed: int = 0,
) -> dict[str, float]:
    """Estimate Shapley values by averaging marginal contributions over permutations.

    Args:
        players: participant identifiers.
        utility: coalition utility ``u(S)`` (wrapped in a cache if needed).
        n_permutations: number of sampled permutations.
        seed: RNG seed; the permutation sequence is independent of batching.
    """
    if not players:
        raise ShapleyError("at least one player is required")
    if n_permutations < 1:
        raise ShapleyError("n_permutations must be positive")
    players = sorted(players)
    cached = utility if isinstance(utility, CachedUtility) else CachedUtility(utility)
    rng = spawn_rng("permutation-shapley", seed, len(players), n_permutations)
    index = {player: position for position, player in enumerate(players)}
    totals = np.zeros(len(players), dtype=np.float64)
    empty_value = cached.empty_value
    # All permutations are drawn upfront (same RNG sequence as drawing one per
    # loop iteration) so rounds of them can share one batched evaluation.
    orders = [[players[i] for i in rng.permutation(len(players))] for _ in range(n_permutations)]
    for start in range(0, n_permutations, PERMUTATION_BATCH):
        round_orders = orders[start : start + PERMUTATION_BATCH]
        stacked = [prefix for order in round_orders for prefix in _prefix_coalitions(order)]
        prefix_utilities = cached.evaluate_batch(stacked).reshape(len(round_orders), len(players))
        marginals = np.diff(prefix_utilities, axis=1, prepend=empty_value)
        # Per-permutation accumulation in draw order keeps every player's
        # floating-point summation order identical to the unbatched loop.
        for row, order in enumerate(round_orders):
            totals[[index[player] for player in order]] += marginals[row]
    return {player: float(totals[index[player]] / n_permutations) for player in players}


def truncated_monte_carlo_shapley(
    players: list[str],
    utility: UtilityFunction | Callable[[tuple[str, ...]], float],
    n_permutations: int = 100,
    tolerance: float = 0.01,
    seed: int = 0,
) -> dict[str, float]:
    """TMC-Shapley: permutation sampling with early truncation.

    Once the running coalition's utility is within ``tolerance`` of the grand
    coalition's utility, the remaining players in the permutation are assigned
    zero marginal contribution for that permutation.  Prefixes that are already
    cached are consumed as one vectorized utility-vector lookup; a permutation
    only falls back to the scalar walk while it still has to *evaluate* new
    coalitions (evaluating past the truncation point would defeat TMC's
    purpose, so the evaluation pattern matches the historical implementation
    exactly).
    """
    if not players:
        raise ShapleyError("at least one player is required")
    if n_permutations < 1:
        raise ShapleyError("n_permutations must be positive")
    if tolerance < 0:
        raise ShapleyError("tolerance must be non-negative")
    players = sorted(players)
    cached = utility if isinstance(utility, CachedUtility) else CachedUtility(utility)
    grand_utility = cached(tuple(players))
    rng = spawn_rng("tmc-shapley", seed, len(players), n_permutations)
    index = {player: position for position, player in enumerate(players)}
    totals = np.zeros(len(players), dtype=np.float64)
    empty_value = cached.empty_value
    for _ in range(n_permutations):
        order = [players[i] for i in rng.permutation(len(players))]
        prefixes = _prefix_coalitions(order)
        known = cached.cached_values(prefixes)
        if known is not None:
            # All prefixes cached: one vectorized pass.  Marginal k is counted
            # for positions up to and including the first prefix within
            # tolerance of the grand utility; the rest contribute nothing.
            marginals = np.diff(known, prepend=empty_value)
            within = np.abs(grand_utility - known) <= tolerance
            if within.any():
                marginals[int(np.argmax(within)) + 1 :] = 0.0
            totals[[index[player] for player in order]] += marginals
            continue
        previous_utility = empty_value
        for position, player in enumerate(order):
            current_utility = cached(prefixes[position])
            totals[index[player]] += current_utility - previous_utility
            previous_utility = current_utility
            if abs(grand_utility - current_utility) <= tolerance:
                break
    return {player: float(totals[index[player]] / n_permutations) for player in players}
