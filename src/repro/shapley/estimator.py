"""Sampled GroupSV: a stratified + truncated permutation estimator with receipts.

Exact GroupSV enumerates all 2^m group coalitions, which caps the number of
aggregation groups at :data:`repro.shapley.engine.MAX_PLAYERS`.  Cross-device
rounds shard a large cohort into dozens-to-hundreds of committees, so the
contribution contract needs an estimator whose cost is chosen, not exponential
— *and* whose output can still be audited from chain state alone.

This module provides that estimator and the receipt type the contract and
:func:`repro.core.audit.audit_chain` share:

* **Position stratification.**  Permutations are drawn in blocks of ``m``
  cyclic rotations of one uniform permutation, so within every block each
  player occupies each position exactly once.  A cyclic shift of a uniform
  random permutation is itself uniform, so the estimator stays unbiased while
  the across-position component of the marginal variance is removed from each
  block.
* **Truncation.**  Once a permutation's running utility is within
  ``tolerance`` of the grand coalition's utility, the remaining marginals are
  zeroed (Ghorbani & Zou's TMC rule).  Unlike
  :func:`repro.shapley.montecarlo.truncated_monte_carlo_shapley`, all prefixes
  are still *evaluated* — model scoring here is one batched GEMM over flat
  vectors, so skipping rows would save little and would break the one
  ``evaluate_batch`` call per block.  Truncation is applied purely as
  variance reduction on the accumulated marginals.
* **Confidence intervals.**  Per-player marginal samples accumulate sum and
  sum-of-squares, yielding a normal-approximation half-width
  ``z · s / sqrt(N)``.  The half-width is part of the on-chain receipt: the
  audit re-runs the estimator from the recorded seed and checks the stored
  estimate lies within the stored bound, instead of exact equality.

Everything here is deterministic in ``(players, member vectors, n_samples,
seed)`` — the properties the audit relies on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate, count
from operator import or_
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import ShapleyError
from repro.shapley.montecarlo import _prefix_coalitions
from repro.shapley.utility import CachedUtility, CoalitionModelUtility, UtilityFunction
from repro.utils.rng import spawn_rng

# Normal-quantile table for the supported confidence levels.  Hard-coded so the
# estimator needs no scipy; values are z such that P(|Z| <= z) = confidence.
_Z_SCORES = {
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.99: 2.5758293035489004,
}

# Truncation tolerance and confidence level are properties of the estimator
# *code version* (like the assembly algorithm itself), not registry-pinned
# knobs: the chain pins (estimator name, n_samples) and the audit recomputes
# with the constants of the code it runs.
TRUNCATION_TOLERANCE = 1e-3
DEFAULT_CONFIDENCE = 0.95


def estimator_seed_for_round(permutation_seed: int, round_number: int) -> int:
    """The canonical estimator seed for a round — a pure function of chain state.

    Derived from the registry's pinned ``permutation_seed`` and the round
    number, so the proposer has no freedom to shop for a favourable sample and
    the auditor can re-derive the seed without trusting the record.
    """
    return (int(permutation_seed) * 1_000_003 + int(round_number) * 7919) & 0x7FFFFFFF


@dataclass(frozen=True)
class ShapleyEstimate:
    """A sampled-SV result: point estimates plus everything a receipt needs."""

    values: dict[str, float]
    half_widths: dict[str, float]
    n_permutations: int
    seed: int
    confidence: float
    tolerance: float
    grand_utility: float
    evaluations: int = field(default=0, compare=False)
    #: Batched-pipeline telemetry (coalitions scored, cache hits, batch count,
    #: scoring wall time).  ``None`` from the generic scalar walk.
    #: Excluded from equality so scalar/batched estimates compare equal.
    telemetry: dict | None = field(default=None, compare=False)

    def within_bounds(self, other: Mapping[str, float]) -> bool:
        """Whether ``other``'s per-player values all lie inside this estimate's CI."""
        if set(other) != set(self.values):
            return False
        return all(
            abs(float(other[player]) - self.values[player]) <= self.half_widths[player]
            for player in self.values
        )


def _batched_stratified(
    players: list[str],
    utility: CoalitionModelUtility,
    n_permutations: int,
    seed: int,
    z_score: float,
    confidence: float,
    tolerance: float,
) -> ShapleyEstimate:
    """The batched block estimator — bit-identical to the scalar oracle
    (:func:`stratified_permutation_shapley`).

    Three restructurings, none of which may change a single output bit:

    * **Incremental prefix rows.**  For one rotation, the m prefix means are
      built in a single ``(m, d)`` matrix by walking the *sorted* players in
      ascending order and slice-assigning / slice-adding each member vector
      into exactly the prefix rows that contain it.  Because the walk is in
      sorted order and the first present member is written by assignment, every
      row reproduces :func:`~repro.shapley.engine.fold_mean`'s left-to-right
      sorted accumulation bit for bit — in ~2m slice ops instead of m full
      coalition folds.
    * **Cross-strata dedupe.**  Coalitions are canonicalized as bitmasks over
      the sorted player positions; one mask→slot dict and a flat score list
      indexed by slot persist across blocks, so each distinct coalition is
      folded and scored exactly once, in the same first-seen (rotation-major,
      prefix-minor) order the scalar path's ``CachedUtility.evaluate_batch``
      discovers misses.  A rotation's masks are one running OR and its
      uncached prefixes one comprehension — no per-prefix loop.
    * **One scoring call per block.**  All of a block's missing rows go to
      ``scorer.score_batch`` in one call (one chunked GEMM).
    """
    m = len(players)
    vectors = np.stack([utility.member_vectors[player] for player in players])
    dimension = vectors.shape[1]
    empty_value = utility.empty_value
    scorer = utility.scorer
    backend_seconds = 0.0
    started = time.perf_counter()
    # The grand coalition goes through the identical single-row scoring path
    # the scalar oracle uses (fold + one-row batch), then seeds the cache.
    grand_utility = float(utility(tuple(players)))
    backend_seconds += time.perf_counter() - started
    # One mask -> slot dict for the whole call; ``scores[slot]`` is that
    # coalition's utility, slots numbered in first-seen order.
    slots: dict[int, int] = {(1 << m) - 1: 0}
    scores: list[float] = [grand_utility]
    n_blocks = -(-n_permutations // m)
    total = n_blocks * m
    rng = spawn_rng("stratified-shapley", seed, m, n_permutations)
    sums = np.zeros(m, dtype=np.float64)
    sums_of_squares = np.zeros(m, dtype=np.float64)
    inverse_sizes = (1.0 / np.arange(1.0, m + 1.0))[:, None]
    n_batches = 1  # the grand-coalition scoring call above
    prefix_rows = np.empty((m, dimension), dtype=np.float64)
    batch = np.empty((m * m, dimension), dtype=np.float64)  # a block's uncached rows
    for _ in range(n_blocks):
        permutation = rng.permutation(m)
        doubled = np.concatenate([permutation, permutation])
        orders = [doubled[rotation : rotation + m] for rotation in range(m)]
        doubled_bits = [1 << position for position in doubled.tolist()]
        masks = [
            list(accumulate(doubled_bits[rotation : rotation + m], or_)) for rotation in range(m)
        ]
        # First-seen pass: a rotation's prefixes are strictly nested, so its
        # uncached ones are distinct and take consecutive slots — the scalar
        # oracle's discovery order (rotation-major, prefix-minor).
        filled = 0
        for order, row_masks in zip(orders, masks):
            new = [prefix for prefix, mask in enumerate(row_masks) if mask not in slots]
            if not new:
                continue
            slots.update(zip((row_masks[prefix] for prefix in new), count(len(slots))))
            entry = np.empty(m, dtype=np.intp)
            entry[order] = np.arange(m)
            # Ascending-player slice fold: player p enters every prefix row
            # >= entry[p]; rows where p is the smallest present member get
            # an assignment (fold_mean's ``rows[0].copy()``), the rest an
            # in-place add — reproducing the sorted fold bit for bit.
            boundary = int(entry[0])
            prefix_rows[boundary:] = vectors[0]
            for player in range(1, m):
                position = int(entry[player])
                if position < boundary:
                    prefix_rows[position:boundary] = vectors[player]
                    prefix_rows[boundary:] += vectors[player]
                    boundary = position
                else:
                    prefix_rows[position:] += vectors[player]
            rows = batch[filled : filled + len(new)]
            np.multiply(prefix_rows[new], inverse_sizes[new], out=rows)
            filled += len(new)
        if filled:
            scoring_started = time.perf_counter()
            batch_scores = scorer.score_batch(batch[:filled])
            backend_seconds += time.perf_counter() - scoring_started
            scores.extend(np.asarray(batch_scores, dtype=np.float64).tolist())
            n_batches += 1
            utility._evaluations += filled
        prefix_utilities = np.array(
            [[scores[slots[mask]] for mask in row_masks] for row_masks in masks], dtype=np.float64
        )
        marginals = np.diff(prefix_utilities, axis=1, prepend=empty_value)
        if tolerance > 0:
            within = np.abs(grand_utility - prefix_utilities) <= tolerance
            for row in range(m):
                hits = np.flatnonzero(within[row])
                if hits.size:
                    marginals[row, hits[0] + 1 :] = 0.0
        for row in range(m):
            columns = orders[row]
            sums[columns] += marginals[row]
            sums_of_squares[columns] += marginals[row] ** 2
    means = sums / total
    variances = np.maximum(0.0, (sums_of_squares - total * means**2) / (total - 1))
    half_widths = z_score * np.sqrt(variances / total)
    telemetry = {
        "coalitions": len(scores),
        "cache_hits": total * m - (len(scores) - 1),
        "batches": n_batches,
        "backend_seconds": backend_seconds,
    }
    return ShapleyEstimate(
        values={player: float(means[position]) for position, player in enumerate(players)},
        half_widths={player: float(half_widths[position]) for position, player in enumerate(players)},
        n_permutations=total,
        seed=int(seed),
        confidence=float(confidence),
        tolerance=float(tolerance),
        grand_utility=grand_utility,
        evaluations=len(scores),
        telemetry=telemetry,
    )


def _check_arguments(
    players: Sequence[str], n_permutations: int, confidence: float, tolerance: float
) -> tuple[list[str], float]:
    """Validate the shared estimator arguments; returns (sorted players, z-score)."""
    if not players:
        raise ShapleyError("at least one player is required")
    if n_permutations < 2:
        raise ShapleyError("n_permutations must be at least 2 (sample variance needs it)")
    if tolerance < 0:
        raise ShapleyError("tolerance must be non-negative")
    z_score = _Z_SCORES.get(float(confidence))
    if z_score is None:
        raise ShapleyError(
            f"confidence must be one of {sorted(_Z_SCORES)}, got {confidence!r}"
        )
    players = sorted(players)
    if len(set(players)) != len(players):
        raise ShapleyError("player ids must be unique")
    return players, z_score


def stratified_permutation_shapley(
    players: Sequence[str],
    utility: UtilityFunction | Callable[[tuple[str, ...]], float],
    n_permutations: int = 128,
    seed: int = 0,
    confidence: float = DEFAULT_CONFIDENCE,
    tolerance: float = TRUNCATION_TOLERANCE,
) -> ShapleyEstimate:
    """Position-stratified, truncated permutation sampling with a CI per player.

    The generic scalar walk: it works for any utility, and it is the oracle
    :func:`sampled_group_shapley`'s batched pipeline is pinned bit-identical
    to.  Permutations are consumed in blocks of ``m = len(players)`` cyclic
    rotations of one uniform draw; ``n_permutations`` is rounded *up* to a
    whole number of blocks and the actual count is reported in the returned
    estimate (receipts must record the actual count, not the request).  Each
    block's m² prefix coalitions are evaluated in one
    :meth:`~repro.shapley.utility.CachedUtility.evaluate_batch` call.

    Args:
        players: participant identifiers (at least one).
        utility: coalition utility ``u(S)`` (wrapped in a cache if needed).
        n_permutations: requested number of sampled permutations (≥ 2, so the
            sample variance is defined).
        seed: RNG seed; the estimate is a pure function of the arguments.
        confidence: CI level — one of 0.90 / 0.95 / 0.99.
        tolerance: truncation threshold on ``|u(grand) − u(prefix)|``; 0
            disables truncation.
    """
    players, z_score = _check_arguments(players, n_permutations, confidence, tolerance)
    m = len(players)
    cached = utility if isinstance(utility, CachedUtility) else CachedUtility(utility)
    empty_value = cached.empty_value
    grand_utility = float(cached(tuple(players)))
    index = {player: position for position, player in enumerate(players)}
    n_blocks = -(-n_permutations // m)
    total = n_blocks * m
    rng = spawn_rng("stratified-shapley", seed, m, n_permutations)
    sums = np.zeros(m, dtype=np.float64)
    sums_of_squares = np.zeros(m, dtype=np.float64)
    for _ in range(n_blocks):
        base = [players[i] for i in rng.permutation(m)]
        orders = [base[rotation:] + base[:rotation] for rotation in range(m)]
        stacked = [prefix for order in orders for prefix in _prefix_coalitions(order)]
        prefix_utilities = cached.evaluate_batch(stacked).reshape(m, m)
        marginals = np.diff(prefix_utilities, axis=1, prepend=empty_value)
        if tolerance > 0:
            within = np.abs(grand_utility - prefix_utilities) <= tolerance
            for row in range(m):
                hits = np.flatnonzero(within[row])
                if hits.size:
                    marginals[row, hits[0] + 1 :] = 0.0
        # Per-permutation accumulation in draw order keeps every player's
        # floating-point summation order independent of batching internals.
        for row, order in enumerate(orders):
            columns = [index[player] for player in order]
            sums[columns] += marginals[row]
            sums_of_squares[columns] += marginals[row] ** 2
    means = sums / total
    # Sample variance with ddof=1; clipped at zero against float cancellation.
    variances = np.maximum(0.0, (sums_of_squares - total * means**2) / (total - 1))
    half_widths = z_score * np.sqrt(variances / total)
    return ShapleyEstimate(
        values={player: float(means[index[player]]) for player in players},
        half_widths={player: float(half_widths[index[player]]) for player in players},
        n_permutations=total,
        seed=int(seed),
        confidence=float(confidence),
        tolerance=float(tolerance),
        grand_utility=grand_utility,
        evaluations=cached.evaluations(),
    )


def sampled_group_shapley(
    group_labels: Sequence[str],
    group_vectors: Mapping[str, np.ndarray],
    scorer,
    n_permutations: int = 128,
    seed: int = 0,
    confidence: float = DEFAULT_CONFIDENCE,
    tolerance: float = TRUNCATION_TOLERANCE,
) -> ShapleyEstimate:
    """Sampled GroupSV over aggregated group models (Algorithm 1, sampled).

    The group game's players are the group labels; utilities average the
    groups' flat model vectors and score the result, exactly as the exact path
    does — only the SV assembly differs.  Always runs the batched pipeline
    (bit-identical to :func:`stratified_permutation_shapley` over the same
    :class:`~repro.shapley.utility.CoalitionModelUtility`).  Deterministic in
    all arguments.
    """
    if sorted(group_labels) != sorted(group_vectors):
        raise ShapleyError("group_labels and group_vectors must cover the same groups")
    players, z_score = _check_arguments(group_labels, n_permutations, confidence, tolerance)
    return _batched_stratified(
        players, CoalitionModelUtility(group_vectors, scorer),
        n_permutations, seed, z_score, confidence, tolerance,
    )
