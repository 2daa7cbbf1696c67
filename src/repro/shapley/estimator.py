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
  zeroed (Ghorbani & Zou's TMC rule).  The batched pipeline scores prefix
  sizes in ascending order and only for the rotations still open, so a
  coalition past every rotation's truncation point is never scored (≈ 96 % of
  a 200-committee round's); its cells read the grand utility, which the walk
  zeroes exactly as before.  The receipt's counters still describe the whole
  sampled coalition set; the off-chain ``scored`` counts what was scored.
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
from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import or_
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import ShapleyError
from repro.shapley.engine import fold_mean
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
    #: Batched-pipeline telemetry (distinct coalitions, cache hits, batch count,
    #: coalitions scored, scoring wall time).  ``None`` from the generic scalar walk.
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


class _PrefixTable:
    """One estimator call's mask → slot table, scored lazily from member logits.

    Slots are numbered in first-seen (rotation-major, prefix-minor) order,
    the order the oracle's ``evaluate_batch`` discovers misses, so the
    counters match it; a slot's score is NaN until a rotation not yet truncated
    reaches it.  Logits are linear in the parameters: a block takes one running
    sum ``C`` of the member logits over its doubled permutation, and the
    k-member prefix of rotation r sums to ``C[r+k] − C[r]``, so one size across
    the open rotations is one gathered slab (labels alike, so ``label == top``
    compares identical floats).  The sums are tested unscaled against
    ``thresholds[k − 1]``; a coalition that does not clear it is re-scored as
    the oracle scores it, ``score_batch(fold_mean(sorted S))``.
    """

    def __init__(self, players: list[str], utility: CoalitionModelUtility) -> None:
        m = len(players)
        self.scorer = utility.scorer
        self.vectors = np.stack([utility.member_vectors[player] for player in players])
        started = time.perf_counter()
        self.scores = np.array([float(utility(tuple(players)))])  # the oracle's own path
        self.logits, self.labels, magnitude = self.scorer.member_logits(self.vectors)
        self.seconds = time.perf_counter() - started
        self.slots: dict[int, int] = {(1 << m) - 1: 0}
        self.batches = self.scored = 1  # the grand coalition's scoring call
        # b caps |fast − oracle| per logit of a k-member mean, in units u = eps/2
        # of magnitude/k.  The oracle's fold (k − 1 adds, a rounded reciprocal,
        # a scale) and (f+1)-term ``[X | 1]·W`` cost k + f + 2; a fast (f+1)-term
        # member dot f + 1, two running sums of ≤ 2m terms (each member at most
        # twice) 8m, the subtraction 1, a scale 2: under 2f + 9m + 6.  Charging
        # d > f + 1 and eps = 2u covers second-order terms and b's own rounding.
        # A mean is clear when ``gap > 1e-9·max(1, |top| + b) + 2b``; as |top| ≤
        # magnitude/k + b, k times that at |top| = magnitude/k + b tests the
        # unscaled sums.  Scaling and subtracting them rounds by ≤ 2u·magnitude,
        # under 2.3e-7 of T's 1e-9·magnitude floor: the 1e-6 slack covers it.
        # A running sum stays under 2·magnitude, so T is ∞ (every coalition
        # suspect) wherever 4·magnitude is not finite.
        magnitude = np.where(np.isfinite(4.0 * magnitude), magnitude, np.inf)
        sizes = np.arange(1.0, m + 1.0)[:, None]
        b = (2 * self.vectors.shape[1] + 9 * m + 8) * np.finfo(np.float64).eps * magnitude / sizes
        tie = self.scorer._TIE_MARGIN * np.maximum(1.0, magnitude / sizes + 2 * b) + 2 * b
        self.thresholds = (1.0 + 1e-6) * sizes * tie

    def block(self, permutation: np.ndarray, grand_utility: float, tolerance: float) -> np.ndarray:
        """The ``(m, m)`` prefix utilities of the m cyclic rotations of ``permutation``; a rotation's
        cells past its first within ``tolerance`` > 0 of ``grand_utility`` read it, unscored."""
        m = permutation.size
        doubled = np.concatenate([permutation, permutation])
        bits = [1 << position for position in doubled.tolist()]
        # Prefix k of rotation r holds the doubled permutation's rows r .. r + k;
        # below the grand coalition no two are the same mask.
        first, slot_of = len(self.slots), self.slots.setdefault
        slots = np.array([
            [slot_of(mask, len(self.slots)) for mask in accumulate(bits[rotation : rotation + m], or_)]
            for rotation in range(m)
        ])
        if first < len(self.slots):
            self.scores = np.concatenate([self.scores, np.full(len(self.slots) - first, np.nan)])
            self.batches += 1
        n_classes, _, n_samples = self.logits.shape
        running, running_labels = np.zeros((n_classes, 2 * m + 1, n_samples)), np.zeros((2 * m + 1, n_samples))
        utilities, rows = np.full((m, m), grand_utility), np.arange(m)  # rows: the open rotations
        # A non-finite logit only ever sends its coalition to the oracle.
        with np.errstate(invalid="ignore", over="ignore"):
            np.cumsum(self.logits[:, doubled], axis=1, out=running[:, 1:])
            np.cumsum(self.labels[doubled], axis=0, out=running_labels[1:])
            started = time.perf_counter()
            for prefix in range(m):
                cells = slots[rows, prefix]
                new = rows[np.isnan(self.scores[cells])]
                if new.size:  # one slab of the open rotations whose prefix is unscored
                    stops = new + prefix + 1
                    slab, labels = running[:, stops], running_labels[stops]
                    slab -= running[:, new]
                    labels -= running_labels[new]
                    scores, suspects = self.scorer.score_logits(slab, labels, self.thresholds[prefix])
                    if suspects.size:
                        scores[suspects] = self.scorer.score_batch(np.stack([
                            fold_mean(self.vectors[np.sort(doubled[row : row + prefix + 1])])
                            for row in new[suspects].tolist()
                        ]))
                    self.scores[slots[new, prefix]] = scores
                    self.scored += new.size
                utilities[rows, prefix] = self.scores[cells]
                if tolerance > 0:
                    rows = rows[~(np.abs(grand_utility - utilities[rows, prefix]) <= tolerance)]
                if not rows.size:
                    break
            self.seconds += time.perf_counter() - started
        return utilities


def _stratified_walk(
    players: list[str],
    block_utilities: Callable[[np.ndarray, float, float], np.ndarray],
    grand_utility: float,
    empty_value: float,
    n_permutations: int,
    seed: int,
    z_score: float,
    confidence: float,
    tolerance: float,
) -> ShapleyEstimate:
    """The stratified estimator proper, over ``block_utilities(permutation, grand_utility,
    tolerance)``: a block's ``(m, m)`` prefix utilities, row r the rotation by r (cells past a
    row's first within ``tolerance`` may read the grand utility: their marginals are zeroed).

    The scalar oracle and the batched pipeline share it, so they differ only
    in how a coalition is scored.  ``evaluations`` / ``telemetry`` are left
    for the caller.
    """
    m = len(players)
    n_blocks = -(-n_permutations // m)
    total = n_blocks * m
    rng = spawn_rng("stratified-shapley", seed, m, n_permutations)
    sums = np.zeros(m, dtype=np.float64)
    sums_of_squares = np.zeros(m, dtype=np.float64)
    for _ in range(n_blocks):
        permutation = rng.permutation(m)
        doubled = np.concatenate([permutation, permutation])
        prefix_utilities = block_utilities(permutation, grand_utility, tolerance)
        marginals = np.diff(prefix_utilities, axis=1, prepend=empty_value)
        if tolerance > 0:
            within = np.abs(grand_utility - prefix_utilities) <= tolerance
            for row in range(m):
                hits = np.flatnonzero(within[row])
                if hits.size:
                    marginals[row, hits[0] + 1 :] = 0.0
        # Per-permutation accumulation in draw order keeps every player's
        # floating-point summation order independent of how coalitions are scored.
        for row in range(m):
            columns = doubled[row : row + m]
            sums[columns] += marginals[row]
            sums_of_squares[columns] += marginals[row] ** 2
    means = sums / total
    # Sample variance with ddof=1; clipped at zero against float cancellation.
    variances = np.maximum(0.0, (sums_of_squares - total * means**2) / (total - 1))
    half_widths = z_score * np.sqrt(variances / total)
    return ShapleyEstimate(
        values={player: float(means[position]) for position, player in enumerate(players)},
        half_widths={player: float(half_widths[position]) for position, player in enumerate(players)},
        n_permutations=total,
        seed=int(seed),
        confidence=float(confidence),
        tolerance=float(tolerance),
        grand_utility=grand_utility,
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

    def block_utilities(permutation: np.ndarray, *_: float) -> np.ndarray:
        doubled = [players[i] for i in permutation] * 2  # rotation r is doubled[r : r + m]
        stacked = [tuple(sorted(doubled[r : r + k + 1])) for r in range(m) for k in range(m)]
        return cached.evaluate_batch(stacked).reshape(m, m)

    estimate = _stratified_walk(
        players, block_utilities, float(cached(tuple(players))), cached.empty_value,
        n_permutations, seed, z_score, confidence, tolerance,
    )
    return replace(estimate, evaluations=cached.evaluations())


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
    :class:`~repro.shapley.utility.CoalitionModelUtility`), which needs the
    scorer's member logits, as an ``AccuracyUtility`` has.  Deterministic in all arguments.
    """
    if sorted(group_labels) != sorted(group_vectors):
        raise ShapleyError("group_labels and group_vectors must cover the same groups")
    if not (hasattr(scorer, "member_logits") and hasattr(scorer, "score_logits")):
        raise ShapleyError(
            "the sampled estimator scores coalitions from member logits: its scorer "
            "needs member_logits and score_logits beside score_batch, as AccuracyUtility has"
        )
    players, z_score = _check_arguments(group_labels, n_permutations, confidence, tolerance)
    table = _PrefixTable(players, CoalitionModelUtility(group_vectors, scorer))
    estimate = _stratified_walk(
        players, table.block, float(table.scores[0]), CoalitionModelUtility.empty_value,
        n_permutations, seed, z_score, confidence, tolerance,
    )
    coalitions = len(table.slots)
    return replace(estimate, evaluations=coalitions, telemetry={
        "coalitions": coalitions,
        "cache_hits": estimate.n_permutations * len(players) - (coalitions - 1),
        "batches": table.batches,
        "scored": table.scored,
        "backend_seconds": table.seconds,
    })
