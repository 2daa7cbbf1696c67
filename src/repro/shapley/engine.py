"""Vectorized bitmask Shapley engine.

Exact Shapley values here are NumPy over an integer-bitmask coalition
encoding (the scalar subset enumeration,
:func:`repro.shapley.native.exact_shapley_from_utilities`, survives only as
the oracle the parity tests compare against):

* **Bitmask layout** — the n players are sorted; bit ``i`` of a coalition's
  index marks the presence of the i-th sorted player.  The full utility table
  is then a flat ``(2^n,)`` float vector indexed by mask, with ``u[0]`` the
  empty-coalition utility.
* **Subset-sum DP** — :func:`subset_sums` turns an ``(m, d)`` matrix of member
  parameter vectors into the ``(2^m, d)`` matrix of coalition sums in m
  vectorized halving steps.  Bits are processed in ascending order, so each
  row accumulates its members exactly as the sequential
  ``ModelParameters.mean`` fold over the sorted coalition does — the results
  are bit-for-bit identical, not merely close.
* **Batched scoring** — :meth:`repro.shapley.utility.AccuracyUtility.score_batch`
  evaluates every coalition model with one GEMM and a running top-2 over
  class-major logits instead of 2^m separate model instantiations and softmax
  passes.
* **Single-pass assembly** — :func:`exact_shapley_from_utility_vector` walks
  the utility vector once with precomputed ``1/(n·C(n-1, s))`` weight tables
  (O(2^n) vectorized work instead of O(n·2^n) Python loops).

:func:`coalition_utility_vector` is what the GroupSV kernel
(:func:`repro.shapley.group.evaluate_group_game`) and the model-averaging game
(:class:`repro.shapley.utility.CoalitionModelUtility`) run; all it asks of
a scorer is ``score_batch((k, d)) -> (k,)``.  The tuple-keyed view
(:func:`mask_coalition`) bridges to the oracle and to published receipts,
never the other way round.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import ShapleyError, ValidationError

# 2^24 utility slots (128 MB of float64) is the largest game the vectorized
# tables are allowed to materialize; beyond that exact SV is infeasible anyway.
MAX_PLAYERS = 24

# The (2^m, d) coalition-model matrix is capped at this many float64 elements
# (~2 GB); larger games must use the scalar per-coalition path, which is slow
# but constant-memory.
MAX_MODEL_MATRIX_ELEMENTS = 1 << 28

def _check_n_players(n: int) -> int:
    n = int(n)
    if n < 1:
        raise ShapleyError("the bitmask engine requires at least one player")
    if n > MAX_PLAYERS:
        raise ShapleyError(
            f"exact SV over {n} players needs 2^{n} coalition slots; "
            f"the engine caps at {MAX_PLAYERS} players"
        )
    return n


# ----------------------------------------------------------------------
# Bitmask <-> tuple adapters
# ----------------------------------------------------------------------

def player_bits(players: Iterable[str]) -> dict[str, int]:
    """Map each player id to its bit index (players are sorted first)."""
    ordered = sorted(players)
    if len(set(ordered)) != len(ordered):
        raise ShapleyError("player ids must be unique")
    _check_n_players(len(ordered))
    return {player: index for index, player in enumerate(ordered)}


def coalition_mask(coalition: Iterable[str], bits: Mapping[str, int]) -> int:
    """The integer bitmask of a coalition under a ``player_bits`` assignment."""
    mask = 0
    for player in coalition:
        try:
            mask |= 1 << bits[player]
        except KeyError:
            raise ShapleyError(f"coalition names unknown player {player!r}") from None
    return mask


def mask_coalition(mask: int, players: Sequence[str]) -> tuple[str, ...]:
    """The sorted coalition tuple encoded by ``mask`` over sorted ``players``."""
    return tuple(players[i] for i in range(len(players)) if mask >> i & 1)


# ----------------------------------------------------------------------
# Precomputed per-n tables
# ----------------------------------------------------------------------

@lru_cache(maxsize=8)
def popcount_table(n: int) -> np.ndarray:
    """``(2^n,)`` uint8 array: entry ``mask`` is the coalition size |S|."""
    _check_n_players(n)
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        counts = np.concatenate([counts, counts + np.uint8(1)])
    counts.setflags(write=False)
    return counts


@lru_cache(maxsize=32)
def shapley_weight_table(n: int) -> np.ndarray:
    """``(n,)`` array of the exact-SV weights ``w[s] = 1/(n·C(n-1, s))``."""
    _check_n_players(n)
    weights = np.array([1.0 / (n * comb(n - 1, s)) for s in range(n)], dtype=np.float64)
    weights.setflags(write=False)
    return weights


# ----------------------------------------------------------------------
# Coalition model construction (subset-sum DP)
# ----------------------------------------------------------------------

def subset_sums(vectors: np.ndarray) -> np.ndarray:
    """All-subset sums of the rows of an ``(m, d)`` matrix, as a ``(2^m, d)`` array.

    Row ``mask`` holds the sum of the member rows whose bits are set in
    ``mask``; row 0 is all zeros.  Each doubling step adds one member to every
    subset that contains it, so the whole table costs O(2^m · m) vector ops.
    Members are folded in ascending bit order, which makes every row bit-for-bit
    equal to the sequential left-to-right sum over the sorted coalition (the
    accumulation order of ``ModelParameters.mean``).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValidationError("subset_sums expects an (m, d) matrix of member vectors")
    m, d = vectors.shape
    _check_n_players(m)
    sums = np.zeros((1 << m, d), dtype=np.float64)
    for j in range(m):
        step = 1 << j
        view = sums.reshape(-1, 2 * step, d)
        view[:, step:] = view[:, :step] + vectors[j]
    return sums


def fold_mean(rows: np.ndarray) -> np.ndarray:
    """Sequential left-to-right average of the rows of a ``(k, d)`` matrix.

    This is the scalar counterpart of :func:`coalition_means`: ascending fold
    then scale by the reciprocal, the exact accumulation order of
    ``ModelParameters.mean`` over a sorted coalition.  Every scalar fallback
    shares this one implementation so the bit-for-bit parity with the batched
    DP cannot drift copy by copy.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValidationError("fold_mean expects a non-empty (k, d) matrix")
    total = rows[0].copy()
    for extra in rows[1:]:
        total += extra
    return total * (1.0 / rows.shape[0])


def coalition_means(vectors: np.ndarray) -> np.ndarray:
    """All-coalition model averages: ``(m, d)`` member vectors -> ``(2^m, d)``.

    Row ``mask`` is ``subset_sums(vectors)[mask] * (1 / |S|)`` — the same
    scale-by-reciprocal ``ModelParameters.mean`` applies, so rows
    match the per-coalition averages bit for bit.  Row 0 (the empty coalition)
    is left at zero and must not be scored.
    """
    sums = subset_sums(vectors)
    m = int(np.log2(sums.shape[0]) + 0.5)
    counts = popcount_table(m).astype(np.float64)
    inverse = np.zeros_like(counts)
    inverse[1:] = 1.0 / counts[1:]
    # In place: the sums table is freshly owned, and scaling it directly
    # halves the peak memory of the (2^m, d) construction.
    sums *= inverse[:, None]
    return sums


# ----------------------------------------------------------------------
# Exact Shapley assembly from a utility vector
# ----------------------------------------------------------------------

def exact_shapley_from_utility_vector(utilities: np.ndarray) -> np.ndarray:
    """Exact Shapley values of all n players from a ``(2^n,)`` utility vector.

    Uses the identity

        v_i = Σ_{T ∋ i} w[|T|−1]·u[T] − Σ_{S ∌ i} w[|S|]·u[S]

    with ``w[s] = 1/(n·C(n−1, s))``: the vector is reweighted once into
    "member" and "non-member" contribution arrays, and each player's value is
    one masked reduction — O(2^n) vectorized work in total, versus the
    oracle's O(n·2^n) Python subset enumeration.

    Args:
        utilities: utility per coalition bitmask; ``utilities[0]`` is u(∅).

    Returns:
        ``(n,)`` array of Shapley values, ordered by bit index (sorted players).
    """
    u = np.asarray(utilities, dtype=np.float64).ravel()
    if u.size < 2 or u.size & (u.size - 1):
        raise ShapleyError(
            f"utility vector must have 2^n entries for n >= 1 players, got {u.size}"
        )
    n = u.size.bit_length() - 1
    _check_n_players(n)
    sizes = popcount_table(n)
    weights = shapley_weight_table(n)

    # Per-size coefficient tables: a coalition of size s contributes with
    # weight w[s-1] to each member's value and -w[s] to each non-member's.
    member_weight = np.zeros(n + 1, dtype=np.float64)
    member_weight[1:] = weights
    outsider_weight = np.zeros(n + 1, dtype=np.float64)
    outsider_weight[:n] = weights  # the grand coalition excludes nobody

    member_part = u * member_weight[sizes]
    outsider_part = u * outsider_weight[sizes]
    # v_i = Σ_{mask ∋ i} (member_part + outsider_part)[mask] − Σ_all outsider_part
    combined = member_part + outsider_part
    outsider_total = outsider_part.sum()

    values = np.empty(n, dtype=np.float64)
    for i in range(n):
        step = 1 << i
        values[i] = combined.reshape(-1, 2, step)[:, 1, :].sum() - outsider_total
    return values


# ----------------------------------------------------------------------
# The model-averaging game's utility vector
# ----------------------------------------------------------------------

def coalition_utility_vector(
    vectors: np.ndarray, scorer, empty_value: float = 0.0
) -> np.ndarray:
    """``(2^m,)`` utilities of every coalition of the rows of an ``(m, d)`` matrix.

    Row ``i`` is player bit ``i``.  Runs the batched subset-sum construction
    whenever the ``(2^m, d)`` coalition-model matrix fits the engine's memory
    budget, and otherwise a constant-memory scalar walk (one sequential-fold
    average and one scoring call per coalition) with bit-identical results, so
    callers never trade a slow-but-feasible evaluation for a hard error.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValidationError("coalition_utility_vector expects an (m, d) matrix")
    m, dimension = vectors.shape
    _check_n_players(m)
    utilities = np.empty(1 << m, dtype=np.float64)
    utilities[0] = empty_value
    if (1 << m) * dimension <= MAX_MODEL_MATRIX_ELEMENTS:
        # The scorer bounds its own logits working set (it scores in chunks).
        utilities[1:] = scorer.score_batch(coalition_means(vectors)[1:])
    else:
        for mask in range(1, 1 << m):
            mean = fold_mean(vectors[[bit for bit in range(m) if mask >> bit & 1]])
            utilities[mask] = scorer.score_batch(mean[None, :])[0]
    return utilities

