"""Shapley-value contribution evaluation.

* :mod:`repro.shapley.engine` — the vectorized bitmask engine: subset-sum
  coalition-model construction, batched scoring, and single-pass exact-SV
  assembly over ``(2^n,)`` utility vectors.
* :mod:`repro.shapley.utility` — utility functions ``u(S)`` over coalitions:
  :class:`~repro.shapley.utility.CoalitionModelUtility` is the one
  model-averaging game (the paper's choice; members as ``ModelParameters`` or
  flat vectors) and :class:`~repro.shapley.utility.RetrainUtility` the Fig. 1
  ground truth.  :class:`~repro.shapley.utility.AccuracyUtility` is the
  scorer: ``score_batch`` for every path, member logits for the sampled
  estimator, and ``score`` / ``score_vector`` as the exact scalar path.
* :mod:`repro.shapley.backend` — evaluation backends: where coalition
  retraining executes (in process, or on a process pool).
* :mod:`repro.shapley.native` — the exact ("native") Shapley value, Eq. (1).
* :mod:`repro.shapley.group` — GroupSV, Algorithm 1 of the paper; lines 4-7
  are the one kernel (:func:`~repro.shapley.group.evaluate_group_game`) the
  contract, the audit, and the cross-device harness all run.
* :mod:`repro.shapley.montecarlo` — permutation-sampling and truncated
  Monte-Carlo approximations (extension baselines).
* :mod:`repro.shapley.metrics` — similarity measures between SV vectors
  (cosine similarity used in Fig. 2, plus rank correlation and L2).
"""

from repro.shapley.backend import (
    EvaluationBackend,
    ProcessPoolEvaluationBackend,
    default_backend,
    make_backend,
)
from repro.shapley.engine import (
    coalition_mask,
    coalition_means,
    coalition_utility_vector,
    exact_shapley_from_utility_vector,
    mask_coalition,
    player_bits,
    shapley_weight_table,
    subset_sums,
)
from repro.shapley.group import (
    GroupShapleyResult,
    compute_group_shapley,
    evaluate_group_game,
    make_groups,
)
from repro.shapley.metrics import cosine_similarity, l2_distance, max_abs_error, spearman_correlation
from repro.shapley.montecarlo import permutation_sampling_shapley, truncated_monte_carlo_shapley
from repro.shapley.native import exact_shapley_from_utilities, native_shapley
from repro.shapley.utility import (
    AccuracyUtility,
    CachedUtility,
    CoalitionModelUtility,
    RetrainUtility,
    UtilityFunction,
)

__all__ = [
    "EvaluationBackend",
    "ProcessPoolEvaluationBackend",
    "default_backend",
    "make_backend",
    "coalition_mask",
    "coalition_means",
    "coalition_utility_vector",
    "exact_shapley_from_utility_vector",
    "mask_coalition",
    "player_bits",
    "shapley_weight_table",
    "subset_sums",
    "GroupShapleyResult",
    "compute_group_shapley",
    "evaluate_group_game",
    "make_groups",
    "cosine_similarity",
    "l2_distance",
    "max_abs_error",
    "spearman_correlation",
    "permutation_sampling_shapley",
    "truncated_monte_carlo_shapley",
    "exact_shapley_from_utilities",
    "native_shapley",
    "AccuracyUtility",
    "CachedUtility",
    "CoalitionModelUtility",
    "RetrainUtility",
    "UtilityFunction",
]
