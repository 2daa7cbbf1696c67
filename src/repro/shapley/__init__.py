"""Shapley-value contribution evaluation.

* :mod:`repro.shapley.engine` — the vectorized bitmask engine: subset-sum
  coalition-model construction, batched scoring, and single-pass exact-SV
  assembly over ``(2^n,)`` utility vectors.
* :mod:`repro.shapley.utility` — utility functions ``u(S)`` over coalitions
  (test accuracy of a coalition model, the paper's choice, plus alternatives).
  :class:`~repro.shapley.utility.AccuracyUtility` exposes both the scalar
  ``score_vector`` and the batched ``score_batch`` (one einsum over a whole
  ``(k, d)`` stack of flat parameter vectors).
* :mod:`repro.shapley.backend` — evaluation backends: the common batched
  interface behind every utility family, including the process-pool parallel
  coalition-retraining path for :class:`~repro.shapley.utility.RetrainUtility`.
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
    SerialEvaluationBackend,
    default_backend,
    make_backend,
)
from repro.shapley.engine import (
    BitmaskCoalitionEngine,
    coalition_mask,
    coalition_means,
    coalition_utility_vector,
    exact_shapley_from_utility_vector,
    mask_coalition,
    player_bits,
    shapley_weight_table,
    subset_sums,
    utility_table_to_vector,
)
from repro.shapley.group import (
    GroupShapleyResult,
    compute_group_shapley,
    evaluate_group_game,
    group_members,
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
    "SerialEvaluationBackend",
    "ProcessPoolEvaluationBackend",
    "default_backend",
    "make_backend",
    "BitmaskCoalitionEngine",
    "coalition_mask",
    "coalition_means",
    "coalition_utility_vector",
    "exact_shapley_from_utility_vector",
    "mask_coalition",
    "player_bits",
    "shapley_weight_table",
    "subset_sums",
    "utility_table_to_vector",
    "GroupShapleyResult",
    "compute_group_shapley",
    "evaluate_group_game",
    "group_members",
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
