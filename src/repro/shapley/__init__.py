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
