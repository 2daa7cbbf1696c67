"""Utility functions u(S) over coalitions of participants.

A utility function maps a coalition (a subset of participant identifiers) to a
real number — in the paper, the test accuracy of the model built from that
coalition's data or model updates.  Two families are provided:

* :class:`RetrainUtility` — trains a model from scratch on the pooled data of
  the coalition.  This is how the paper's *ground truth* SV (Fig. 1) is built;
  it requires raw data access and therefore cannot run on chain.
* :class:`CoalitionModelUtility` — evaluates a model obtained by *averaging*
  pre-trained member models (the FL-style aggregation of Song et al. adopted by
  GroupSV, Algorithm 1 line 4).  This only needs model parameters — as
  ``ModelParameters`` or as the flat vectors the chain holds — which is why it
  is compatible with secure aggregation.

Both are wrapped in :class:`CachedUtility` for memoization, since exact SV
evaluates every one of the 2^n coalitions exactly once but approximation
schemes revisit coalitions.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import UtilityError, ValidationError
from repro.fl.logistic_regression import LogisticRegressionModel
from repro.fl.metrics import accuracy, macro_f1
from repro.fl.model import ModelParameters
from repro.fl.server import CentralizedTrainer
from repro.shapley.backend import make_backend
from repro.shapley.engine import MAX_PLAYERS, coalition_utility_vector, fold_mean, mask_coalition


class UtilityFunction:
    """Interface: ``u(coalition) -> float`` with ``u(()) = empty_value``."""

    empty_value: float = 0.0

    def __call__(self, coalition: tuple[str, ...]) -> float:
        """Evaluate the utility of a coalition of participant ids."""
        raise NotImplementedError

    def evaluations(self) -> int:
        """How many (non-empty) coalition evaluations have been performed."""
        return 0

    def coalition_utility_vector(self, players: Sequence[str]) -> np.ndarray | None:
        """Optionally evaluate *all* 2^n coalitions of ``players`` at once.

        Returns a bitmask-indexed ``(2^n,)`` utility vector (see
        :mod:`repro.shapley.engine`), or ``None`` when the utility has no
        vectorized path and callers must fall back to per-coalition calls.
        """
        return None

    def evaluate_coalitions(self, coalitions: Sequence[tuple[str, ...]]) -> list[float]:
        """Evaluate several coalitions, batching model scoring where possible."""
        return [float(self(coalition)) for coalition in coalitions]


class AccuracyUtility(UtilityFunction):
    """Utility = accuracy of given model parameters on a held-out test set.

    This is not itself coalition-aware; it is the scoring piece shared by the
    coalition utilities below and by the on-chain contribution contract.
    """

    def __init__(
        self,
        test_features: np.ndarray,
        test_labels: np.ndarray,
        n_classes: int,
        metric: str = "accuracy",
    ) -> None:
        self.test_features = np.asarray(test_features, dtype=np.float64)
        self.test_labels = np.asarray(test_labels).ravel().astype(int)
        if self.test_features.shape[0] != self.test_labels.size:
            raise ValidationError("test features and labels disagree on sample count")
        if self.test_features.shape[0] == 0:
            raise ValidationError("utility requires a non-empty test set")
        if metric not in ("accuracy", "macro_f1"):
            raise ValidationError(f"unknown metric {metric!r}")
        self.n_classes = int(n_classes)
        if self.n_classes < 2:
            raise ValidationError("utility requires n_classes >= 2")
        if np.any(self.test_labels < 0) or np.any(self.test_labels >= self.n_classes):
            raise ValidationError("test labels outside [0, n_classes)")
        self.metric = metric
        # [X | 1]: the batched kernel's left operand, so the bias rides the GEMM.
        self._augmented = np.hstack([self.test_features, np.ones((self.test_labels.size, 1))])

    def score(self, parameters: ModelParameters) -> float:
        """Score model parameters on the held-out set (the exact scalar path)."""
        model = LogisticRegressionModel(self.test_features.shape[1], self.n_classes)
        model.set_parameters(parameters)
        predictions = model.predict(self.test_features)
        if self.metric == "accuracy":
            return accuracy(self.test_labels, predictions)
        return macro_f1(self.test_labels, predictions, self.n_classes)

    def score_vector(self, vector: np.ndarray) -> float:
        """:meth:`score` of a flat parameter vector (the on-chain representation)."""
        template = LogisticRegressionModel(self.test_features.shape[1], self.n_classes).parameters
        return self.score(template.from_vector(vector))

    # Two logits closer than this (relative) count as a potential argmax tie:
    # softmax can only reorder/merge logits within a few float64 ulps
    # (~2e-16), so the margin is hugely conservative.
    _TIE_MARGIN = 1e-9

    # Per-chunk budget for the (n_classes, chunk, n_samples) logits tensor:
    # 1 MiB of float64, so the planes and the tie test's temporaries fit a
    # 2 MiB L2.  Swept over coalition_utility_vector at m = 10-16: 2^16-2^18
    # fastest, 2^21 up to 1.8x slower; one monolithic tensor is slower still.
    _CHUNK_LOGITS_ELEMENTS = 1 << 17

    def score_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Score a ``(k, d)`` batch of flat parameter vectors in batched passes.

        Each chunk is one GEMM (:meth:`_logits`) and one :meth:`score_logits`
        pass, with no per-vector model instantiation; a model that pass cannot
        decide — a near-tie, or a NaN or infinite top logit — is re-scored
        through the exact scalar path, so the batch equals the
        :meth:`score_vector` loop bit for bit even on adversarial parameters.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        dimension = self._augmented.shape[1] * self.n_classes
        if vectors.ndim != 2 or vectors.shape[1] != dimension:
            raise ValidationError(
                f"expected a (k, {dimension}) batch of flat parameter vectors, "
                f"got shape {vectors.shape}"
            )
        chunk = self.batch_chunk_rows()
        scores = np.empty(vectors.shape[0], dtype=np.float64)
        # One logits buffer for the whole batch: a fresh product per chunk
        # would be page-faulted in again every time.
        buffer = np.empty(self.test_labels.size * self.n_classes * min(chunk, vectors.shape[0]))
        for start in range(0, vectors.shape[0], chunk):
            planes, labels = self._logits(vectors[start : start + chunk], buffer)
            scores[start : start + chunk], suspects = self.score_logits(planes, labels)
            for model in suspects:
                scores[start + model] = self.score_vector(vectors[start + model])
        return scores

    def member_logits(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Class-planar ``(c, k, n)`` logits of ``(k, d)`` flat models by one
        GEMM, their ``(k, n)`` label logits (the same floats), and per sample
        the largest over classes of ``Σ_j |[x | 1]| · |W_j|``, the scale of any
        rounding error in a sum of them.  A mean of models has the mean logits.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        buffer = np.empty(self.n_classes * len(vectors) * len(self._augmented))
        planes, labels = self._logits(vectors, buffer)
        weights = np.abs(vectors).sum(axis=0).reshape(-1, self.n_classes)
        return planes, labels, (np.abs(self._augmented) @ weights).max(axis=1)

    def _logits(self, vectors: np.ndarray, buffer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class-planar ``(c, k, n)`` logits of ``vectors`` in ``buffer``, and the label logits."""
        n_samples, n_columns = self._augmented.shape
        # A flat vector is the (f+1, c) matrix [weights; bias] row-major, so
        # the batch regrouped class-major is the (c·k, f+1) operand: one GEMM
        # against [X | 1]ᵀ gives (c, k, n) logits with the bias already in.
        operand = np.ascontiguousarray(
            vectors.reshape(-1, n_columns, self.n_classes).transpose(2, 0, 1)
        ).reshape(-1, n_columns)
        product = buffer[: operand.shape[0] * n_samples].reshape(operand.shape[0], n_samples)
        np.matmul(operand, self._augmented.T, out=product)
        planes = product.reshape(self.n_classes, -1, n_samples)
        return planes, np.take_along_axis(planes, self.test_labels[None, None, :], axis=0)[0]

    def score_logits(
        self, planes: np.ndarray, labels: np.ndarray, threshold: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(scores, suspects)`` of k models from their logits — the one tie test.

        ``planes`` holds one ``(k, n)`` plane per class and ``labels`` the
        label logits (the same floats).  Softmax is strictly monotone, so a
        model is decided when every sample's top logit leads the runner-up by
        more than ``threshold``: by default the tie margin at ``max(|top|, 1)``,
        else the caller's, which must also cover its logits' distance from
        :meth:`score_vector`'s.  ``scores`` is exact for every model not in
        ``suspects``, which the caller re-scores exactly.
        """
        # Running top-2 over the class planes.  Selection only, no arithmetic,
        # so the gap is the difference of two actual logits.
        top = np.maximum(planes[0], planes[1])
        second = np.minimum(planes[0], planes[1])
        for plane in planes[2:]:
            np.maximum(second, np.minimum(top, plane), out=second)
            np.maximum(top, plane, out=top)
        # A NaN or infinite top logit fails the default test too.
        if threshold is None:
            threshold = self._TIE_MARGIN * np.maximum(np.abs(top), 1.0)
        clear = (top - second > threshold).all(axis=1)
        if self.metric == "accuracy":
            # Exact for every clear model: its top-1 is strict, so the label's
            # logit equals it iff the label is the prediction.
            scores = np.count_nonzero(labels == top, axis=1) / labels.shape[1]
        else:
            scores = np.array(
                [macro_f1(self.test_labels, row, self.n_classes) for row in planes.argmax(axis=0)],
                dtype=np.float64,
            )
        return scores, np.flatnonzero(~clear)

    def batch_chunk_rows(self) -> int:
        """Rows per internal :meth:`score_batch` chunk.

        Chunks are scored independently, so ``score_batch(rows[a:b])`` equals
        ``score_batch(rows)[a:b]`` bit for bit whenever ``a`` and ``b`` are
        multiples of this size.
        """
        n_samples = self.test_features.shape[0]
        return max(1, self._CHUNK_LOGITS_ELEMENTS // (n_samples * self.n_classes))

    def __call__(self, coalition: tuple[str, ...]) -> float:  # pragma: no cover - guidance only
        raise UtilityError(
            "AccuracyUtility scores model parameters; wrap it in RetrainUtility or "
            "CoalitionModelUtility to evaluate coalitions"
        )


class RetrainUtility(UtilityFunction):
    """u(S) = test accuracy of a model retrained from scratch on S's pooled data.

    Retraining 2^n coalition models is the cost that motivates GroupSV, but it
    is also embarrassingly parallel: every coalition is an independent
    ``fit``.  The utility therefore routes all multi-coalition work through an
    :class:`~repro.shapley.backend.EvaluationBackend` — pass ``n_workers > 1``
    (or an explicit ``backend``) to retrain coalitions on a process pool with
    the owners' training matrices shared read-only; the default stays the
    serial reference path.  Both paths call the same
    :meth:`train_and_score` with the same :meth:`coalition_seed`, so parallel
    scores match serial ones exactly regardless of scheduling.
    """

    def __init__(
        self,
        owner_features: Mapping[str, np.ndarray],
        owner_labels: Mapping[str, np.ndarray],
        scorer: AccuracyUtility,
        trainer: CentralizedTrainer | None = None,
        seed: int = 0,
        backend=None,
        n_workers: int | None = None,
    ) -> None:
        if set(owner_features) != set(owner_labels):
            raise ValidationError("owner_features and owner_labels must cover the same owners")
        if not owner_features:
            raise ValidationError("at least one owner is required")
        self.owner_features = {k: np.asarray(v, dtype=np.float64) for k, v in owner_features.items()}
        self.owner_labels = {k: np.asarray(v).ravel().astype(int) for k, v in owner_labels.items()}
        self.scorer = scorer
        n_features = next(iter(self.owner_features.values())).shape[1]
        self.trainer = trainer or CentralizedTrainer(n_features, scorer.n_classes)
        self.seed = seed
        self.backend = backend if backend is not None else make_backend(n_workers)
        self._evaluations = 0

    def _check_coalition(self, coalition: tuple[str, ...]) -> tuple[str, ...]:
        coalition = tuple(sorted(coalition))
        unknown = [owner for owner in coalition if owner not in self.owner_features]
        if unknown:
            raise UtilityError(f"coalition names unknown owners: {unknown}")
        return coalition

    def coalition_seed(self, coalition: tuple[str, ...]) -> int:
        """The training seed for one coalition's retraining.

        A pure function of the utility's seed and the coalition (currently the
        shared seed itself, matching the historical serial behaviour), so a
        coalition's model never depends on evaluation order, chunking, or
        which worker process trained it.
        """
        return self.seed

    def train_and_score(self, coalition: tuple[str, ...]) -> float:
        """Train one coalition model and score it (the pure compute kernel).

        This is the unit of work both the serial loop and the process-pool
        backend execute; it performs no bookkeeping so it can run in worker
        processes.
        """
        coalition = self._check_coalition(coalition)
        parameters = self.trainer.train_on_coalition(
            self.owner_features, self.owner_labels, coalition, seed=self.coalition_seed(coalition)
        )
        return float(self.scorer.score(parameters))

    def __call__(self, coalition: tuple[str, ...]) -> float:
        coalition = self._check_coalition(coalition)
        if not coalition:
            return self.empty_value
        self._evaluations += 1
        return self.train_and_score(coalition)

    def evaluations(self) -> int:
        return self._evaluations

    # ------------------------------------------------------------------
    # Batched paths (routed through the evaluation backend)
    # ------------------------------------------------------------------

    def coalition_utility_vector(self, players: Sequence[str]) -> np.ndarray | None:
        """All 2^n retrained-coalition utilities as a bitmask-indexed vector.

        Coalitions are enumerated in bitmask order over the sorted players and
        retrained through the configured backend — in parallel when it is a
        process pool.  Returns ``None`` for games too large to retrain
        exhaustively (callers fall back to per-coalition or sampled paths).
        """
        ordered = sorted(set(players))
        if not ordered or len(ordered) > MAX_PLAYERS:
            return None
        for player in ordered:
            if player not in self.owner_features:
                raise UtilityError(f"coalition names unknown owners: [{player!r}]")
        coalitions = [mask_coalition(mask, ordered) for mask in range(1, 1 << len(ordered))]
        utilities = np.empty(1 << len(ordered), dtype=np.float64)
        utilities[0] = self.empty_value
        utilities[1:] = self.backend.retrain_scores(self, coalitions)
        self._evaluations += len(coalitions)
        return utilities

    def evaluate_coalitions(self, coalitions: Sequence[tuple[str, ...]]) -> list[float]:
        """Evaluate several coalitions, retraining them through the backend."""
        keys = [self._check_coalition(coalition) for coalition in coalitions]
        non_empty = [key for key in keys if key]
        scores = iter(self.backend.retrain_scores(self, non_empty)) if non_empty else iter(())
        self._evaluations += len(non_empty)
        return [float(next(scores)) if key else self.empty_value for key in keys]


class CoalitionModelUtility(UtilityFunction):
    """u(S) = score of the plain average of S's member models — the one model-averaging game.

    ``member_models`` maps a participant id (an owner, or a GroupSV group label)
    to its model, as :class:`~repro.fl.model.ModelParameters` or as the flat
    parameter vector the contribution contract holds; each member is stored
    once, as a flat float64 vector.  This mirrors Algorithm 1 line 4: coalition
    models are aggregated from the already-trained member models, not
    retrained.  Every path evaluates ``score_batch(fold_mean(sorted S))`` —
    the sorted left-to-right accumulation of ``ModelParameters.mean`` — so
    :meth:`__call__`, :meth:`evaluate_coalitions` and
    :meth:`coalition_utility_vector` agree bit for bit.
    """

    def __init__(
        self, member_models: Mapping[str, ModelParameters | np.ndarray], scorer
    ) -> None:
        if not member_models:
            raise ValidationError("at least one member model is required")
        self.member_vectors = {
            member: np.asarray(
                model.to_vector() if isinstance(model, ModelParameters) else model,
                dtype=np.float64,
            ).ravel()
            for member, model in member_models.items()
        }
        if len({vector.size for vector in self.member_vectors.values()}) != 1:
            raise ValidationError("member models disagree on dimension")
        self.scorer = scorer
        self._evaluations = 0

    def _check_coalition(self, coalition: Sequence[str]) -> tuple[str, ...]:
        coalition = tuple(sorted(coalition))
        unknown = [member for member in coalition if member not in self.member_vectors]
        if unknown:
            raise UtilityError(f"coalition names unknown members: {unknown}")
        return coalition

    def _coalition_model(self, coalition: tuple[str, ...]) -> np.ndarray:
        """The averaged model of a sorted, non-empty coalition."""
        return fold_mean(np.stack([self.member_vectors[member] for member in coalition]))

    def __call__(self, coalition: tuple[str, ...]) -> float:
        coalition = self._check_coalition(coalition)
        if not coalition:
            return self.empty_value
        self._evaluations += 1
        return float(self.scorer.score_batch(self._coalition_model(coalition)[None, :])[0])

    def evaluations(self) -> int:
        return self._evaluations

    def coalition_utility_vector(self, players: Sequence[str]) -> np.ndarray | None:
        """All 2^n coalition utilities in one batched pass.

        Returns ``None`` — so callers fall back to per-coalition calls — only
        for an empty game or one past the engine's player cap; a game whose
        ``(2^n, d)`` coalition-model matrix would blow the engine's memory
        budget is walked coalition by coalition inside the engine, with
        bit-identical results.
        """
        players = self._check_coalition(set(players))
        if not players or len(players) > MAX_PLAYERS:
            return None
        utilities = coalition_utility_vector(
            np.stack([self.member_vectors[player] for player in players]),
            self.scorer,
            self.empty_value,
        )
        self._evaluations += utilities.size - 1
        return utilities

    def evaluate_coalitions(self, coalitions: Sequence[tuple[str, ...]]) -> list[float]:
        """Evaluate several coalitions with one batched scoring call.

        Empty coalitions map to ``empty_value``.
        """
        keys = [self._check_coalition(coalition) for coalition in coalitions]
        non_empty = [key for key in keys if key]
        if not non_empty:
            return [self.empty_value] * len(keys)
        rows = np.stack([self._coalition_model(key) for key in non_empty])
        self._evaluations += len(non_empty)
        scores = iter(self.scorer.score_batch(rows))
        return [float(next(scores)) if key else self.empty_value for key in keys]


class CachedUtility(UtilityFunction):
    """Memoizing wrapper around any utility function."""

    def __init__(self, inner: UtilityFunction | Callable[[tuple[str, ...]], float]) -> None:
        self.inner = inner
        self._cache: dict[tuple[str, ...], float] = {}
        self._evaluation_offset = 0
        if isinstance(inner, UtilityFunction):
            self.empty_value = inner.empty_value

    def __call__(self, coalition: tuple[str, ...]) -> float:
        key = tuple(sorted(coalition))
        if not key:
            return self.empty_value
        if key not in self._cache:
            self._cache[key] = float(self.inner(key))
        return self._cache[key]

    def evaluations(self) -> int:
        """Number of distinct coalitions evaluated (cache size)."""
        return len(self._cache) + self._evaluation_offset

    def cache_contents(self) -> dict[tuple[str, ...], float]:
        """A copy of the memo table (useful for audits and tests)."""
        return dict(self._cache)

    def preload(self, utilities: Mapping[tuple[str, ...], float]) -> None:
        """Seed the memo table with precomputed values (empty coalition excluded)."""
        for coalition, value in utilities.items():
            key = tuple(sorted(coalition))
            if key:
                self._cache[key] = float(value)

    # Seeding the memo with every coalition tuple is O(2^n) Python work; past
    # this game size the vector is returned unseeded (the evaluation *count*
    # stays truthful via an offset, but cache_contents() stays sparse).
    _CACHE_SEED_MAX_PLAYERS = 16

    def coalition_utility_vector(self, players: Sequence[str]) -> np.ndarray | None:
        """Delegate to the inner utility's vectorized path, seeding the cache.

        When the inner utility can evaluate the whole power set at once (see
        :meth:`UtilityFunction.coalition_utility_vector`), the resulting table
        is recorded in the memo so ``evaluations()``/``cache_contents()`` report
        the same coverage as the scalar path would.  For games larger than
        ``_CACHE_SEED_MAX_PLAYERS`` the tuple-keyed seeding is skipped (it
        would dwarf the vectorized evaluation itself); ``evaluations()`` still
        counts the batch.
        """
        vector_hook = getattr(self.inner, "coalition_utility_vector", None)
        if vector_hook is None:
            return None
        ordered = sorted(set(players))
        warm = self._vector_from_cache(ordered)
        if warm is not None:
            return warm
        utilities = vector_hook(ordered)
        if utilities is None:
            return None
        if len(ordered) <= self._CACHE_SEED_MAX_PLAYERS:
            for mask in range(1, utilities.size):
                self._cache[mask_coalition(mask, ordered)] = float(utilities[mask])
        else:
            self._evaluation_offset += utilities.size - 1
        if utilities[0] != self.empty_value:
            utilities = utilities.copy()
            utilities[0] = self.empty_value
        return utilities

    def _vector_from_cache(self, ordered: Sequence[str]) -> np.ndarray | None:
        """Assemble the game's utility vector from the memo alone, or None.

        A fully warmed cache (e.g. a second ``native_shapley`` call over the
        same game) must not trigger another 2^n sweep through the inner
        utility; the size guard keeps the cold case O(1).
        """
        size = 1 << len(ordered)
        if not ordered or len(self._cache) < size - 1:
            return None
        vector = np.empty(size, dtype=np.float64)
        vector[0] = self.empty_value
        for mask in range(1, size):
            value = self._cache.get(mask_coalition(mask, ordered))
            if value is None:
                return None
            vector[mask] = value
        return vector

    def cached_values(self, coalitions: Sequence[tuple[str, ...]]) -> np.ndarray | None:
        """Utilities for ``coalitions`` as one lookup, or None if any is uncached.

        Lets callers (the Monte-Carlo estimators) collapse a permutation's
        marginals into a single vector operation when every prefix coalition
        has already been evaluated.
        """
        values = np.empty(len(coalitions), dtype=np.float64)
        for slot, coalition in enumerate(coalitions):
            key = tuple(sorted(coalition))
            if not key:
                values[slot] = self.empty_value
                continue
            value = self._cache.get(key)
            if value is None:
                return None
            values[slot] = value
        return values

    def evaluate_batch(self, coalitions: Sequence[tuple[str, ...]]) -> np.ndarray:
        """Utilities for several coalitions, batch-evaluating the uncached ones.

        Cached coalitions are plain lookups; the rest go through the inner
        utility's :meth:`~UtilityFunction.evaluate_coalitions` (one batched
        scoring pass when it supports it) and are memoized exactly as scalar
        calls would be.
        """
        keys = [tuple(sorted(coalition)) for coalition in coalitions]
        # First-seen order, deduplicated in linear time (a block of the
        # Monte-Carlo estimators repeats ~10^5 keys at m = 313).
        missing = list(dict.fromkeys(key for key in keys if key and key not in self._cache))
        if missing:
            batch_hook = getattr(self.inner, "evaluate_coalitions", None)
            if batch_hook is not None:
                values = batch_hook(missing)
            else:
                values = [float(self.inner(key)) for key in missing]
            for key, value in zip(missing, values):
                self._cache[key] = float(value)
        return np.array(
            [self._cache[key] if key else self.empty_value for key in keys], dtype=np.float64
        )
