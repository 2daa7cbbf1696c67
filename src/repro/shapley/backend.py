"""Evaluation backends: where the retraining primitive executes.

:meth:`EvaluationBackend.retrain_scores` is the bulk primitive behind the
Fig. 1 ground truth: train-and-score one model per coalition
(:class:`~repro.shapley.utility.RetrainUtility`).

:class:`EvaluationBackend` itself executes it in process and is the
reference.  :class:`ProcessPoolEvaluationBackend` spreads it over worker
processes: coalition retraining is embarrassingly parallel (one independent
``fit`` per bitmask coalition), each coalition's training seed is a pure
function of the utility's seed and the coalition (so results cannot depend on
worker scheduling), and on platforms with ``fork`` the owners' training
matrices are shared with the workers read-only via copy-on-write — no
per-task pickling of data.  Parity tests pin the parallel scores to the
serial ones (``<= 1e-9``).
"""

from __future__ import annotations

import multiprocessing
import os
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shapley.utility import RetrainUtility


# ----------------------------------------------------------------------
# Worker plumbing (module level so it is picklable / fork-visible)
# ----------------------------------------------------------------------

# Under the fork start method utilities are published in this token-keyed
# registry in the parent and inherited by every worker through copy-on-write:
# the (potentially large) owner feature matrices are shared read-only, never
# pickled per task.  Per-pool tokens (instead of one global slot) keep
# concurrently live backends — and a backend garbage-collected mid-way
# through another's pool construction — from clobbering each other's entry.
_SHARED_UTILITIES: dict[int, object] = {}
_POOL_TOKENS = iter(range(1, 1 << 62))

# Worker-side binding, set once per worker by the initializers below.
_WORKER_UTILITY = None


def _init_worker_from_registry(token: int) -> None:
    """Fork-path initializer: bind the fork-inherited registry entry."""
    global _WORKER_UTILITY
    _WORKER_UTILITY = _SHARED_UTILITIES[token]


def _init_worker_utility(utility: "RetrainUtility") -> None:
    """Spawn-path initializer: receive the pickled utility once per worker."""
    global _WORKER_UTILITY
    _WORKER_UTILITY = utility


def _worker_retrain_scores(coalitions: list[tuple[str, ...]]) -> list[float]:
    """Train-and-score a chunk of coalitions inside a worker process."""
    utility = _WORKER_UTILITY
    if utility is None:  # pragma: no cover - defensive; initializers set it
        raise RuntimeError("retraining worker was not initialized with a utility")
    return [utility.train_and_score(coalition) for coalition in coalitions]


def _effective_cpu_count() -> int:
    """The CPU count backend selection trusts (monkeypatchable in tests)."""
    return os.cpu_count() or 1


def _chunk(items: list, n_chunks: int) -> list[list]:
    """Split ``items`` into at most ``n_chunks`` contiguous, balanced chunks."""
    n_chunks = max(1, min(n_chunks, len(items)))
    bounds = np.linspace(0, len(items), n_chunks + 1).astype(int)
    return [items[start:stop] for start, stop in zip(bounds, bounds[1:]) if stop > start]


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------

class EvaluationBackend:
    """The serial backend, and the interface a pooled one overrides.

    Backends are context managers so pooled resources are released
    deterministically (the serial backend holds none).
    """

    name = "serial"
    n_workers = 1

    # -- the retraining primitive (Fig. 1 ground truth) ------------------

    def retrain_scores(
        self, utility: "RetrainUtility", coalitions: Sequence[tuple[str, ...]]
    ) -> np.ndarray:
        """Train one model per (non-empty) coalition and score it.

        The serial reference path: a plain loop over
        :meth:`~repro.shapley.utility.RetrainUtility.train_and_score`.
        """
        return np.array(
            [utility.train_and_score(coalition) for coalition in coalitions], dtype=np.float64
        )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release any pooled resources (no-op for the serial backend)."""

    def __enter__(self) -> "EvaluationBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProcessPoolEvaluationBackend(EvaluationBackend):
    """Parallel coalition retraining over a process pool.

    Coalition *retraining* (seconds of GIL-holding NumPy work per coalition,
    the Fig. 1 ground truth) is the one primitive parallelized; model scoring
    is single BLAS calls that gain nothing from multiprocessing.  Guarantees:

    * **Determinism** — every coalition's training seed comes from
      :meth:`~repro.shapley.utility.RetrainUtility.coalition_seed`, a pure
      function of the utility's seed and the coalition, so scores are
      independent of chunking and worker scheduling.
    * **Parity** — workers execute the very same ``train_and_score`` the
      serial backend loops over; results are pinned to the serial path by
      parity tests (``<= 1e-9``, in practice bit-for-bit).
    * **Shared read-only data** — with the ``fork`` start method the owners'
      training matrices are inherited copy-on-write; only coalition tuples
      and float scores cross process boundaries.  Without ``fork`` the
      utility is pickled once per worker (never per task).
    * **Serial fallback** — one worker, tiny batches, or a pool that fails
      to start all fall back to the serial loop instead of erroring.
    """

    name = "process-pool"

    def __init__(
        self,
        n_workers: int | None = None,
        min_parallel_coalitions: int = 4,
        chunks_per_worker: int = 4,
    ) -> None:
        self.n_workers = int(n_workers) if n_workers else (os.cpu_count() or 1)
        if self.n_workers < 1:
            raise ValidationError("n_workers must be at least 1")
        self.min_parallel_coalitions = int(min_parallel_coalitions)
        self.chunks_per_worker = max(1, int(chunks_per_worker))
        self._pool = None
        self._pool_utility = None
        self._pool_token: int | None = None

    def retrain_scores(
        self, utility: "RetrainUtility", coalitions: Sequence[tuple[str, ...]]
    ) -> np.ndarray:
        coalitions = list(coalitions)
        if self.n_workers <= 1 or len(coalitions) < self.min_parallel_coalitions:
            return super().retrain_scores(utility, coalitions)
        try:
            pool = self._get_pool(utility)
        except OSError:  # pool could not start (fd/memory limits): stay correct
            return super().retrain_scores(utility, coalitions)
        chunk_scores = pool.map(
            _worker_retrain_scores, _chunk(coalitions, self.n_workers * self.chunks_per_worker)
        )
        return np.array([score for chunk in chunk_scores for score in chunk], dtype=np.float64)

    def _get_pool(self, utility):
        """The persistent worker pool bound to ``utility`` (created lazily).

        Workers capture the utility at startup (fork inheritance or one
        spawn-time pickle), so the pool is reused across calls for the same
        utility — the common case, e.g. a Monte-Carlo estimator issuing many
        batches — and rebuilt only when a different utility arrives.
        """
        if self._pool is not None and self._pool_utility is utility:
            return self._pool
        self.close()
        methods = multiprocessing.get_all_start_methods()
        token = next(_POOL_TOKENS)
        if "fork" in methods:
            context = multiprocessing.get_context("fork")
            # Publish before forking; the entry stays registered while the
            # pool lives so a worker respawned after a crash still finds it.
            _SHARED_UTILITIES[token] = utility
            initializer, initargs = _init_worker_from_registry, (token,)
        else:  # pragma: no cover - non-fork platforms (Windows/macOS spawn)
            context = multiprocessing.get_context()
            initializer, initargs = _init_worker_utility, (utility,)
        try:
            self._pool = context.Pool(self.n_workers, initializer=initializer, initargs=initargs)
        except BaseException:  # a failed construction must not leak the entry
            _SHARED_UTILITIES.pop(token, None)
            raise
        self._pool_utility = utility
        self._pool_token = token
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool and drop the bound utility."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self._pool_token is not None:
            _SHARED_UTILITIES.pop(self._pool_token, None)
            self._pool_token = None
        self._pool_utility = None

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass


_DEFAULT_BACKEND = EvaluationBackend()


def default_backend() -> EvaluationBackend:
    """The process-wide serial backend used when callers configure nothing."""
    return _DEFAULT_BACKEND


def make_backend(n_workers: int | None) -> EvaluationBackend:
    """A backend for the requested worker count (``None``/``1`` → serial).

    On single-CPU hosts a process pool is pure overhead (workers time-slice
    one core while paying spin-up and IPC), so the request is downgraded to
    the serial backend; explicitly constructing
    :class:`ProcessPoolEvaluationBackend` still honours the caller.
    """
    if n_workers is None or int(n_workers) <= 1 or _effective_cpu_count() <= 1:
        return default_backend()
    return ProcessPoolEvaluationBackend(n_workers=int(n_workers))
