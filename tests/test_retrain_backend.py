"""Tests for evaluation backends (repro.shapley.backend).

The serial path is the reference: the process-pool backend must reproduce its
coalition-retraining scores exactly (the acceptance bar is <= 1e-9; in
practice the scores are bit-for-bit equal because both paths execute the same
``train_and_score`` with the same per-coalition seed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.server import CentralizedTrainer
from repro.shapley import backend as backend_module
from repro.shapley.backend import (
    EvaluationBackend,
    ProcessPoolEvaluationBackend,
    _chunk,
    default_backend,
    make_backend,
)
from repro.shapley.engine import MAX_PLAYERS, mask_coalition
from repro.shapley.native import native_shapley
from repro.shapley.utility import CachedUtility, RetrainUtility


@pytest.fixture(autouse=True)
def multi_cpu(monkeypatch):
    """Pretend the host has 2 CPUs so ``make_backend`` routing is testable
    anywhere (the single-CPU downgrade has its own dedicated tests)."""
    monkeypatch.setattr(backend_module, "_effective_cpu_count", lambda: 2)


@pytest.fixture()
def retrain_game(dataset, owners, scorer):
    """Builder for small retraining games over the shared 4-owner setup.

    Every game's backend is closed at teardown, so a pool a test spun up
    never outlives it (the session-end leak check in ``conftest.py``).
    """
    owner_features = {o.owner_id: o.features for o in owners}
    owner_labels = {o.owner_id: o.labels for o in owners}
    trainer = CentralizedTrainer(dataset.n_features, dataset.n_classes, epochs=4, learning_rate=2.0)
    built = []

    def build(**kwargs):
        built.append(RetrainUtility(owner_features, owner_labels, scorer, trainer=trainer, **kwargs))
        return built[-1]

    yield build
    for utility in built:
        utility.backend.close()


class TestBackendSelection:
    def test_default_backend_is_serial(self):
        assert default_backend().name == "serial"
        assert default_backend().n_workers == 1

    def test_make_backend_routes_on_worker_count(self):
        assert make_backend(None).name == "serial"
        assert make_backend(1).name == "serial"
        parallel = make_backend(2)
        assert parallel.name == "process-pool"
        assert parallel.n_workers == 2

    def test_make_backend_downgrades_on_a_single_cpu_host(self, monkeypatch):
        # A pool on one core is pure overhead (BENCH measured ~0.9x): the
        # routing helper must hand back the serial backend instead.
        monkeypatch.setattr(backend_module, "_effective_cpu_count", lambda: 1)
        assert make_backend(4).name == "serial"
        # An explicitly constructed pool still honours the caller.
        explicit = ProcessPoolEvaluationBackend(n_workers=2)
        assert explicit.name == "process-pool"
        explicit.close()

    def test_retrain_utility_picks_up_n_workers(self, retrain_game):
        assert retrain_game().backend.name == "serial"
        assert retrain_game(n_workers=2).backend.name == "process-pool"
        explicit = EvaluationBackend()
        assert retrain_game(backend=explicit).backend is explicit

    def test_chunking_is_balanced_and_complete(self):
        items = list(range(13))
        chunks = _chunk(items, 4)
        assert [item for chunk in chunks for item in chunk] == items
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1
        assert _chunk(items, 50) == [[i] for i in items]


class TestSerialParallelParity:
    def test_retrain_scores_match_serial_exactly(self, retrain_game):
        serial = retrain_game()
        parallel = retrain_game(n_workers=2)
        players = sorted(serial.owner_features)
        coalitions = [mask_coalition(mask, players) for mask in range(1, 1 << len(players))]

        reference = serial.backend.retrain_scores(serial, coalitions)
        pooled = parallel.backend.retrain_scores(parallel, coalitions)

        assert pooled.shape == reference.shape
        assert np.max(np.abs(pooled - reference)) <= 1e-9
        assert np.array_equal(pooled, reference)  # bit-for-bit in practice

    def test_coalition_utility_vector_parity(self, retrain_game):
        players = sorted(retrain_game().owner_features)
        serial_vector = retrain_game().coalition_utility_vector(players)
        parallel_vector = retrain_game(n_workers=2).coalition_utility_vector(players)
        assert serial_vector[0] == 0.0
        assert np.array_equal(serial_vector, parallel_vector)

    def test_native_shapley_parity(self, retrain_game):
        players = sorted(retrain_game().owner_features)
        serial_values = native_shapley(players, CachedUtility(retrain_game()))
        parallel_values = native_shapley(players, CachedUtility(retrain_game(n_workers=2)))
        for player in players:
            assert parallel_values[player] == pytest.approx(serial_values[player], abs=1e-9)

    def test_scalar_call_matches_vector_entry(self, retrain_game):
        utility = retrain_game()
        players = sorted(utility.owner_features)
        vector = retrain_game(n_workers=2).coalition_utility_vector(players)
        probe = (players[0], players[2])
        mask = 0b101
        assert utility(probe) == vector[mask]


class TestRetrainUtilityBatchPaths:
    def test_evaluate_coalitions_handles_empty_slots(self, retrain_game):
        utility = retrain_game(n_workers=2)
        players = sorted(utility.owner_features)
        coalitions = [(), (players[0],), (), (players[0], players[1])]
        values = utility.evaluate_coalitions(coalitions)
        assert values[0] == utility.empty_value
        assert values[2] == utility.empty_value
        assert values[1] == retrain_game()((players[0],))
        assert values[3] == retrain_game()((players[0], players[1]))

    def test_vector_path_counts_every_retraining(self, retrain_game):
        utility = retrain_game(n_workers=2)
        players = sorted(utility.owner_features)
        assert utility.evaluations() == 0
        utility.coalition_utility_vector(players)
        assert utility.evaluations() == (1 << len(players)) - 1

    def test_cached_wrapper_seeds_its_memo_from_the_vector(self, retrain_game):
        cached = CachedUtility(retrain_game(n_workers=2))
        players = sorted(retrain_game().owner_features)
        vector = cached.coalition_utility_vector(players)
        contents = cached.cache_contents()
        assert len(contents) == (1 << len(players)) - 1
        for coalition, value in contents.items():
            mask = sum(1 << players.index(member) for member in coalition)
            assert value == vector[mask]

    def test_vector_path_refuses_oversized_games(self, retrain_game):
        utility = retrain_game()
        fake_players = [f"p{i}" for i in range(MAX_PLAYERS + 1)]
        assert utility.coalition_utility_vector(fake_players) is None

    def test_unknown_owner_rejected_in_vector_path(self, retrain_game):
        from repro.exceptions import UtilityError

        with pytest.raises(UtilityError):
            retrain_game().coalition_utility_vector(["ghost"])

    def test_small_batches_fall_back_to_serial(self, retrain_game):
        backend = ProcessPoolEvaluationBackend(n_workers=2, min_parallel_coalitions=100)
        utility = retrain_game(backend=backend)
        players = sorted(utility.owner_features)
        coalitions = [(players[0],), (players[1],)]
        values = backend.retrain_scores(utility, coalitions)
        reference = retrain_game().backend.retrain_scores(retrain_game(), coalitions)
        assert np.array_equal(values, reference)


class TestGenericRouting:
    def test_backend_context_manager(self):
        with ProcessPoolEvaluationBackend(n_workers=2) as backend:
            assert backend.name == "process-pool"


class TestWarmCacheVector:
    def test_second_vector_request_is_served_from_the_memo(self, retrain_game):
        inner = retrain_game()
        cached = CachedUtility(inner)
        players = sorted(inner.owner_features)

        first = cached.coalition_utility_vector(players)
        trainings_after_first = inner.evaluations()
        second = cached.coalition_utility_vector(players)

        assert np.array_equal(first, second)
        # No additional retraining sweep: the warm memo served the vector.
        assert inner.evaluations() == trainings_after_first

    def test_partially_warm_cache_still_delegates(self, retrain_game):
        inner = retrain_game()
        cached = CachedUtility(inner)
        players = sorted(inner.owner_features)
        cached((players[0],))  # warm a single coalition only
        vector = cached.coalition_utility_vector(players)
        assert vector is not None
        assert inner.evaluations() >= (1 << len(players)) - 1
