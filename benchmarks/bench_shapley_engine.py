"""Microbenchmark — the vectorized bitmask Shapley engine vs the legacy path.

Two hot paths changed:

* exact-SV assembly: the legacy ``exact_shapley_from_utilities`` enumerates all
  subsets per player (O(n·2^n) Python tuple work); the engine applies
  precomputed ``1/(n·C(n-1, s))`` weight tables to a ``(2^n,)`` utility vector
  with vectorized reductions.  Measured on synthetic utility tables at
  n = 12..14 players.
* coalition scoring: the legacy ``CoalitionModelUtility`` instantiates one
  logistic-regression model per coalition; ``AccuracyUtility.score_batch``
  scores every coalition model with one GEMM and a running top-2 over
  class-major logits.  Measured on
  all 2^m coalition averages of m synthetic group models.

The recorded ``speedup`` entries in ``benchmark.extra_info`` ride in the
pytest-benchmark JSON CI uploads, and the asserts pin the acceptance floor: the engine
must stay ≥ 5x faster than the legacy assembly at n = 12 while agreeing with it
to 1e-9.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.common import format_table
from repro.shapley.engine import (
    coalition_means,
    exact_shapley_from_utility_vector,
    mask_coalition,
)
from repro.shapley.native import exact_shapley_from_utilities
from repro.shapley.utility import AccuracyUtility

# CI smoke runs shrink the workload through the environment (see the
# benchmark-artifacts job in .github/workflows/ci.yml); defaults are the
# full measurement sizes reported in docs/performance.md.
ASSEMBLY_SIZES = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_ASSEMBLY_SIZES", "12,13,14").split(",")
)
SCORING_GROUPS = int(os.environ.get("REPRO_BENCH_SCORING_GROUPS", "10"))
N_FEATURES = 32
N_CLASSES = 6
N_TEST_SAMPLES = 400


def _synthetic_utility_table(n_players: int, seed: int = 0):
    """A random coalition game as both a tuple-keyed table and a bitmask vector."""
    rng = np.random.default_rng(seed)
    players = [f"p{i:02d}" for i in range(n_players)]
    vector = rng.uniform(0.0, 1.0, size=1 << n_players)
    vector[0] = 0.0
    table = {
        mask_coalition(mask, players): float(vector[mask]) for mask in range(1, vector.size)
    }
    table[()] = 0.0
    return players, table, vector


def _measure_assembly():
    """Legacy vs engine exact-SV assembly runtimes and agreement per n."""
    results = {}
    for n_players in ASSEMBLY_SIZES:
        players, table, vector = _synthetic_utility_table(n_players, seed=n_players)

        start = time.perf_counter()
        legacy = exact_shapley_from_utilities(players, table)
        legacy_time = time.perf_counter() - start

        # The engine is fast enough that one run sits near timer resolution;
        # average a few repetitions for a stable number.
        repetitions = 5
        start = time.perf_counter()
        for _ in range(repetitions):
            values = exact_shapley_from_utility_vector(vector)
        engine_time = (time.perf_counter() - start) / repetitions

        max_error = max(abs(values[i] - legacy[player]) for i, player in enumerate(players))
        results[n_players] = {
            "legacy_s": legacy_time,
            "engine_s": engine_time,
            "speedup": legacy_time / engine_time,
            "max_abs_error": max_error,
        }
    return results


def _measure_scoring():
    """Scalar score_vector loop vs one score_batch pass over all coalition models."""
    rng = np.random.default_rng(99)
    test_features = rng.normal(size=(N_TEST_SAMPLES, N_FEATURES))
    test_labels = rng.integers(0, N_CLASSES, size=N_TEST_SAMPLES)
    scorer = AccuracyUtility(test_features, test_labels, N_CLASSES)
    dimension = N_FEATURES * N_CLASSES + N_CLASSES
    members = rng.normal(scale=0.5, size=(SCORING_GROUPS, dimension))
    batch = coalition_means(members)[1:]

    # Warm both paths once (BLAS thread pools, allocator) before timing.
    scorer.score_vector(batch[0])
    scorer.score_batch(batch[:4])
    repetitions = 3

    start = time.perf_counter()
    for _ in range(repetitions):
        scalar = np.array([scorer.score_vector(vector) for vector in batch])
    scalar_time = (time.perf_counter() - start) / repetitions

    start = time.perf_counter()
    for _ in range(repetitions):
        batched = scorer.score_batch(batch)
    batched_time = (time.perf_counter() - start) / repetitions

    return {
        "coalitions": int(batch.shape[0]),
        "scalar_s": scalar_time,
        "batched_s": batched_time,
        "speedup": scalar_time / batched_time,
        "identical": bool(np.array_equal(scalar, batched)),
    }


def _run_all():
    return _measure_assembly(), _measure_scoring()


def bench_shapley_engine_vs_legacy(benchmark):
    """Engine speedups over the scalar Shapley pipeline (assembly + scoring)."""
    assembly, scoring = benchmark.pedantic(_run_all, rounds=1, iterations=1, warmup_rounds=0)

    rows = [
        [
            f"n={n}",
            f"{entry['legacy_s'] * 1e3:.1f}",
            f"{entry['engine_s'] * 1e3:.2f}",
            f"{entry['speedup']:.0f}x",
            f"{entry['max_abs_error']:.1e}",
        ]
        for n, entry in assembly.items()
    ]
    print("\nExact-SV assembly — legacy O(n·2^n) loop vs bitmask engine")
    print(format_table(["players", "legacy / ms", "engine / ms", "speedup", "max |Δ|"], rows))
    print(
        f"\ncoalition scoring over {scoring['coalitions']} coalition models: "
        f"{scoring['scalar_s'] * 1e3:.1f} ms scalar vs {scoring['batched_s'] * 1e3:.1f} ms batched "
        f"({scoring['speedup']:.1f}x, identical={scoring['identical']})"
    )

    benchmark.extra_info["assembly"] = {
        str(n): {key: float(value) for key, value in entry.items()} for n, entry in assembly.items()
    }
    benchmark.extra_info["scoring"] = {
        key: (float(value) if not isinstance(value, bool) else value)
        for key, value in scoring.items()
    }

    # Acceptance floor: the engine is at least 5x faster than the legacy
    # assembly at n = 12 while agreeing to 1e-9 everywhere.  Reduced-size
    # runs (env override) skip the speedup floor — tiny games sit inside
    # timer noise — but never the agreement bar.
    if 12 in assembly:
        assert assembly[12]["speedup"] >= 5.0
    for entry in assembly.values():
        assert entry["max_abs_error"] <= 1e-9
    # Batched scoring must match the per-coalition model loop prediction for
    # prediction; the speedup floor only holds at the full measurement size —
    # reduced CI runs sit inside timer noise on shared runners.  It is set
    # against one BLAS thread (``OPENBLAS_NUM_THREADS=1``, as ``roundbench``
    # pins; ~6x there): on a small shared VM a threaded GEMM can itself run
    # several times slower, and only the batched side has a GEMM large enough
    # to be threaded.
    if SCORING_GROUPS >= 10:
        assert scoring["speedup"] >= 3.0
    assert scoring["identical"]
