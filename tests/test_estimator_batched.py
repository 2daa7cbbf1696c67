"""Parity pins for the batched sampled-Shapley pipeline.

The batched estimator (incremental prefix rows + bitmask score cache + one
``score_batch`` GEMM per block) is a pure performance restructuring of the
scalar oracle walk: every output — values, half-widths, evaluation counts,
exceptions, and therefore every on-chain receipt — must be bit-identical.
``sampled_group_shapley`` *is* the batched pipeline; the oracle is
``stratified_permutation_shapley`` over the same ``CoalitionModelUtility``
game, called directly.  These tests pin that contract:

* a Hypothesis sweep comparing the batched path against the scalar oracle
  across random player counts, sample counts, and seeds;
* multi-block games (cached prefixes recurring across blocks): counters
  pinned to literals, and a recording scorer double showing the batch rows
  reach the scorer in the oracle's first-seen order, bit for bit;
* audit cross-parity — the receipts a chain carries are the oracle's numbers,
  and receipts written from the oracle verify under the auditor;
* the telemetry receipt: deterministic counters on chain, none from the
  oracle, and wall-clock time kept off-chain.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.audit import AuditReport, _audit_sampled_round, audit_chain
from repro.core.config import ProtocolConfig
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets
from repro.shapley.estimator import (
    estimator_seed_for_round,
    sampled_group_shapley,
    stratified_permutation_shapley,
)
from repro.shapley.utility import AccuracyUtility, CachedUtility, CoalitionModelUtility

N_CLASSES = 3
N_FEATURES = 4
#: Flat logistic-regression dimension AccuracyUtility scores against.
DIMENSION = N_FEATURES * N_CLASSES + N_CLASSES


def _group_game(m: int, n_samples: int, seed: int):
    """A deterministic group game: random member vectors + accuracy scorer."""
    rng = np.random.default_rng(seed)
    labels = [f"group-{j}" for j in range(m)]
    vectors = {label: rng.normal(size=DIMENSION) for label in labels}
    scorer = AccuracyUtility(
        rng.normal(size=(n_samples, N_FEATURES)),
        rng.integers(0, N_CLASSES, size=n_samples),
        N_CLASSES,
    )
    return labels, vectors, scorer


def _oracle(labels, vectors, scorer, n_permutations, seed):
    """The generic scalar walk over the group game — what batched must equal."""
    return stratified_permutation_shapley(
        labels, CoalitionModelUtility(vectors, scorer), n_permutations=n_permutations, seed=seed
    )


def _ordered(estimate, labels):
    return np.array([estimate.values[label] for label in labels]), np.array(
        [estimate.half_widths[label] for label in labels]
    )


class TestBatchedMatchesScalarOracle:
    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=9),
        n_permutations=st.integers(min_value=2, max_value=24),
        n_samples=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_bit_identical_across_games(self, m, n_permutations, n_samples, seed):
        labels, vectors, scorer = _group_game(m, n_samples, seed)
        scalar = _oracle(labels, vectors, scorer, n_permutations, seed)
        batched = sampled_group_shapley(
            labels, vectors, scorer, n_permutations=n_permutations, seed=seed
        )
        # Dataclass equality covers values, half_widths, n_permutations, seed,
        # confidence, tolerance, and grand_utility; np.array_equal re-checks
        # the numeric fields with no tolerance at all.
        assert batched == scalar
        scalar_values, scalar_widths = _ordered(scalar, labels)
        batched_values, batched_widths = _ordered(batched, labels)
        assert np.array_equal(batched_values, scalar_values)
        assert np.array_equal(batched_widths, scalar_widths)
        # The bitmask cache must dedupe exactly as deeply as the scalar
        # CachedUtility: same count of distinct coalitions scored.
        assert batched.evaluations == scalar.evaluations

    # (m, n_permutations, seed) -> (blocks, coalitions, cache_hits, batches); the
    # counters are literals taken before the first-seen pass lost its per-prefix
    # loop.  Singletons and their complements recur in every block, so later
    # blocks are mostly (the second shape: in one block, entirely) cache hits.
    MULTI_BLOCK = {
        (6, 18, 4): (3, 53, 56, 4),
        (5, 20, 9): (4, 27, 74, 4),
        (4, 24, 2): (6, 15, 82, 3),
    }

    @pytest.mark.parametrize("shape", sorted(MULTI_BLOCK))
    def test_multi_block_games_match_the_oracle_and_the_pinned_counters(self, shape):
        m, n_permutations, seed = shape
        blocks, coalitions, cache_hits, batches = self.MULTI_BLOCK[shape]
        labels, vectors, scorer = _group_game(m=m, n_samples=16, seed=11)
        scalar = _oracle(labels, vectors, scorer, n_permutations, seed)
        batched = sampled_group_shapley(
            labels, vectors, scorer, n_permutations=n_permutations, seed=seed
        )
        assert batched.n_permutations == blocks * m
        assert batched.values == scalar.values
        assert batched.half_widths == scalar.half_widths
        assert batched.evaluations == scalar.evaluations == coalitions
        assert batched.telemetry["coalitions"] == coalitions
        assert batched.telemetry["cache_hits"] == cache_hits
        assert batched.telemetry["batches"] == batches

    @pytest.mark.parametrize("shape", sorted(MULTI_BLOCK))
    def test_batch_rows_arrive_in_the_oracle_discovery_order(self, shape):
        """The scorer sees the same rows, in the same order, bit for bit.

        Under the oracle every block's uncached coalitions reach the scorer as
        one ``(k, d)`` batch in ``CachedUtility.evaluate_batch``'s first-seen
        (rotation-major, prefix-minor) order, each row a ``fold_mean``; the
        batched pipeline must hand over exactly those arrays.
        """
        m, n_permutations, seed = shape
        labels, vectors, scorer = _group_game(m=m, n_samples=16, seed=11)

        class RecordingScorer:
            def __init__(self):
                self.calls = []

            def score_batch(self, rows):
                self.calls.append(np.array(rows, dtype=np.float64))
                return scorer.score_batch(rows)

        oracle_scorer, batched_scorer = RecordingScorer(), RecordingScorer()
        _oracle(labels, vectors, oracle_scorer, n_permutations, seed)
        sampled_group_shapley(
            labels, vectors, batched_scorer, n_permutations=n_permutations, seed=seed
        )
        assert len(batched_scorer.calls) == len(oracle_scorer.calls) == self.MULTI_BLOCK[shape][3]
        for batched_rows, oracle_rows in zip(batched_scorer.calls, oracle_scorer.calls):
            assert batched_rows.shape == oracle_rows.shape
            assert np.array_equal(batched_rows, oracle_rows)

    def test_auto_routes_batched_only_for_bare_vector_games(self):
        labels, vectors, scorer = _group_game(m=4, n_samples=8, seed=3)
        batched = sampled_group_shapley(labels, vectors, scorer, n_permutations=8, seed=1)
        assert batched.telemetry is not None  # the batched pipeline
        wrapped = CachedUtility(CoalitionModelUtility(vectors, scorer))
        scalar = stratified_permutation_shapley(
            labels, wrapped, n_permutations=8, seed=1
        )
        assert scalar.telemetry is None  # the generic walk, whatever the utility
        assert scalar == batched


@pytest.fixture(scope="module")
def sampled_setup():
    return make_owner_datasets(n_owners=6, sigma=0.1, n_samples=400, seed=7)


def _run_sampled_protocol(sampled_setup):
    dataset, owners = sampled_setup
    protocol = BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes,
        ProtocolConfig(
            n_owners=6, n_groups=3, n_rounds=2, local_epochs=2,
            learning_rate=2.0, permutation_seed=13,
            sv_estimator="sampled", sv_samples=12,
        ),
    )
    protocol.run()
    return protocol


def _oracle_receipt(protocol, dataset, round_number):
    """Round ``round_number``'s receipt as the scalar oracle would have written it."""
    chain = protocol.participants[protocol.owner_ids[0]].node.chain
    stored = chain.state.get("contribution", f"evaluation/{round_number}")
    round_record = chain.state.get("fl_training", f"round/{round_number}")
    labels = [f"group-{j}" for j in range(len(round_record["groups"]))]
    vectors = {
        label: np.asarray(model, dtype=np.float64)
        for label, model in zip(labels, round_record["group_models"])
    }
    scorer = AccuracyUtility(dataset.test_features, dataset.test_labels, dataset.n_classes)
    oracle = _oracle(
        labels, vectors, scorer, protocol.config.sv_samples,
        estimator_seed_for_round(protocol.config.permutation_seed, round_number),
    )
    receipt = dict(stored)
    receipt["group_values"] = [oracle.values[label] for label in labels]
    receipt["group_half_widths"] = [oracle.half_widths[label] for label in labels]
    receipt["global_utility"] = oracle.grand_utility
    receipt["estimator"] = {
        "name": "sampled", "n_samples": oracle.n_permutations, "seed": oracle.seed,
        "confidence": oracle.confidence, "tolerance": oracle.tolerance,
    }
    return scorer, round_record, stored, receipt, oracle


class TestAuditCrossParity:
    """The chain's receipts are the oracle's numbers, and vice versa.

    The contract and the audit both run the batched pipeline; the oracle
    (``stratified_permutation_shapley`` over the same game) is called directly
    on the round's published group models — exactly what an auditor holding a
    different build of the estimator would compute.
    """

    @pytest.fixture(scope="class")
    def batched_written(self, sampled_setup):
        return _run_sampled_protocol(sampled_setup)

    def test_receipt_numbers_are_identical_across_methods(self, sampled_setup, batched_written):
        """Every number in the receipts is bit-identical to the oracle's.

        The only difference the batched path introduces is the *additive*
        telemetry key — values, half-widths and global utility are the same
        floats to the last bit.
        """
        dataset, _ = sampled_setup
        for round_number in (0, 1):
            _, _, stored, receipt, _ = _oracle_receipt(batched_written, dataset, round_number)
            stored_estimator = dict(stored["estimator"])
            assert stored_estimator.pop("telemetry", None) is not None
            assert {**stored, "estimator": stored_estimator} == receipt

    def test_scalar_chain_verifies_under_a_batched_auditor(self, sampled_setup, batched_written):
        # A receipt written from the oracle's numbers (no telemetry) passes
        # every layer of the auditor's batched re-run.
        dataset, _ = sampled_setup
        for round_number in (0, 1):
            scorer, round_record, _, receipt, _ = _oracle_receipt(
                batched_written, dataset, round_number
            )
            report = AuditReport(chain_valid=True)
            assert _audit_sampled_round(
                scorer, round_record, receipt,
                batched_written.config.permutation_seed, batched_written.config.sv_samples,
                report, tolerance=1e-9,
            ), report.mismatches

    def test_batched_chain_verifies_under_a_scalar_auditor(self, sampled_setup, batched_written):
        # The auditor's three layers, done by hand with the oracle: canonical
        # sample count, matching half-widths, stored values within the bound.
        dataset, _ = sampled_setup
        for round_number in (0, 1):
            _, _, stored, _, oracle = _oracle_receipt(batched_written, dataset, round_number)
            assert stored["estimator"]["n_samples"] == oracle.n_permutations
            labels = sorted(oracle.values, key=lambda label: int(label.split("-")[1]))
            assert stored["group_half_widths"] == [oracle.half_widths[label] for label in labels]
            assert oracle.within_bounds(dict(zip(labels, stored["group_values"])))

    def test_replay_audit_passes_when_auditor_matches_the_writer(
        self, sampled_setup, batched_written
    ):
        dataset, _ = sampled_setup
        chain = batched_written.participants[batched_written.owner_ids[0]].node.chain
        for mode in ("replay", "incremental"):
            report = audit_chain(
                chain, dataset.test_features, dataset.test_labels, dataset.n_classes, mode=mode,
            )
            assert report.passed, report.mismatches
            assert report.estimators_checked == [0, 1]

    def test_batched_receipts_carry_deterministic_telemetry_only(self, batched_written):
        chain = batched_written.participants[batched_written.owner_ids[0]].node.chain
        for round_number in (0, 1):
            record = chain.state.get("contribution", f"evaluation/{round_number}")
            telemetry = record["estimator"]["telemetry"]
            # Pure functions of (labels, n_samples, seed) — consensus-safe.
            assert set(telemetry) == {"coalitions", "cache_hits", "batches"}
            assert telemetry["coalitions"] > 0
            assert telemetry["cache_hits"] >= 0
            assert telemetry["batches"] >= 1
            # Wall-clock time must never reach the chain.
            assert "backend_seconds" not in telemetry

    def test_scalar_receipts_omit_the_telemetry_key(self, sampled_setup, batched_written):
        dataset, _ = sampled_setup
        _, _, _, receipt, oracle = _oracle_receipt(batched_written, dataset, 0)
        assert oracle.telemetry is None
        assert "telemetry" not in receipt["estimator"]

    def test_audit_flags_tampered_telemetry_counters(self, sampled_setup, batched_written):
        dataset, _ = sampled_setup
        chain = batched_written.participants[batched_written.owner_ids[0]].node.chain
        scorer = AccuracyUtility(
            dataset.test_features, dataset.test_labels, dataset.n_classes
        )
        round_record = chain.state.get("fl_training", "round/0")
        stored = dict(chain.state.get("contribution", "evaluation/0"))
        tampered = dict(stored)
        tampered["estimator"] = dict(stored["estimator"])
        tampered["estimator"]["telemetry"] = dict(stored["estimator"]["telemetry"])
        tampered["estimator"]["telemetry"]["coalitions"] += 1
        report = AuditReport(chain_valid=True)
        assert not _audit_sampled_round(
            scorer, round_record, tampered,
            batched_written.config.permutation_seed,
            batched_written.config.sv_samples,
            report, tolerance=1e-9,
        )
        assert any("telemetry" in mismatch for mismatch in report.mismatches)
