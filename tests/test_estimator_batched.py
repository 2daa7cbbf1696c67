"""Parity pins for the batched sampled-Shapley pipeline.

The batched estimator (coalition logits from running sums of member logits +
bitmask score cache + an exact re-score of every near-tie) is a pure
performance restructuring of the scalar oracle walk: every output — values, half-widths, evaluation counts,
exceptions, and therefore every on-chain receipt — must be bit-identical.
``sampled_group_shapley`` *is* the batched pipeline; the oracle is
``stratified_permutation_shapley`` over the same ``CoalitionModelUtility``
game, called directly.  These tests pin that contract:

* a Hypothesis sweep comparing the batched path against the scalar oracle
  across random player counts, sample counts, and seeds;
* multi-block games (cached prefixes recurring across blocks): counters
  pinned to literals, and every slot's score equal to the oracle's fold,
  bit for bit;
* adversarial games — cancelling ±1e8 members and a tie built on one
  sample — where the logit tie test must send coalitions back to the exact
  fold, and the estimate and counters still equal the oracle walk's;
* the threshold table the unscaled slab sums are tested against: whatever it
  clears, the per-coalition tie test on the scaled means clears too (a
  Hypothesis property, and a gap just over the table at the largest top);
* members with an ``inf`` weight, a ``NaN`` bias or overflowing running
  sums, where every coalition must go back to the oracle fold;
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
from repro.exceptions import ShapleyError
from repro.shapley.engine import fold_mean
from repro.core.crossdevice import CrossDeviceConfig, simulate_cross_device
from repro.shapley.estimator import (
    TRUNCATION_TOLERANCE,
    _PrefixTable,
    estimator_seed_for_round,
    sampled_group_shapley,
    stratified_permutation_shapley,
)
from repro.shapley.group import evaluate_group_game
from repro.shapley.utility import AccuracyUtility, CachedUtility, CoalitionModelUtility
from repro.utils.rng import spawn_rng

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

    # Beside the multi-block games: one block where every coalition is new
    # (n_permutations == m, the shape of a 200-committee round), and a count
    # that is not a multiple of m.
    @pytest.mark.parametrize("shape", sorted(MULTI_BLOCK) + [(40, 40, 5), (64, 64, 3), (7, 30, 2)])
    def test_every_slot_scores_as_the_oracle_fold(self, shape):
        """Each slot's score is ``score_vector(fold_mean(sorted S))``, to the bit."""
        m, n_permutations, seed = shape
        labels, vectors, scorer = _group_game(m=m, n_samples=16, seed=11)
        players = sorted(labels)
        table = _PrefixTable(players, CoalitionModelUtility(vectors, scorer))
        rng = spawn_rng("stratified-shapley", seed, m, n_permutations)
        for _ in range(-(-n_permutations // m)):
            table.block(rng.permutation(m), float(table.scores[0]), 0.0)  # no rotation closes: every slot scored
        if shape in self.MULTI_BLOCK:
            assert len(table.scores) == self.MULTI_BLOCK[shape][1]
        assert sorted(table.slots.values()) == list(range(len(table.scores))) and table.scored == len(table.scores)
        stacked = np.stack([vectors[player] for player in players])
        for mask, slot in table.slots.items():
            members = [bit for bit in range(m) if mask >> bit & 1]
            assert table.scores[slot] == scorer.score_vector(fold_mean(stacked[members]))

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


#: The cancelling pair's offset.
CANCEL = 1e8


def _adversarial_game(m: int, n_samples: int, seed: int):
    """A random game plus two members whose ±1e8 entries cancel in every
    coalition holding both, leaving classes ``i`` and ``j`` tied on sample 0.

    Sample 0 has zero features, so its logits are the coalition's mean bias;
    every member's ``i`` and ``j`` biases are equal, lifted above the other
    classes, except that the pair carries ``±CANCEL`` on ``i`` and
    ``∓0.3·CANCEL`` on ``j`` (two binades, so the two round on different
    grids) and ``±CANCEL`` times one direction on every weight.  The gap left between ``i`` and ``j``
    is rounding, ~1e-8, which the oracle's fold and the fast running sums
    round differently, so only the exact path can say which of the two a
    coalition holding the pair predicts.
    """
    rng = np.random.default_rng(seed)
    labels = [f"group-{j}" for j in range(m)]
    features = rng.normal(size=(n_samples, N_FEATURES))
    features[0] = 0.0
    targets = rng.integers(0, N_CLASSES, size=n_samples)
    i, j = rng.permutation(N_CLASSES)[:2]
    targets[0] = i
    vectors = {}
    for label in labels:
        vector = rng.normal(size=DIMENSION)
        bias = vector[-N_CLASSES:]
        bias -= 10.0
        bias[i] = bias[j] = rng.uniform(1.0, 2.0)
        vectors[label] = vector
    direction = rng.normal(size=DIMENSION - N_CLASSES)
    for label, sign in zip(labels[:2], (1.0, -1.0)):
        vectors[label][: DIMENSION - N_CLASSES] += sign * CANCEL * direction
        vectors[label][DIMENSION - N_CLASSES + i] += sign * CANCEL
        vectors[label][DIMENSION - N_CLASSES + j] -= sign * CANCEL * 0.3
    return labels, vectors, AccuracyUtility(features, targets, N_CLASSES)


class CountingScorer:
    """Forwards ``score_batch`` to a real scorer, counting calls and rows."""

    def __init__(self, scorer):
        self.scorer, self.calls, self.rows = scorer, 0, 0

    def score_batch(self, vectors):
        self.calls += 1
        self.rows += len(vectors)
        return self.scorer.score_batch(vectors)


class TestAdversarialGamesTakeTheExactPath:
    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(min_value=3, max_value=7),
        n_permutations=st.integers(min_value=2, max_value=21),
        n_samples=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_fallbacks_keep_the_oracle_estimate_and_counters(
        self, m, n_permutations, n_samples, seed
    ):
        labels, vectors, scorer = _adversarial_game(m, n_samples, seed)
        counting = CountingScorer(scorer)
        scalar = _oracle(labels, vectors, counting, n_permutations, seed)
        rescored = []
        score_batch = scorer.score_batch

        def recording(rows):
            rescored.append(len(rows))
            return score_batch(rows)

        scorer.score_batch = recording
        batched = sampled_group_shapley(
            labels, vectors, scorer, n_permutations=n_permutations, seed=seed
        )
        # Past the grand coalition's one-row call, every row handed to
        # score_batch is a coalition the tie test could not clear; with m >= 3
        # some non-grand prefix holds the cancelling pair.
        assert rescored[0] == 1
        assert sum(rescored[1:]) > 0
        assert batched == scalar
        scalar_values, scalar_widths = _ordered(scalar, labels)
        batched_values, batched_widths = _ordered(batched, labels)
        assert np.array_equal(batched_values, scalar_values)
        assert np.array_equal(batched_widths, scalar_widths)
        assert batched.telemetry["coalitions"] == counting.rows == scalar.evaluations
        assert batched.telemetry["cache_hits"] == scalar.n_permutations * m - (counting.rows - 1)
        assert batched.telemetry["batches"] == counting.calls


class TestScorerContract:
    def test_a_scorer_without_member_logits_is_refused_by_name(self):
        labels, vectors, scorer = _group_game(m=3, n_samples=8, seed=5)
        bare = CountingScorer(scorer)
        with pytest.raises(ShapleyError, match="member_logits"):
            sampled_group_shapley(labels, vectors, bare, n_permutations=6, seed=1)
        with pytest.raises(ShapleyError, match="member_logits"):
            evaluate_group_game(
                [vectors[label] for label in labels], [["a"], ["b"], ["c"]], bare,
                estimator="sampled", n_samples=6, seed=1,
            )
        assert bare.calls == 0


def _top_two(planes):
    ordered = np.sort(planes, axis=0)
    return ordered[-1], ordered[-2]


def _mean_test_clears(sums, size, magnitude, m):
    """The per-coalition tie test the threshold table stands in for, per
    coalition: the mean logits ``sums · (1/k)`` clear when every sample's gap
    exceeds ``1e-9·max(1, |top| + b) + 2b``, b the estimator's rounding bound."""
    bound = (2 * DIMENSION + 9 * m + 8) * np.finfo(np.float64).eps * magnitude * (1.0 / size)
    top, second = _top_two(sums * (1.0 / size))
    threshold = AccuracyUtility._TIE_MARGIN * np.maximum(np.abs(top) + bound, 1.0) + 2.0 * bound
    return (top - second > threshold).all(axis=-1)


def _table(labels, vectors, scorer):
    table = _PrefixTable(sorted(labels), CoalitionModelUtility(vectors, scorer))
    return table, scorer.member_logits(table.vectors)[2]


class TestThresholdTableDominance:
    """Whatever the unscaled table clears, the per-coalition test clears too."""

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(min_value=3, max_value=9),
        n_samples=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        adversarial=st.booleans(),
    )
    def test_property_the_table_clears_only_what_the_mean_test_clears(
        self, m, n_samples, seed, adversarial
    ):
        game = (_adversarial_game if adversarial else _group_game)(m, n_samples, seed)
        table, magnitude = _table(*game)
        permutation = np.random.default_rng(seed).permutation(m)
        summed = np.cumsum(table.logits[:, np.concatenate([permutation, permutation])], axis=1)
        running = np.concatenate([np.zeros_like(summed[:, :1]), summed], axis=1)
        for size in range(1, m + 1):
            sums = running[:, size : size + m] - running[:, :m]
            top, second = _top_two(sums)
            cleared = (top - second > table.thresholds[size - 1]).all(axis=-1)
            assert not (cleared & ~_mean_test_clears(sums, size, magnitude, m)).any()

    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_a_gap_just_over_the_table_clears_the_mean_test_at_the_largest_top(self, scale):
        # The premise's edge: a mean top logit of magnitude/k + b, the largest
        # the rounding bound allows, led by the smallest gap the table clears.
        # At scale 1e-3 the magnitude is below k, where max(1, ·) takes the 1.
        m = 40
        labels, vectors, scorer = _group_game(m=m, n_samples=16, seed=11)
        table, magnitude = _table(labels, {label: scale * vectors[label] for label in labels}, scorer)
        eps = np.finfo(np.float64).eps
        for size in range(1, m + 1):
            bound = (2 * DIMENSION + 9 * m + 8) * eps * magnitude / size
            top = (magnitude / size + bound) * size
            threshold = table.thresholds[size - 1]
            second = top - threshold
            for _ in range(4):  # step down until the float gap is over the threshold
                second = np.where(top - second > threshold, second, np.nextafter(second, -np.inf))
            sums = np.stack([top, second, second - threshold])[:, None, :]
            assert (top - second > threshold).all()
            assert _mean_test_clears(sums, size, magnitude, m).all(), size


def _non_finite_game(nan_bias=True):
    """A random game where one member carries an ``inf`` weight and one a ``NaN`` bias.

    The weight's feature is positive on every sample, so a coalition holding
    the member leads with an ∞ logit everywhere: ``∞ − second`` is ∞.
    """
    labels, vectors, scorer = _group_game(m=5, n_samples=10, seed=21)
    scorer = AccuracyUtility(np.abs(scorer.test_features), scorer.test_labels, N_CLASSES)
    vectors[labels[1]][0] = np.inf
    if nan_bias:
        vectors[labels[3]][-1] = np.nan
    return labels, vectors, scorer


def _overflowing_game():
    """Finite members whose running sums overflow: class 0 sums to 1.05e308,
    twice that over the doubled permutation, and class 1 (the label) wins the
    coalitions that hold both of its members."""
    labels = [f"group-{j}" for j in range(3)]
    features = np.zeros((2, N_FEATURES))
    features[:, 0] = 1.0
    scorer = AccuracyUtility(features, np.array([1, 1]), N_CLASSES)
    vectors = {label: np.zeros(DIMENSION) for label in labels}
    for position, label in enumerate(labels):
        vectors[label][0] = 3.5e307
        vectors[label][1] = 4e307 if position else 0.0
    return labels, vectors, scorer


class TestNonFiniteMembersTakeTheOraclePath:
    @pytest.mark.parametrize("game", [
        pytest.param(_non_finite_game, id="inf-weight-and-nan-bias"),
        pytest.param(lambda: _non_finite_game(nan_bias=False), id="inf-weight"),
        pytest.param(_overflowing_game, id="overflowing-sums"),
    ])
    def test_every_coalition_is_rescored_by_the_oracle_fold(self, game):
        # The table is not finite where the magnitude is not (NaN with the
        # NaN bias, ∞ with the weight alone), nor where a running sum could
        # overflow, so no coalition clears it: every slot scored past the
        # grand coalition's is one row handed back to score_batch.
        labels, vectors, scorer = game()
        with np.errstate(all="ignore"):
            scalar = _oracle(labels, vectors, scorer, 12, 5)
            rescored = []
            score_batch = scorer.score_batch

            def recording(rows):
                rescored.append(len(rows))
                return score_batch(rows)

            scorer.score_batch = recording
            batched = sampled_group_shapley(labels, vectors, scorer, n_permutations=12, seed=5)
        assert rescored[0] == 1
        assert sum(rescored[1:]) == batched.telemetry["scored"] - 1
        assert batched == scalar
        scalar_values, scalar_widths = _ordered(scalar, labels)
        batched_values, batched_widths = _ordered(batched, labels)
        assert np.array_equal(batched_values, scalar_values)
        assert np.array_equal(batched_widths, scalar_widths)
        assert batched.evaluations == scalar.evaluations
        assert batched.telemetry["cache_hits"] == scalar.n_permutations * len(labels) - (
            scalar.evaluations - 1
        )


class TestTruncatedRotationsStopScoring:
    """A rotation is scored up to its first prefix within tolerance of the
    grand utility, and no further; the estimate and the receipt counters are
    the oracle's, at every tolerance."""

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=9),
        n_permutations=st.integers(min_value=2, max_value=30),
        n_samples=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        tolerance=st.sampled_from([0.0, TRUNCATION_TOLERANCE, 0.05]),
    )
    def test_property_cells_up_to_the_first_hit_are_the_untruncated_utilities(
        self, m, n_permutations, n_samples, seed, tolerance
    ):
        labels, vectors, scorer = _group_game(m, n_samples, seed)
        players = sorted(labels)
        truncated, full = (_PrefixTable(players, CoalitionModelUtility(vectors, scorer)) for _ in range(2))
        grand = float(full.scores[0])
        rng = spawn_rng("stratified-shapley", seed, m, n_permutations)
        for _ in range(-(-n_permutations // m)):  # more than one block whenever n_permutations > m
            permutation = rng.permutation(m)
            cells, reference = truncated.block(permutation, grand, tolerance), full.block(permutation, grand, 0.0)
            for row in range(m):
                # The first hit (the grand coalition at the latest); none at tolerance 0.
                hits = np.flatnonzero(np.abs(grand - reference[row]) <= tolerance)
                first = int(hits[0]) if tolerance > 0 else m - 1
                assert cells[row, : first + 1].tobytes() == reference[row, : first + 1].tobytes()
                assert (cells[row, first + 1 :] == grand).all()
        # A slot no open rotation reached is never scored (NaN); every other is.
        assert np.count_nonzero(~np.isnan(truncated.scores)) == truncated.scored
        assert full.scored == len(full.slots)

        counting = CountingScorer(scorer)
        scalar = stratified_permutation_shapley(
            labels, CoalitionModelUtility(vectors, counting), n_permutations=n_permutations,
            seed=seed, tolerance=tolerance,
        )
        batched = sampled_group_shapley(
            labels, vectors, scorer, n_permutations=n_permutations, seed=seed, tolerance=tolerance
        )
        assert batched == scalar
        for ours, theirs in zip(_ordered(batched, labels), _ordered(scalar, labels)):
            assert ours.tobytes() == theirs.tobytes()
        telemetry = batched.telemetry
        assert telemetry["coalitions"] == scalar.evaluations == counting.rows
        assert telemetry["cache_hits"] == scalar.n_permutations * m - (counting.rows - 1)
        assert telemetry["batches"] == counting.calls
        assert telemetry["scored"] <= telemetry["coalitions"]
        if tolerance == 0:
            assert telemetry["scored"] == telemetry["coalitions"]

    def test_a_narrow_round_scores_the_pinned_prefixes_only(self):
        # 800 devices in committees of 4, 200 permutations: one block of 200
        # rotations whose 39 800 prefixes are all distinct.  Rotations hit the
        # grand utility early, so 1 486 coalitions are scored (grand
        # included); the receipt counters still count all 39 801.
        result = simulate_cross_device(CrossDeviceConfig(n_devices=800, shard_size=4, sv_samples=200, seed=7))
        telemetry = result.rounds[0].estimator["telemetry"]
        assert {key: telemetry[key] for key in ("coalitions", "cache_hits", "batches", "scored")} == {
            "coalitions": 39_801, "cache_hits": 200, "batches": 2, "scored": 1_486,
        }


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
            # Wall-clock time and the off-chain ``scored`` never reach the chain.
            assert "backend_seconds" not in telemetry and "scored" not in telemetry

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
