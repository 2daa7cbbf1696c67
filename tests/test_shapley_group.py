"""Tests for GroupSV, Algorithm 1 (repro.shapley.group)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.crossdevice as crossdevice
from repro.blockchain.contracts.base import ContractRuntime
from repro.blockchain.contracts.contribution import ContributionContract
from repro.blockchain.contracts.fl_training import FLTrainingContract, pinned_round_assignment
from repro.blockchain.state import WorldState
from repro.core.audit import _evaluate_round
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.masking import MaskedUpdate, SecureAggregator
from repro.crypto.sharding import round_assignment
from repro.exceptions import GroupingError, ShapleyError
from repro.fl.logistic_regression import LogisticRegressionModel
from repro.fl.model import ModelParameters
from repro.shapley.engine import MAX_PLAYERS
from repro.shapley.estimator import estimator_seed_for_round
from repro.shapley.group import (
    accumulate_user_values,
    aggregate_group_models,
    compute_group_shapley,
    evaluate_group_game,
    group_shapley_round,
    make_groups,
    permute_users,
)
from repro.shapley.metrics import cosine_similarity
from repro.shapley.native import native_shapley
from repro.shapley.utility import CoalitionModelUtility


USERS = [f"u{i}" for i in range(9)]


class TestPermutation:
    def test_deterministic_in_seed_and_round(self):
        assert permute_users(USERS, 13, 2) == permute_users(USERS, 13, 2)

    def test_round_changes_permutation(self):
        assert permute_users(USERS, 13, 0) != permute_users(USERS, 13, 1)

    def test_seed_changes_permutation(self):
        assert permute_users(USERS, 13, 0) != permute_users(USERS, 14, 0)

    def test_independent_of_input_order(self):
        assert permute_users(USERS, 13, 0) == permute_users(list(reversed(USERS)), 13, 0)

    def test_is_a_permutation(self):
        assert sorted(permute_users(USERS, 1, 1)) == sorted(USERS)

    def test_empty_rejected(self):
        with pytest.raises(GroupingError):
            permute_users([], 1, 1)


class TestGrouping:
    def test_paper_example_shape(self):
        # 9 users, m = 3 -> three groups of three.
        groups = make_groups(USERS, 3, seed=7, round_number=0)
        assert len(groups) == 3
        assert all(len(group) == 3 for group in groups)

    def test_groups_partition_the_users(self):
        groups = make_groups(USERS, 4, seed=7, round_number=1)
        flattened = [user for group in groups for user in group]
        assert sorted(flattened) == sorted(USERS)

    def test_m_equals_n_gives_singletons(self):
        groups = make_groups(USERS, len(USERS), seed=7, round_number=0)
        assert all(len(group) == 1 for group in groups)

    def test_m_equals_one_gives_single_group(self):
        groups = make_groups(USERS, 1, seed=7, round_number=0)
        assert len(groups) == 1 and len(groups[0]) == len(USERS)

    def test_uneven_division_never_leaves_empty_groups(self):
        groups = make_groups(USERS, 4, seed=3, round_number=2)
        assert all(group for group in groups)
        sizes = sorted(len(group) for group in groups)
        assert sizes == [2, 2, 2, 3]

    def test_rejects_bad_m(self):
        with pytest.raises(GroupingError):
            make_groups(USERS, 0, seed=1, round_number=0)
        with pytest.raises(GroupingError):
            make_groups(USERS, len(USERS) + 1, seed=1, round_number=0)

    def test_rejects_duplicate_users(self):
        with pytest.raises(GroupingError):
            make_groups(["a", "a", "b"], 2, seed=1, round_number=0)

    def test_assignment_slots_invert_the_grouping(self):
        groups = make_groups(USERS, 3, seed=5, round_number=0)
        assignment = round_assignment(USERS, 3, 5, 0)
        assert [list(group) for group in assignment.groups] == groups
        for index, group in enumerate(groups):
            for user in group:
                assert assignment.slots[user] == index
                assert assignment.mask_cohort(user) == tuple(group)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 12), st.integers(0, 50), st.integers(0, 5))
    def test_property_grouping_is_a_partition(self, n_users, m, seed, round_number):
        users = [f"user-{i}" for i in range(n_users)]
        m = min(m, n_users)
        groups = make_groups(users, m, seed, round_number)
        flattened = [u for g in groups for u in g]
        assert sorted(flattened) == sorted(users)
        assert len(groups) == m
        assert max(len(g) for g in groups) - min(len(g) for g in groups) <= 1


def make_local_models(users, dimension=12, seed=0, quality_gradient=False):
    """Deterministic synthetic local models; optionally degrade later users."""
    rng = np.random.default_rng(seed)
    template = ModelParameters.from_mapping({"w": np.zeros(dimension)})
    models = {}
    shared_direction = rng.normal(size=dimension)
    for rank, user in enumerate(sorted(users)):
        noise = rng.normal(size=dimension)
        scale = rank if quality_gradient else 1.0
        models[user] = template.from_vector(shared_direction + scale * 0.5 * noise)
    return models


class FakeScorer:
    """A deterministic stand-in for AccuracyUtility: higher mean weight = better."""

    n_classes = 2

    def score_batch(self, vectors):
        return np.tanh(np.asarray(vectors).mean(axis=1))


class TestAggregateGroupModels:
    def test_group_model_is_member_mean(self):
        users = USERS[:4]
        models = make_local_models(users)
        groups = [["u0", "u1"], ["u2", "u3"]]
        group_models = aggregate_group_models(groups, models)
        expected = ModelParameters.mean([models["u0"], models["u1"]])
        assert np.allclose(group_models[0].to_vector(), expected.to_vector(), atol=1e-9)

    def test_missing_model_rejected(self):
        models = make_local_models(USERS[:2])
        with pytest.raises(ShapleyError):
            aggregate_group_models([["u0", "u9"]], models)


class TestComputeGroupShapley:
    def test_user_values_split_group_value_equally(self):
        users = USERS[:6]
        models = make_local_models(users)
        result = group_shapley_round(models, m=2, seed=3, round_number=0, scorer=FakeScorer())
        for group, value in zip(result.groups, result.group_values):
            for user in group:
                assert result.user_values[user] == pytest.approx(value / len(group))

    def test_efficiency_over_groups(self):
        users = USERS[:6]
        models = make_local_models(users)
        result = group_shapley_round(models, m=3, seed=3, round_number=0, scorer=FakeScorer())
        grand_label = tuple(sorted(f"group-{j}" for j in range(3)))
        grand_utility = result.coalition_utilities[grand_label]
        assert sum(result.group_values) == pytest.approx(grand_utility, abs=1e-9)

    def test_m_equals_n_matches_native_shapley_over_users(self):
        users = USERS[:5]
        models = make_local_models(users, quality_gradient=True)
        scorer = FakeScorer()
        result = group_shapley_round(models, m=len(users), seed=9, round_number=0, scorer=scorer)

        utility = CoalitionModelUtility(models, scorer)  # type: ignore[arg-type]
        native = native_shapley(users, utility)
        # With singleton groups the group game *is* the user game; values match
        # up to the group labelling.
        for group, value in zip(result.groups, result.group_values):
            assert value == pytest.approx(native[group[0]], abs=1e-9)

    def test_global_model_is_mean_of_group_models(self):
        users = USERS[:4]
        models = make_local_models(users)
        groups = make_groups(users, 2, 5, 0)
        group_models = aggregate_group_models(groups, models)
        result = compute_group_shapley(group_models, groups, FakeScorer())
        expected = ModelParameters.mean(group_models).to_vector()
        assert np.allclose(result.global_model.to_vector(), expected, atol=1e-9)

    def test_coalition_utilities_cover_the_power_set(self):
        users = USERS[:6]
        models = make_local_models(users)
        result = group_shapley_round(models, m=3, seed=3, round_number=0, scorer=FakeScorer())
        assert len(result.coalition_utilities) == 2**3 - 1

    def test_mismatched_groups_and_models_rejected(self):
        users = USERS[:4]
        models = make_local_models(users)
        groups = make_groups(users, 2, 5, 0)
        group_models = aggregate_group_models(groups, models)
        with pytest.raises(ShapleyError):
            compute_group_shapley(group_models[:1], groups, FakeScorer())

    def test_accumulate_user_values_sums_rounds(self):
        users = USERS[:4]
        models = make_local_models(users)
        results = [
            group_shapley_round(models, m=2, seed=3, round_number=r, scorer=FakeScorer()) for r in range(3)
        ]
        totals = accumulate_user_values(results)
        for user in users:
            assert totals[user] == pytest.approx(sum(r.user_values[user] for r in results))

    def test_group_values_respond_to_model_quality(self, scorer, local_models):
        # With a real scorer and real local models, the grand coalition utility
        # must be positive and every group value finite.
        result = group_shapley_round(local_models, m=2, seed=13, round_number=0, scorer=scorer)
        assert all(np.isfinite(v) for v in result.group_values)
        grand = result.coalition_utilities[tuple(sorted(f"group-{j}" for j in range(2)))]
        assert grand > 0.3

    def test_resolution_increases_with_m(self, scorer, local_models):
        # More groups -> more distinct user values (higher resolution).
        few = group_shapley_round(local_models, m=1, seed=13, round_number=0, scorer=scorer)
        many = group_shapley_round(local_models, m=len(local_models), seed=13, round_number=0, scorer=scorer)
        assert len(set(np.round(list(few.user_values.values()), 12))) <= len(
            set(np.round(list(many.user_values.values()), 12))
        )

    def test_group_sv_approaches_native_sv_in_cosine(self, scorer, local_models):
        users = sorted(local_models)
        utility = CoalitionModelUtility(local_models, scorer)
        native = native_shapley(users, utility)
        sims = []
        for m in (1, len(users)):
            result = group_shapley_round(local_models, m=m, seed=13, round_number=0, scorer=scorer)
            sims.append(cosine_similarity(result.user_values, native))
        # Full-resolution grouping reproduces the native values exactly (cosine 1).
        assert sims[-1] == pytest.approx(1.0, abs=1e-9)


class RefusingScorer:
    n_classes = 2

    def score_batch(self, vectors):
        raise AssertionError("a refused game must not be scored")


class TestEvaluateGroupGameGuards:
    def test_no_groups_rejected(self):
        with pytest.raises(ShapleyError, match="at least one group"):
            evaluate_group_game([], [], RefusingScorer())

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ShapleyError, match="must be 'exact' or 'sampled'"):
            evaluate_group_game([np.ones(3)], [["u0"]], RefusingScorer(), estimator="native")

    def test_exact_past_the_engine_cap_is_refused_before_scoring(self):
        m = MAX_PLAYERS + 1
        groups = [[f"u{j}"] for j in range(m)]
        with pytest.raises(ShapleyError, match="sv_estimator='sampled'"):
            evaluate_group_game([np.ones(2)] * m, groups, RefusingScorer())

    def test_global_utility_is_the_grand_coalitions_score(self):
        vectors = [np.array([0.2, 0.4]), np.array([-0.6, 0.1]), np.array([1.0, 0.3])]
        groups = [["a"], ["b", "c"], ["d"]]
        game = evaluate_group_game(vectors, groups, FakeScorer())
        expected = float(FakeScorer().score_batch(np.mean(vectors, axis=0)[None, :])[0])
        assert game.global_utility == pytest.approx(expected, abs=1e-12)
        assert game.coalition_utilities[game.labels] == game.global_utility
        assert game.estimator is None and game.group_half_widths == (0.0, 0.0, 0.0)


class TestOneKernel:
    """Algorithm 1 lines 4-7 exist once: every caller of the kernel agrees bit for bit."""

    @pytest.mark.parametrize("estimator", ["exact", "sampled"])
    def test_contract_audit_harness_and_evaluator_are_equal(self, estimator, monkeypatch):
        # The harness runs first, with a spy recording the group vectors it
        # hands the kernel; 12 committees, so "group-10" and "group-11" sort
        # before "group-2" and label order differs from numeric order.
        calls = []
        kernel = crossdevice.evaluate_group_game

        def spy(group_vectors, groups, scorer, **pinned):
            calls.append((group_vectors, groups, scorer))
            return kernel(group_vectors, groups, scorer, **pinned)

        monkeypatch.setattr(crossdevice, "evaluate_group_game", spy)
        config = crossdevice.CrossDeviceConfig(
            n_devices=24, shard_size=2, sv_estimator=estimator, sv_samples=24,
            n_train=128, n_test=64,
        )
        harness = crossdevice.simulate_cross_device(config).rounds[0]
        (group_vectors, groups, scorer), = calls
        assert len(groups) == 12

        # The contract, on a state holding exactly those vectors.
        params = {"permutation_seed": config.seed}
        if estimator == "sampled":
            params.update(sv_estimator="sampled", sv_samples=config.sv_samples)
        state = WorldState()
        state.set("registry", "protocol_params", params)
        state.set("fl_training", "round/0", {
            "groups": groups, "group_models": [vector.tolist() for vector in group_vectors],
        })
        runtime = ContractRuntime()
        runtime.register(
            ContributionContract(scorer.test_features, scorer.test_labels, scorer.n_classes)
        )
        runtime.execute(state, "anyone", "contribution", "evaluate_round", {"round_number": 0})
        stored = state.get("contribution", "evaluation/0")
        assert stored["group_values"] == harness.shard_values
        assert stored["user_values"] == harness.user_values
        assert stored["global_utility"] == harness.global_utility
        if estimator == "sampled":
            assert stored["user_half_widths"] == harness.user_half_widths
            assert stored["estimator"]["n_samples"] == harness.estimator["n_samples"]

        # The audit's recomputation from the published round record.
        _, audited = _evaluate_round(
            scorer, state.get("fl_training", "round/0"), estimator, config.sv_samples,
            estimator_seed_for_round(config.seed, 0),
        )
        assert audited.user_values == stored["user_values"]
        assert list(audited.group_half_widths) == stored.get("group_half_widths", [0.0] * 12)

        # The standalone evaluator, over ModelParameters (exact only).
        if estimator == "exact":
            template = LogisticRegressionModel(config.n_features, config.n_classes).parameters
            standalone = compute_group_shapley(
                [template.from_vector(vector) for vector in group_vectors], groups, scorer
            )
            assert standalone.user_values == stored["user_values"]
            assert {
                "/".join(coalition): value
                for coalition, value in standalone.coalition_utilities.items()
            } == stored["coalition_utilities"]


class TestOneAggregation:
    """Sec. IV.A.1's ``Σ y_i mod M`` exists once: the contract, the harness and
    ``SecureAggregator`` decode the same masked payloads to the same bits."""

    @pytest.mark.parametrize("field_bits", [64, 48])
    def test_contract_harness_and_aggregator_are_equal(self, field_bits, monkeypatch):
        # The harness runs first; the spy keeps the payloads it handed the
        # kernel and the committee models it got back.
        calls = []
        kernel = crossdevice.aggregate_groups

        def spy(payloads, groups, codec):
            models = kernel(payloads, groups, codec)
            calls.append((payloads, groups, codec, models))
            return models

        monkeypatch.setattr(crossdevice, "aggregate_groups", spy)
        monkeypatch.setattr(
            crossdevice, "FixedPointCodec",
            lambda **sizing: FixedPointCodec(field_bits=field_bits, **sizing),
        )
        config = crossdevice.CrossDeviceConfig(
            n_devices=24, shard_size=4, sv_samples=8, n_train=128, n_test=64
        )
        crossdevice.simulate_cross_device(config)
        (payloads, committees, codec, harness_models), = calls
        assert codec.field_bits == field_bits and len(committees) == 6

        # The contract, on a state whose registry holds exactly that cohort:
        # the committees are its groups.
        params = {
            "n_owners": 24, "n_groups": 6, "n_rounds": 1, "permutation_seed": config.seed,
            "precision_bits": codec.precision_bits, "field_bits": field_bits,
            "max_summands": codec.max_summands,
        }
        devices = sorted(payloads)
        state = WorldState()
        state.set("registry", "protocol_params", params)
        state.set("registry", "participant_index", devices)
        for device in devices:
            state.set("registry", f"participant/{device}", {"public_key": 2, "role": "owner"})
        runtime = ContractRuntime()
        runtime.register(FLTrainingContract())
        assignment = pinned_round_assignment(params, devices, 0)
        assert assignment.groups == committees
        for device in devices:
            claim = {"round_number": 0, "group_id": assignment.slots[device], "payload": payloads[device]}
            runtime.execute(state, device, "fl_training", "submit_masked_update", claim)
        runtime.execute(state, devices[0], "fl_training", "finalize_round", {"round_number": 0})
        record = state.get("fl_training", "round/0")

        aggregator = SecureAggregator(codec)
        for committee, on_chain, in_harness in zip(
            committees, record["group_models"], harness_models
        ):
            updates = [MaskedUpdate(device, 0, payloads[device]) for device in committee]
            assert np.array_equal(on_chain, in_harness)
            assert np.array_equal(on_chain, aggregator.aggregate_mean(updates))
