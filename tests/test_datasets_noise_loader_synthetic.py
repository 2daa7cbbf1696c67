"""Tests for noise injection, dataset loading, and synthetic generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.loader import make_owner_datasets, train_test_split
from repro.datasets.noise import apply_quality_gradient, gaussian_noise
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ValidationError


class TestGaussianNoise:
    def test_zero_sigma_returns_identical_copy(self):
        features = np.ones((10, 4))
        noisy = gaussian_noise(features, 0.0)
        assert np.array_equal(noisy, features)
        assert noisy is not features

    def test_noise_scale_grows_with_sigma(self):
        features = np.zeros((200, 10))
        small = gaussian_noise(features, 0.1, seed=1)
        large = gaussian_noise(features, 2.0, seed=1)
        assert np.std(large) > np.std(small)

    def test_deterministic_for_seed(self):
        features = np.zeros((20, 3))
        assert np.array_equal(gaussian_noise(features, 1.0, seed=5), gaussian_noise(features, 1.0, seed=5))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_noise(np.zeros((2, 2)), -1.0)


class TestQualityGradient:
    def test_first_owner_keeps_clean_data(self):
        owner_features = {"owner-0": np.ones((5, 3)), "owner-1": np.ones((5, 3))}
        degraded = apply_quality_gradient(owner_features, sigma=1.0, seed=0)
        assert np.array_equal(degraded["owner-0"], owner_features["owner-0"])
        assert not np.array_equal(degraded["owner-1"], owner_features["owner-1"])

    def test_noise_grows_with_owner_rank(self):
        owner_features = {f"owner-{i}": np.zeros((500, 8)) for i in range(4)}
        degraded = apply_quality_gradient(owner_features, sigma=0.5, seed=1)
        stds = [np.std(degraded[f"owner-{i}"]) for i in range(4)]
        assert stds[0] == 0.0
        assert stds[1] < stds[2] < stds[3]

    def test_clipping_is_applied_when_requested(self):
        owner_features = {"owner-0": np.full((10, 2), 8.0), "owner-1": np.full((10, 2), 8.0)}
        degraded = apply_quality_gradient(owner_features, sigma=100.0, seed=2, clip_range=(0.0, 16.0))
        assert degraded["owner-1"].min() >= 0.0
        assert degraded["owner-1"].max() <= 16.0

    def test_sigma_zero_keeps_everyone_clean(self):
        owner_features = {f"owner-{i}": np.ones((4, 2)) for i in range(3)}
        degraded = apply_quality_gradient(owner_features, sigma=0.0)
        assert all(np.array_equal(degraded[k], owner_features[k]) for k in owner_features)


class TestTrainTestSplit:
    def test_split_sizes(self):
        features, labels = make_blobs(100, 4, 3, seed=0)
        train_x, train_y, test_x, test_y = train_test_split(features, labels, test_fraction=0.2, seed=0)
        assert train_x.shape[0] == 80 and test_x.shape[0] == 20
        assert train_y.size == 80 and test_y.size == 20

    def test_split_is_disjoint_and_complete(self):
        features, labels = make_blobs(60, 3, 2, seed=1)
        train_x, _, test_x, _ = train_test_split(features, labels, test_fraction=0.25, seed=1)
        combined = np.vstack([train_x, test_x])
        assert combined.shape[0] == features.shape[0]
        assert sorted(map(tuple, combined.tolist())) == sorted(map(tuple, features.tolist()))

    def test_deterministic_for_seed(self):
        features, labels = make_blobs(60, 3, 2, seed=1)
        a = train_test_split(features, labels, seed=7)
        b = train_test_split(features, labels, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rejects_bad_fraction(self):
        features, labels = make_blobs(30, 3, 2, seed=1)
        with pytest.raises(ValidationError):
            train_test_split(features, labels, test_fraction=0.0)
        with pytest.raises(ValidationError):
            train_test_split(features, labels, test_fraction=1.0)


class TestMakeOwnerDatasets:
    def test_paper_setup_shape(self):
        dataset, owners = make_owner_datasets(n_owners=9, sigma=0.0, n_samples=900, seed=0)
        assert len(owners) == 9
        assert dataset.n_train + dataset.n_test == 900
        assert abs(dataset.n_test - 0.2 * 900) <= 1
        assert dataset.n_features == 64

    def test_owner_sizes_are_balanced(self):
        _, owners = make_owner_datasets(n_owners=5, sigma=0.0, n_samples=500, seed=0)
        sizes = [o.n_samples for o in owners]
        assert max(sizes) - min(sizes) <= 1

    def test_noise_sigma_recorded_per_owner(self):
        _, owners = make_owner_datasets(n_owners=4, sigma=0.3, n_samples=400, seed=0)
        assert [o.noise_sigma for o in owners] == pytest.approx([0.0, 0.3, 0.6, 0.9])

    def test_sigma_zero_keeps_owner_features_in_pixel_range(self):
        _, owners = make_owner_datasets(n_owners=3, sigma=0.0, n_samples=300, seed=0, normalized=True)
        for owner in owners:
            assert owner.features.min() >= 0.0 and owner.features.max() <= 1.0

    def test_higher_rank_owners_are_noisier(self):
        dataset, owners = make_owner_datasets(n_owners=4, sigma=0.5, n_samples=400, seed=0)
        clean_std = np.std(owners[0].features)
        noisy_std = np.std(owners[-1].features)
        assert noisy_std > clean_std

    def test_deterministic_for_seed(self):
        a_dataset, a_owners = make_owner_datasets(n_owners=3, sigma=0.1, n_samples=300, seed=4)
        b_dataset, b_owners = make_owner_datasets(n_owners=3, sigma=0.1, n_samples=300, seed=4)
        assert np.array_equal(a_dataset.train_features, b_dataset.train_features)
        assert all(np.array_equal(x.features, y.features) for x, y in zip(a_owners, b_owners))

    def test_rejects_zero_owners(self):
        with pytest.raises(ValidationError):
            make_owner_datasets(n_owners=0)


class TestSyntheticGenerators:
    def test_blobs_shapes_and_classes(self):
        features, labels = make_blobs(90, 5, 3, seed=0)
        assert features.shape == (90, 5)
        assert set(labels.tolist()) == {0, 1, 2}

    def test_blobs_are_linearly_separable_when_far_apart(self):
        from repro.fl.logistic_regression import LogisticRegressionModel

        features, labels = make_blobs(300, 4, 3, class_separation=6.0, noise=0.5, seed=1)
        model = LogisticRegressionModel(4, 3)
        metrics = model.fit(features, labels, epochs=50, learning_rate=0.5)
        assert metrics["accuracy"] > 0.95

    def test_blobs_deterministic(self):
        a = make_blobs(50, 3, 2, seed=5)
        b = make_blobs(50, 3, 2, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_blobs_reject_bad_arguments(self):
        with pytest.raises(ValidationError):
            make_blobs(2, 3, 5)
        with pytest.raises(ValidationError):
            make_blobs(50, 0, 2)
