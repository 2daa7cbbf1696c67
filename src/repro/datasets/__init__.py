"""Datasets: a synthetic optdigits substitute, noise injection, and loaders.

The paper evaluates on the UCI *Optical Recognition of Handwritten Digits*
dataset (5620 instances, 64 attributes in [0, 16], 10 classes).  No network
access is available here, so :func:`repro.datasets.digits.load_digits`
deterministically synthesizes a dataset of the same shape and similar class
structure.
"""

from repro.datasets.digits import DIGITS_N_CLASSES, DIGITS_N_FEATURES, DIGITS_N_SAMPLES, load_digits
from repro.datasets.loader import Dataset, OwnerDataset, make_owner_datasets, train_test_split
from repro.datasets.noise import apply_quality_gradient, gaussian_noise
from repro.datasets.synthetic import make_blobs

__all__ = [
    "DIGITS_N_CLASSES",
    "DIGITS_N_FEATURES",
    "DIGITS_N_SAMPLES",
    "load_digits",
    "Dataset",
    "OwnerDataset",
    "make_owner_datasets",
    "train_test_split",
    "apply_quality_gradient",
    "gaussian_noise",
    "make_blobs",
]
