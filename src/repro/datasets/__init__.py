"""Datasets: a synthetic optdigits substitute, noise injection, and loaders.

The paper evaluates on the UCI *Optical Recognition of Handwritten Digits*
dataset (5620 instances, 64 attributes in [0, 16], 10 classes).  No network
access is available here, so :func:`repro.datasets.digits.load_digits`
deterministically synthesizes a dataset of the same shape and similar class
structure.
"""
