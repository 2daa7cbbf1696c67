"""Shared utilities: canonical serialization, hashing, RNG management."""
