"""Local differential privacy baselines for FL updates.

Section II.B of the paper contrasts two client-level privacy families: LDP
(add calibrated noise to updates before sending — cheap but hurts utility) and
cryptographic masking (exact aggregates but heavier machinery).  The paper
adopts secure aggregation; this module provides the LDP alternative so the
ablation benchmarks can quantify the utility cost the paper alludes to
("the accumulated noises make the model not very useful").

Two standard mechanisms over clipped updates are provided:

* Gaussian mechanism — (ε, δ)-DP per round;
* Laplace mechanism — ε-DP per round.

Both operate on the flattened update vector with L2 (Gaussian) or L1 (Laplace)
clipping, mirroring DP-FedAvg-style clients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.fl.model import ModelParameters
from repro.utils.rng import spawn_rng


def clip_by_norm(vector: np.ndarray, clip_norm: float, ord: int = 2) -> np.ndarray:
    """Scale ``vector`` down so its L-``ord`` norm is at most ``clip_norm``."""
    if clip_norm <= 0:
        raise ValidationError("clip_norm must be positive")
    vector = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(vector, ord=ord))
    if norm <= clip_norm or norm == 0.0:
        return vector.copy()
    return vector * (clip_norm / norm)


def gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Noise scale of the analytic Gaussian mechanism (classic sufficient bound).

    sigma >= sensitivity * sqrt(2 ln(1.25/delta)) / epsilon, valid for epsilon <= 1
    and commonly used beyond as a conservative calibration.
    """
    if epsilon <= 0 or not 0 < delta < 1 or sensitivity <= 0:
        raise ValidationError("need epsilon > 0, 0 < delta < 1, sensitivity > 0")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


@dataclass(frozen=True)
class LdpConfig:
    """Per-round LDP parameters shared by all clients.

    Attributes:
        epsilon: per-round privacy budget ε.
        delta: failure probability δ (Gaussian mechanism only).
        clip_norm: clipping bound on the update norm (the sensitivity).
        mechanism: ``"gaussian"`` or ``"laplace"``.
    """

    epsilon: float = 1.0
    delta: float = 1e-5
    clip_norm: float = 1.0
    mechanism: str = "gaussian"

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValidationError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ValidationError("delta must be in (0, 1)")
        if self.clip_norm <= 0:
            raise ValidationError("clip_norm must be positive")
        if self.mechanism not in ("gaussian", "laplace"):
            raise ValidationError("mechanism must be 'gaussian' or 'laplace'")

    def noise_scale(self, dimension: int) -> float:
        """The per-coordinate noise scale implied by the configuration."""
        if self.mechanism == "gaussian":
            return gaussian_sigma(self.epsilon, self.delta, self.clip_norm)
        # Laplace: L1 sensitivity of an L2-clipped vector is clip_norm * sqrt(d).
        return self.clip_norm * math.sqrt(dimension) / self.epsilon


class LdpMechanism:
    """Applies clipping + noise to model updates (deterministically seeded)."""

    def __init__(self, config: LdpConfig) -> None:
        self.config = config

    def privatize_vector(self, vector: np.ndarray, owner_id: str, round_number: int) -> np.ndarray:
        """Clip and noise one flattened update vector."""
        vector = np.asarray(vector, dtype=np.float64).ravel()
        clipped = clip_by_norm(vector, self.config.clip_norm, ord=2)
        rng = spawn_rng("ldp", owner_id, round_number, self.config.mechanism)
        scale = self.config.noise_scale(vector.size)
        if self.config.mechanism == "gaussian":
            noise = rng.normal(0.0, scale, size=vector.shape)
        else:
            noise = rng.laplace(0.0, scale, size=vector.shape)
        return clipped + noise

    def privatize(self, parameters: ModelParameters, owner_id: str, round_number: int) -> ModelParameters:
        """Clip and noise a :class:`ModelParameters` update."""
        noisy = self.privatize_vector(parameters.to_vector(), owner_id, round_number)
        return parameters.from_vector(noisy)
