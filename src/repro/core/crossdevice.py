"""Cross-device simulation harness: sharded secure aggregation at 1k–10k devices.

The full :class:`~repro.core.protocol.BlockchainFLProtocol` spawns one miner
per owner and gossips every message to every peer — O(n²) traffic that models
a cross-*silo* consortium faithfully but stops being runnable long before
cross-device cohort sizes.  This harness keeps the parts whose cost the PR is
about — real Diffie–Hellman key agreement, real pairwise masking, real ring
aggregation, and the sampled GroupSV estimator — and replaces the consensus
simulation with direct calls, so a 10 000-device round is dominated by the
cryptography it measures rather than by simulated gossip.

Topology: the cohort is dealt into committees of ``shard_size`` devices by the
on-chain path's own :func:`~repro.crypto.sharding.round_assignment` (the
committees are its groups, with no further sharding), and summed by the
on-chain path's own kernel, :func:`~repro.crypto.masking.aggregate_groups`.
Each committee runs Bonawitz-style secure aggregation among its own members
(O(shard_size) masks per device — the whole point), and in cross-device mode
the committees *are* the GroupSV groups: contribution is
resolved per committee and split equally inside it, exactly Algorithm 1 with
m = number of committees.  With hundreds of committees the exact 2^m
enumeration is infeasible by construction (the engine refuses past
:data:`~repro.shapley.engine.MAX_PLAYERS`), which is what the sampled
estimator is for; ``sv_estimator="exact"`` is still accepted so tests can
assert the refusal.

Device data is synthetic: one centrally-trained base model plus per-device
parameter noise scaled by ``1 − q_i`` where ``q_i`` is the device's quality
weight.  The three quality distributions — ``uniform``, ``linear``,
``quadratic`` — give cohorts where contribution should be flat, linearly
decaying, and front-loaded respectively, which the scenario runs surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from repro.crypto.dh import DHParameters, key_table, shared_secrets
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.masking import aggregate_groups, net_masks
from repro.crypto.sharding import round_assignment, shard_count
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ValidationError
from repro.fl.server import CentralizedTrainer
from repro.shapley.estimator import estimator_seed_for_round
from repro.shapley.group import evaluate_group_game
from repro.shapley.utility import AccuracyUtility
from repro.utils.rng import spawn_rng

#: Supported device-quality distributions.
DISTRIBUTIONS = ("uniform", "linear", "quadratic")

#: Most lanes in one ``shared_secrets`` / ``net_masks`` call (time x peak-RSS sweeps).
SECRET_LANES, EXPANSION_LANES = 4096, 1024


def quality_weights(n_devices: int, distribution: str) -> np.ndarray:
    """Per-device quality q_i in [0, 1], best device first.

    ``uniform`` gives every device q = 1; ``linear`` decays as 1 − i/(n−1);
    ``quadratic`` squares the linear decay, concentrating quality in the head.
    """
    if n_devices < 1:
        raise ValidationError("need at least one device")
    if distribution not in DISTRIBUTIONS:
        raise ValidationError(
            f"distribution must be one of {DISTRIBUTIONS}, got {distribution!r}"
        )
    if distribution == "uniform" or n_devices == 1:
        return np.ones(n_devices, dtype=np.float64)
    ramp = 1.0 - np.arange(n_devices, dtype=np.float64) / (n_devices - 1)
    return ramp if distribution == "linear" else ramp**2


@dataclass(frozen=True)
class CrossDeviceConfig:
    """Knobs for one cross-device simulation.

    Attributes:
        n_devices: cohort size (the scale axis; 1k–10k is the target range).
        shard_size: committee size — the per-device mask count is
            ``len(shard) − 1 ≤ shard_size − 1``.
        distribution: device-quality distribution (see :data:`DISTRIBUTIONS`).
        sv_estimator: ``"sampled"`` (the cross-device default) or ``"exact"``
            (refused by the engine once committees outnumber its cap).
        sv_samples: permutations for the sampled estimator.
        n_rounds: simulated rounds.
        seed: master seed — the run is a pure function of this config.
        n_features / n_classes / n_train / n_test: synthetic task shape.
        noise_scale: parameter-noise magnitude applied as
            ``noise_scale · (1 − q_i)``.
        dh_bits: bits of the safe-prime group's q, so p has ``dh_bits + 1`` (test-grade;
            the cost scaling, not the security level, is what the harness measures).
    """

    n_devices: int = 1000
    shard_size: int = 32
    distribution: str = "linear"
    sv_estimator: str = "sampled"
    sv_samples: int = 64
    n_rounds: int = 1
    seed: int = 7
    n_features: int = 16
    n_classes: int = 4
    n_train: int = 512
    n_test: int = 256
    noise_scale: float = 0.5
    dh_bits: int = 64

    def __post_init__(self) -> None:
        if self.n_devices < 2:
            raise ValidationError("cross-device runs need at least 2 devices")
        if self.shard_size < 2:
            raise ValidationError("shard_size must be at least 2")
        if self.n_devices < 2 * shard_count(self.n_devices, self.shard_size):
            raise ValidationError(
                f"every committee needs at least 2 devices: {self.n_devices} devices in committees of "
                f"at most {self.shard_size} leave one with a single device, whose update no mask hides"
            )
        if self.distribution not in DISTRIBUTIONS:
            raise ValidationError(
                f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}"
            )
        if self.sv_estimator not in ("exact", "sampled"):
            raise ValidationError("sv_estimator must be 'exact' or 'sampled'")
        if self.sv_samples < 2:
            raise ValidationError("sv_samples must be at least 2")
        if self.n_rounds < 1:
            raise ValidationError("n_rounds must be positive")


@dataclass
class CrossDeviceRound:
    """One simulated round's outputs."""

    round_number: int
    shards: list[list[str]]
    shard_values: list[float]
    user_values: dict[str, float]
    user_half_widths: dict[str, float]
    global_utility: float
    mask_counts: dict[str, int]
    estimator: dict[str, Any] | None
    seconds_masking: float
    seconds_aggregation: float
    seconds_shapley: float


@dataclass
class CrossDeviceResult:
    """A full simulation: per-round records plus accumulated totals."""

    config: CrossDeviceConfig
    rounds: list[CrossDeviceRound] = field(default_factory=list)
    total_contributions: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def max_mask_count(self) -> int:
        return max(max(r.mask_counts.values()) for r in self.rounds)


def _device_id(index: int, width: int) -> str:
    return f"device-{index:0{width}d}"


def simulate_cross_device(config: CrossDeviceConfig) -> CrossDeviceResult:
    """Run the cross-device simulation and return its result.

    Deterministic in ``config``.  Raises
    :class:`~repro.exceptions.ShapleyError` (from the GroupSV kernel) if
    ``sv_estimator="exact"`` is requested with more committees than the exact
    engine's player cap — the designed-in infeasibility that motivates the
    sampled estimator.
    """
    width = len(str(config.n_devices - 1))
    device_ids = [_device_id(i, width) for i in range(config.n_devices)]
    quality = quality_weights(config.n_devices, config.distribution)
    quality_by_id = {device: float(q) for device, q in zip(device_ids, quality)}

    # One base model trained centrally; each device's "local model" is the
    # base plus quality-scaled parameter noise.  Cheap enough for 10k devices
    # and gives the quality distributions a direct effect on contribution.
    features, labels = make_blobs(
        config.n_train + config.n_test,
        config.n_features,
        config.n_classes,
        seed=config.seed,
    )
    train_f, test_f = features[: config.n_train], features[config.n_train :]
    train_l, test_l = labels[: config.n_train], labels[config.n_train :]
    trainer = CentralizedTrainer(config.n_features, config.n_classes, epochs=20, learning_rate=1.0)
    base_vector = trainer.train(train_f, train_l, seed=config.seed).to_vector()
    scorer = AccuracyUtility(test_f, test_l, config.n_classes)

    device_vectors = spawn_rng("cross-device-noise", config.seed, config.n_devices).normal(size=(config.n_devices, base_vector.size))
    device_vectors *= (config.noise_scale * (1.0 - quality))[:, None]  # the noise, scaled and offset in place
    device_vectors += base_vector

    # Real key agreement: one DH keypair per device (a key-table column), shared within shards
    # only: ``DHKeyPair.generate``'s private keys, their public keys by one fixed-base comb.
    dh_params = DHParameters.for_testing(bits=config.dh_bits, seed=config.seed)
    group = dh_params.group
    private_keys = [group.element_from_seed("dh-private", device, config.seed) for device in device_ids]
    keys = key_table(dh_params, private_keys, group.generator_powers(private_keys))
    column, rank = {device: k for k, device in enumerate(device_ids)}, np.argsort(np.argsort(device_ids))  # id order
    n_shards = shard_count(config.n_devices, config.shard_size)
    # Sized like the chain's codec: twice the largest committee, at least 256.
    codec = FixedPointCodec(max_summands=max(256, 2 * -(-config.n_devices // n_shards)))

    result = CrossDeviceResult(config=config, quality=quality_by_id)
    for round_number in range(config.n_rounds):
        # Committees re-deal every round with the canonical permutation, inside the round.
        t0 = time.perf_counter()
        shards = round_assignment(device_ids, n_shards, config.seed, round_number).groups
        # Lane i is device own[i] with peer other[i]: committee by committee, each member with
        # every other, so the k-th device dealt has lanes offsets[k]:offsets[k + 1].  A call
        # takes a block of whole devices, as many as fit the busiest one's lanes in its size.
        committees = [np.fromiter(map(column.__getitem__, shard), np.int32, len(shard)) for shard in shards]
        own = np.concatenate([np.repeat(members, members.size) for members in committees])
        other = np.concatenate([np.tile(members, members.size) for members in committees])
        own, other = own[own != other], other[own != other]
        counts = np.concatenate([np.full(members.size, members.size - 1) for members in committees])
        offsets, n = np.concatenate(([0], np.cumsum(counts))), counts.size
        step, substep = (max(1, lanes // max(1, int(counts.max()))) for lanes in (SECRET_LANES, EXPANSION_LANES))
        nets = np.empty((n, base_vector.size), dtype=np.uint64)
        for a in range(0, n, step):
            b = min(a + step, n)
            secrets = shared_secrets(dh_params, keys, own[offsets[a] : offsets[b]], other[offsets[a] : offsets[b]])
            for c in range(a, b, substep):
                d = min(c + substep, b)
                lanes = slice(offsets[c], offsets[d])  # a peer whose id sorts first is subtracted
                nets[c:d] = net_masks(secrets[lanes.start - offsets[a] : lanes.stop - offsets[a]],
                                      rank[other[lanes]] < rank[own[lanes]], counts[c:d], round_number, base_vector.size, codec)
        payloads = dict(zip(chain(*shards), codec.add(codec.encode(device_vectors)[np.concatenate(committees)], nets)))
        mask_counts = dict(zip(chain(*shards), counts.tolist()))
        t1 = time.perf_counter()
        shard_models = aggregate_groups(payloads, shards, codec)
        t2 = time.perf_counter()

        # The committees are the GroupSV groups: the contract's own kernel.
        # Its estimator record is the off-chain harness record — the
        # deterministic counters plus the scoring wall time (which *may*
        # differ run to run — it never feeds a receipt).
        evaluation = evaluate_group_game(
            shard_models,
            shards,
            scorer,
            estimator=config.sv_estimator,
            n_samples=config.sv_samples,
            seed=estimator_seed_for_round(config.seed, round_number),
        )
        for device, value in evaluation.user_values.items():
            result.total_contributions[device] = result.total_contributions.get(device, 0.0) + value
        t3 = time.perf_counter()
        result.rounds.append(
            CrossDeviceRound(
                round_number=round_number,
                shards=[list(shard) for shard in shards],
                shard_values=list(evaluation.group_values),
                user_values=evaluation.user_values,
                user_half_widths=evaluation.user_half_widths,
                global_utility=evaluation.global_utility,
                mask_counts=mask_counts,
                estimator=evaluation.estimator,
                seconds_masking=t1 - t0,
                seconds_aggregation=t2 - t1,
                seconds_shapley=t3 - t2,
            )
        )
    return result
