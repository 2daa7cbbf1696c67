"""Protocol configuration: everything the owners agree on at the setup stage."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.blockchain.state import STATE_ROOT_VERSION
from repro.exceptions import ConfigurationError
from repro.shapley.group import SV_ASSEMBLY_VERSION
from repro.utils.validation import require_format_tag


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters pinned on the registry contract before training starts.

    Attributes:
        n_owners: number of participating data owners.
        n_groups: GroupSV group count ``m`` (1 ≤ m ≤ n_owners).
        n_rounds: number of federated rounds ``R``.
        permutation_seed: the shared seed ``e`` driving per-round groupings.
        local_epochs: local gradient-descent epochs per round.
        learning_rate: local learning rate.
        l2: L2 regularization strength for the logistic-regression model.
        batch_size: local mini-batch size (None = full batch).
        precision_bits / field_bits: fixed-point codec parameters for masking.
        dh_bits: size of the Diffie–Hellman group used in simulation (small
            safe-prime groups keep tests fast; use >= 2048 in production).
        reward_pool: tokens distributed proportionally to contributions at the end.
        byzantine_miners: node ids that vote dishonestly during verification.
        sv_assembly_version: format tag of the exact-SV assembly the
            contribution contract and auditors run (the vectorized bitmask
            assembly of :mod:`repro.shapley.engine`).  Not a knob: only
            :data:`~repro.shapley.group.SV_ASSEMBLY_VERSION` is accepted, and
            the tag is pinned on chain at setup so a chain written under the
            retired scalar assembly (version 1) is refused, not recomputed
            with a different floating-point summation order.
        state_root_version: format tag of the state commitment block headers
            carry (the adaptive Merkle layout of
            :mod:`repro.blockchain.state`, which also yields per-entry
            inclusion proofs).  Not a knob: only
            :data:`~repro.blockchain.state.STATE_ROOT_VERSION` is accepted
            (the flat hash, version 1, and the fixed-1024-bucket layout,
            version 2, are retired), and the tag is pinned on the registry
            and in a store's metadata so foreign chains and stores are
            refused.  The *storage backend* under the chain
            (``repro.blockchain.storage``) is by contrast purely off-chain:
            it never appears in :meth:`on_chain_params` and cannot change
            chain hashes.
        authority_rotation: when True, training-round blocks are proposed
            under the epoch-authority schedule — the eligible proposers of
            round ``r`` are the registry's ``active_cohort(r)``, rotated
            deterministically from the epoch start, with view-change failover
            past silent or rejected leaders; the winning view number is hashed
            into each round block's header so miners and auditors recompute
            the schedule from chain state.  Off (the default) keeps the static
            round-robin over the full replica set and byte-identical chains:
            headers carry no view and hash exactly as before.  Pinned on chain
            at setup like every other consensus-relevant parameter.
        sv_estimator: ``"exact"`` (the default) runs the pinned exact-SV
            assembly over the full 2^m group game.  ``"sampled"`` runs the
            stratified + truncated permutation estimator
            (:mod:`repro.shapley.estimator`) whose receipts carry
            ``(estimate, half_width, n_samples, seed)`` — the audit re-runs
            the estimator from the chain-derived seed and checks the stored
            values lie within the stored bounds instead of exact equality.
            This is what retires the ``MAX_PLAYERS`` ceiling for large group
            counts.  Pinned on the registry; exact chains pin nothing extra.
        sv_samples: permutations the sampled estimator draws per round
            (rounded up to a whole number of size-m stratification blocks).
            Pinned alongside ``sv_estimator``.
    """

    n_owners: int = 9
    n_groups: int = 3
    n_rounds: int = 3
    permutation_seed: int = 13
    local_epochs: int = 1
    learning_rate: float = 0.5
    l2: float = 1e-4
    batch_size: int | None = None
    precision_bits: int = 24
    field_bits: int = 64
    dh_bits: int = 64
    reward_pool: float = 1000.0
    byzantine_miners: tuple[str, ...] = field(default_factory=tuple)
    sv_assembly_version: int = SV_ASSEMBLY_VERSION
    state_root_version: int = STATE_ROOT_VERSION
    authority_rotation: bool = False
    sv_estimator: str = "exact"
    sv_samples: int = 128

    def __post_init__(self) -> None:
        if self.n_owners < 2:
            raise ConfigurationError("the protocol needs at least two data owners")
        if not 1 <= self.n_groups <= self.n_owners:
            raise ConfigurationError("n_groups must be in [1, n_owners]")
        if self.n_rounds < 1:
            raise ConfigurationError("n_rounds must be positive")
        if self.local_epochs < 1:
            raise ConfigurationError("local_epochs must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.reward_pool < 0:
            raise ConfigurationError("reward_pool must be non-negative")
        for tag, current in (
            ("sv_assembly_version", SV_ASSEMBLY_VERSION),
            ("state_root_version", STATE_ROOT_VERSION),
        ):
            require_format_tag(tag, getattr(self, tag), current, ConfigurationError)
        if self.sv_estimator not in ("exact", "sampled"):
            raise ConfigurationError("sv_estimator must be 'exact' or 'sampled'")
        if self.sv_samples < 2:
            raise ConfigurationError("sv_samples must be at least 2 (sample variance needs it)")

    def on_chain_params(self, model_dimension: int) -> dict[str, Any]:
        """The parameter dict pinned on the registry contract.

        New consensus-relevant knobs are included only when they differ from
        their defaults, so chains that never use them keep byte-identical
        parameter records (and thus block hashes) with pre-knob chains.
        """
        params = {
            "n_owners": self.n_owners,
            "n_groups": self.n_groups,
            "n_rounds": self.n_rounds,
            "permutation_seed": self.permutation_seed,
            "precision_bits": self.precision_bits,
            "field_bits": self.field_bits,
            "max_summands": max(256, self.n_owners * 2),
            "model_dimension": model_dimension,
            "local_epochs": self.local_epochs,
            "learning_rate": self.learning_rate,
            "l2": self.l2,
            "sv_assembly_version": self.sv_assembly_version,
            "state_root_version": self.state_root_version,
            "authority_rotation": bool(self.authority_rotation),
        }
        if self.sv_estimator != "exact":
            params["sv_estimator"] = self.sv_estimator
            params["sv_samples"] = int(self.sv_samples)
        return params
