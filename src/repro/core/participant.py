"""Participants: data owners that are simultaneously FL trainers and miners."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.blockchain.contracts.base import ContractRuntime
from repro.blockchain.network import Network
from repro.blockchain.node import MinerNode
from repro.blockchain.transaction import Transaction
from repro.crypto.dh import DHKeyPair, DHParameters
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.masking import PairwiseMasker
from repro.crypto.sharding import RoundAssignment
from repro.datasets.loader import OwnerDataset
from repro.exceptions import ProtocolError
from repro.fl.client import DataOwner
from repro.fl.model import ModelParameters


class Participant:
    """One cross-silo organization: local data + DH keys + a miner node.

    The participant exposes exactly the operations the protocol needs:
    building its registration transactions, producing a masked update for a
    round, and (through :attr:`node`) the miner behaviours of proposing and
    verifying blocks.
    """

    def __init__(
        self,
        data: OwnerDataset,
        n_classes: int,
        network: Network,
        runtime_factory: Callable[[], ContractRuntime],
        dh_params: DHParameters,
        codec: FixedPointCodec,
        local_epochs: int = 1,
        learning_rate: float = 0.5,
        l2: float = 1e-4,
        batch_size: int | None = None,
        key_seed: int = 0,
        byzantine: bool = False,
    ) -> None:
        self.owner_id = data.owner_id
        self.client = DataOwner(
            owner_id=data.owner_id,
            features=data.features,
            labels=data.labels,
            n_classes=n_classes,
            local_epochs=local_epochs,
            learning_rate=learning_rate,
            batch_size=batch_size,
            l2=l2,
        )
        self.dh_params = dh_params
        self.keypair = DHKeyPair.generate(dh_params, data.owner_id, seed=key_seed)
        self.codec = codec
        self.node = MinerNode(data.owner_id, network, runtime_factory, byzantine=byzantine)
        self._peer_public_keys: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Setup-phase helpers
    # ------------------------------------------------------------------

    @property
    def public_key(self) -> int:
        """The Diffie–Hellman public key published on the registry."""
        return self.keypair.public_key

    def registration_transaction(self, nonce: int) -> Transaction:
        """The transaction registering this participant on the registry contract."""
        return Transaction(
            sender=self.owner_id,
            contract="registry",
            method="register_participant",
            args={"public_key": self.public_key, "role": "owner"},
            nonce=nonce,
        )

    def learn_peer_keys(self, public_keys: dict[str, int]) -> None:
        """Record every other participant's public key (read from the chain)."""
        self._peer_public_keys = {
            owner: int(key) for owner, key in public_keys.items() if owner != self.owner_id
        }

    # ------------------------------------------------------------------
    # Training-phase behaviour
    # ------------------------------------------------------------------

    def train_local(self, global_parameters: ModelParameters, round_number: int) -> ModelParameters:
        """Run local training from the global model."""
        return self.client.local_train(global_parameters, round_number).parameters

    def masked_update_transaction(
        self,
        local_parameters: ModelParameters,
        round_number: int,
        assignment: RoundAssignment,
        nonce: int,
    ) -> Transaction:
        """Mask the local model against the owner's group and build the submit tx.

        Masks are pairwise within the group: the owners whose payloads are
        summed together on chain, so only their masks must cancel.  The
        round's assignment names it, and the group id the transaction claims.
        """
        if self.owner_id not in assignment.slots:
            raise ProtocolError(f"{self.owner_id} asked to mask for a cohort it does not belong to")
        group_id = assignment.slots[self.owner_id]
        peers = [peer for peer in assignment.mask_cohort(self.owner_id) if peer != self.owner_id]
        missing = [peer for peer in peers if peer not in self._peer_public_keys]
        if missing:
            raise ProtocolError(f"{self.owner_id} is missing public keys for peers: {missing}")
        cohort_keys = {peer: self._peer_public_keys[peer] for peer in peers}
        masker = PairwiseMasker(self.owner_id, self.keypair, cohort_keys, codec=self.codec)
        masked = masker.mask(local_parameters.to_vector(), round_number)
        return Transaction(
            sender=self.owner_id,
            contract="fl_training",
            method="submit_masked_update",
            args={
                "round_number": round_number,
                "group_id": group_id,
                "payload": np.asarray(masked.payload, dtype=np.uint64),
                "n_samples": self.client.n_samples,
            },
            nonce=nonce,
        )
