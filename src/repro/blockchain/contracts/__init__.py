"""Smart contracts and the deterministic runtime that executes them.

Contracts are plain Python classes registered with the
:class:`~repro.blockchain.contracts.base.ContractRuntime`.  A contract method
receives a :class:`~repro.blockchain.contracts.base.ContractContext` giving it
namespaced access to the world state, the sender identity, the block height,
and an event emitter.  Execution is purely a function of (state, transaction),
which is what allows every miner to verify a leader's proposal by re-execution.

Contracts provided:

* :class:`~repro.blockchain.contracts.registry.ParticipantRegistryContract` —
  participants register their Diffie–Hellman public keys and the agreed
  protocol parameters (FL, secure aggregation, evaluation) are pinned on chain.
* :class:`~repro.blockchain.contracts.fl_training.FLTrainingContract` — collects
  masked updates per round, performs the secure group aggregation, and publishes
  group and global models.
* :class:`~repro.blockchain.contracts.contribution.ContributionContract` —
  implements Algorithm 1 (GroupSV) on-chain: builds coalition models from the
  published group models and assigns per-round Shapley values to every owner.
* :class:`~repro.blockchain.contracts.reward.RewardContract` — converts final
  contributions into token rewards.
"""
