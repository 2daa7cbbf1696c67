"""A deterministic, in-process blockchain with smart-contract support.

The paper's protocol is blockchain agnostic: it only needs (1) a leader that
proposes transactions, (2) miners that re-execute and verify the proposal, and
(3) transparent, replayable on-chain state.  This package provides exactly that
as an in-memory simulation:

* :mod:`repro.blockchain.transaction` / :mod:`repro.blockchain.block` — signed
  transactions, Merkle-rooted blocks.
* :mod:`repro.blockchain.state` — the journaled, Merkle-ized world state:
  O(Δ) rollback, per-block reverse deltas, an incrementally maintained
  state root, and per-entry inclusion proofs.
* :mod:`repro.blockchain.chain` — the ledger, validation, and replay.
* :mod:`repro.blockchain.contracts` — the deterministic contract runtime and the
  FL / secure-aggregation / contribution-evaluation contracts.
* :mod:`repro.blockchain.consensus` — proof-of-authority leader selection
  (static round-robin or the chain-state-derived epoch-authority schedule
  with view-change failover) and majority re-execution verification.
* :mod:`repro.blockchain.network` / :mod:`repro.blockchain.node` — a simulated
  P2P network of miner nodes.
* :mod:`repro.blockchain.transport` — pluggable delivery layers: the default
  deterministic transport (byte-identical to the historical network), a
  seeded fault-injecting transport (partitions, loss, duplication, latency)
  driven by a declarative :class:`~repro.blockchain.transport.FaultPlan`, and
  a real blocking Unix-socket transport for multi-process swarms.
* :mod:`repro.blockchain.swarm` — the socket miner swarm: a supervisor that
  launches miner peers as OS processes over the socket transport and verifies
  their converged head byte-identical to the deterministic reference.
"""
