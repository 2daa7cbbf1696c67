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

from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.chain import Blockchain
from repro.blockchain.consensus import (
    ConsensusEngine,
    EpochAuthoritySchedule,
    VerificationResult,
    scheduled_proposer,
    verify_block_authority,
)
from repro.blockchain.mempool import Mempool
from repro.blockchain.merkle import MerkleTree
from repro.blockchain.network import Network, NetworkStats
from repro.blockchain.node import MinerNode
from repro.blockchain.state import StateProof, WorldState, verify_state_proof
from repro.blockchain.transaction import Transaction, TransactionReceipt
from repro.blockchain.swarm import (
    SwarmConfig,
    SwarmSupervisor,
    run_reference_workload,
    run_swarm_workload,
)
from repro.blockchain.transport import (
    BroadcastReport,
    Delivery,
    DeterministicTransport,
    FaultDecision,
    FaultInjectingTransport,
    FaultPlan,
    LinkFault,
    LinkFaultDecider,
    PartitionSpec,
    SocketTransport,
    Transport,
)

__all__ = [
    "Block",
    "BlockHeader",
    "Blockchain",
    "ConsensusEngine",
    "EpochAuthoritySchedule",
    "VerificationResult",
    "scheduled_proposer",
    "verify_block_authority",
    "Mempool",
    "MerkleTree",
    "Network",
    "NetworkStats",
    "MinerNode",
    "Transport",
    "DeterministicTransport",
    "FaultInjectingTransport",
    "SocketTransport",
    "FaultPlan",
    "FaultDecision",
    "LinkFault",
    "LinkFaultDecider",
    "PartitionSpec",
    "Delivery",
    "BroadcastReport",
    "SwarmConfig",
    "SwarmSupervisor",
    "run_reference_workload",
    "run_swarm_workload",
    "StateProof",
    "WorldState",
    "verify_state_proof",
    "Transaction",
    "TransactionReceipt",
]
