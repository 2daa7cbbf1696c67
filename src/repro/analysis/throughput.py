"""Blockchain overhead and throughput modelling (future work §VI item 1).

Two complementary views:

* :func:`measure_chain_overhead` measures an *actual* protocol run: messages
  and bytes on the simulated network (canonical record bytes × recipients,
  requests only — votes and sync replies are handler return values and not
  counted), transactions and gas on the chain, and the per-round breakdown.
* :class:`ThroughputModel` is an analytic model: given a target chain's
  transaction throughput and payload limits (e.g. Ethereum-like or
  Hyperledger-like presets), it estimates rounds-per-hour and flags the binding
  bottleneck — the question the paper's future work poses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blockchain.chain import Blockchain
from repro.blockchain.network import NetworkStats
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class ThroughputReport:
    """Measured on-chain/on-network cost of a protocol run."""

    n_blocks: int
    n_transactions: int
    total_gas: int
    network_messages: int
    network_bytes: int
    transactions_per_round: float
    bytes_per_round: float
    gas_per_round: float


def measure_chain_overhead(chain: Blockchain, network_stats: NetworkStats | dict, n_rounds: int) -> ThroughputReport:
    """Summarize the overhead of a finished protocol run."""
    if n_rounds < 1:
        raise ValidationError("n_rounds must be positive")
    stats = network_stats.as_dict() if isinstance(network_stats, NetworkStats) else dict(network_stats)
    n_transactions = chain.total_transactions()
    total_gas = chain.total_gas()
    return ThroughputReport(
        n_blocks=chain.height,
        n_transactions=n_transactions,
        total_gas=total_gas,
        network_messages=int(stats.get("messages_sent", 0)),
        network_bytes=int(stats.get("bytes_sent", 0)),
        transactions_per_round=n_transactions / n_rounds,
        bytes_per_round=float(stats.get("bytes_sent", 0)) / n_rounds,
        gas_per_round=total_gas / n_rounds,
    )


@dataclass(frozen=True)
class ThroughputModel:
    """Analytic throughput model for deploying the protocol on a real chain.

    Attributes:
        transactions_per_second: the chain's sustained transaction throughput.
        max_tx_payload_bytes: the largest payload a single transaction may carry.
        block_interval_seconds: average block time.
    """

    transactions_per_second: float
    max_tx_payload_bytes: int
    block_interval_seconds: float
    name: str = "custom"

    @classmethod
    def ethereum_like(cls) -> "ThroughputModel":
        """Public-chain preset: ~15 tx/s, ~128 KiB practical payload, 13 s blocks."""
        return cls(15.0, 128 * 1024, 13.0, name="ethereum-like")

    @classmethod
    def hyperledger_like(cls) -> "ThroughputModel":
        """Permissioned-chain preset: ~1000 tx/s, ~1 MiB payload, 1 s blocks."""
        return cls(1000.0, 1024 * 1024, 1.0, name="hyperledger-like")

    def transactions_per_update(self, update_bytes: int) -> int:
        """How many transactions one masked update must be split into."""
        if update_bytes <= 0:
            raise ValidationError("update_bytes must be positive")
        return -(-update_bytes // self.max_tx_payload_bytes)  # ceiling division

    def round_latency_seconds(self, n_owners: int, update_bytes: int, evaluation_transactions: int = 2) -> float:
        """Estimated wall-clock seconds to commit one full round on this chain.

        A round needs one (possibly chunked) update transaction per owner plus
        the finalize/evaluate calls; latency is bounded below by both the
        throughput limit and one block interval.
        """
        if n_owners < 1:
            raise ValidationError("n_owners must be positive")
        tx_count = n_owners * self.transactions_per_update(update_bytes) + evaluation_transactions
        throughput_bound = tx_count / self.transactions_per_second
        return max(throughput_bound, self.block_interval_seconds)

    def rounds_per_hour(self, n_owners: int, update_bytes: int) -> float:
        """Estimated number of protocol rounds this chain can sustain per hour."""
        return 3600.0 / self.round_latency_seconds(n_owners, update_bytes)

    def bottleneck(self, n_owners: int, update_bytes: int) -> str:
        """Which constraint binds: ``"throughput"`` or ``"block-interval"``."""
        tx_count = n_owners * self.transactions_per_update(update_bytes) + 2
        throughput_bound = tx_count / self.transactions_per_second
        return "throughput" if throughput_bound > self.block_interval_seconds else "block-interval"
