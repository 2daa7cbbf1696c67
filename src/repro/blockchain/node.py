"""Miner nodes: blockchain replicas attached to the simulated network.

Every data owner in the paper's framework runs a miner.  A
:class:`MinerNode` keeps its own chain replica and mempool, gossips
transactions, proposes blocks when selected as leader, verifies other leaders'
proposals by re-execution, and commits blocks that reach a majority.

Under a fault-injecting transport the node additionally recovers from
delivery failures: gossip is retried with exponential backoff, vote
collection treats unreachable miners as abstains (counted in the quorum
denominator) instead of hanging, and a replica that detects it fell behind —
a proposal or commit arriving above its height — asks a peer for the blocks
it is missing and takes each through the same verify-and-append as a live
commit.  A block above genesis enters a live replica no other way.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain
from repro.blockchain.consensus import ConsensusEngine, VerificationResult
from repro.blockchain.contracts.base import ContractRuntime
from repro.blockchain.mempool import Mempool
from repro.blockchain.network import Network
from repro.blockchain.transaction import Transaction
from repro.blockchain.transport import DELIVERED, ERROR, BroadcastReport
from repro.exceptions import BlockchainError, ConsensusError, InvalidBlockError

TOPIC_TRANSACTIONS = "tx"
TOPIC_PROPOSAL = "proposal"
TOPIC_COMMIT = "commit"
TOPIC_SYNC = "sync"


class MinerNode:
    """A single miner: chain replica + mempool + network endpoints."""

    #: Retry sweeps per gossip broadcast (tx and commit) over a lossy transport.
    MAX_RETRIES = 2
    #: Backoff before the first retry sweep in simulated ticks, doubled per
    #: sweep (recorded for reporting; the single-threaded simulation never sleeps).
    RETRY_BACKOFF = 2

    def __init__(
        self,
        node_id: str,
        network: Network,
        runtime_factory: Callable[[], ContractRuntime],
        byzantine: bool = False,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.chain = Blockchain(runtime_factory, chain_id=f"chain-{node_id}")
        self.mempool = Mempool()
        self.byzantine = byzantine
        #: Completed resyncs: {"peer", "from_height", "to_height", "blocks"}.
        self.resyncs: list[dict[str, Any]] = []
        network.join(node_id)
        network.subscribe(node_id, TOPIC_TRANSACTIONS, self._on_transaction)
        network.subscribe(node_id, TOPIC_PROPOSAL, self._on_proposal)
        network.subscribe(node_id, TOPIC_COMMIT, self._on_commit)
        network.subscribe(node_id, TOPIC_SYNC, self._on_sync_request)

    # ------------------------------------------------------------------
    # Network handlers
    # ------------------------------------------------------------------

    def _on_transaction(self, sender_id: str, payload: Any) -> bool | list[bool]:
        """Gossip handler: admit a transaction, or a list of them element-wise
        (each on its own checks: a bad one costs its neighbours nothing)."""
        if isinstance(payload, list):
            return [self._admit(tx) for tx in payload]
        return self._admit(payload)

    def _admit(self, tx: Transaction, own: bool = False) -> bool:
        """Admit one transaction into the local mempool.

        A transaction whose nonce the chain has already consumed is a stale
        redelivery (a retried or delayed frame arriving after its block
        committed — routine under the socket transport) and is rejected, not
        queued to poison the next proposal.  An invalid one is dropped, unless
        it is ``own``: then its ``InvalidTransactionError`` reaches the submitter.
        """
        try:
            if tx.nonce < self.chain.next_nonce(tx.sender):
                return False
            return self.mempool.add(tx)
        except Exception:  # noqa: BLE001 - a bad tx is simply not admitted
            if own:
                raise
            return False

    def _on_proposal(self, sender_id: str, block: Block) -> dict[str, Any]:
        """Verification protocol: re-execute the proposal and vote.

        A Byzantine miner votes to reject everything, modelling the paper's
        assumption that dishonest miners cannot stall the chain unless they are
        a majority.  A proposal arriving more than one block above the local
        height means this replica missed a commit (e.g. behind a healed
        partition); it resyncs from a peer before judging the proposal.
        """
        if self.byzantine:
            return {"vote": False, "error": "byzantine rejection"}
        if block.height > self.chain.height + 1:
            self.try_resync()
        try:
            # A dry run: every check of a commit, unwound through the state's
            # write journal; the commit of this block adopts what it wrote.
            self.chain.verify_and_append(block, dry_run=True)
            return {"vote": True, "error": ""}
        except Exception as exc:  # noqa: BLE001 - any failure is a rejection vote
            return {"vote": False, "error": str(exc)}

    def _on_commit(self, sender_id: str, block: Block) -> bool:
        """Commit handler: append a block that reached majority acceptance.

        Duplicate commits (redelivered gossip) are idempotently acknowledged,
        and a commit arriving above the next height triggers a peer resync to
        fill the gap before the block is applied.
        """
        if block.height > self.chain.height + 1:
            self.try_resync()
        if block.height <= self.chain.height:
            # Already have a block at that height; ack iff it is the same one.
            return self.chain.blocks[block.height].block_hash == block.block_hash
        if block.height > self.chain.height + 1:
            return False
        try:
            self.commit_block(block)
            return True
        except InvalidBlockError:
            return False

    def _on_sync_request(self, sender_id: str, payload: Any) -> list[Block]:
        """Serve a peer that fell behind the blocks above the height it reports.

        Blocks only — never the replica: the requester re-executes each one.
        A peer at or above this replica's height gets an empty list.
        """
        height = payload.get("height") if isinstance(payload, dict) else None
        if not isinstance(height, int) or isinstance(height, bool) or height < 0:
            raise BlockchainError(f"sync request needs a non-negative integer height, got {payload!r}")
        return self.chain.blocks[height + 1:]

    # ------------------------------------------------------------------
    # Active behaviour
    # ------------------------------------------------------------------

    def _broadcast_with_retry(self, topic: str, payload: Any) -> BroadcastReport:
        """Broadcast, then retry undelivered recipients with exponential backoff.

        Per-recipient retries are bounded by :attr:`MAX_RETRIES`; each retry
        sweep "waits" twice as long as the previous one, starting at
        :attr:`RETRY_BACKOFF` ticks (recorded on the report).  A recipient
        whose handler *ran* (delivered or raised) is never retried.
        """
        report = self.network.broadcast(self.node_id, topic, payload)
        pending = report.undelivered()
        backoff = self.RETRY_BACKOFF
        for _ in range(self.MAX_RETRIES):
            if not pending:
                break
            report.retry_backoffs.append(backoff)
            self.network.stats.record_retries(topic, len(pending), peer=self.node_id)
            still_pending = []
            for recipient_id in pending:
                delivery = self.network.send(self.node_id, recipient_id, topic, payload)
                delivery.attempts = report.deliveries[recipient_id].attempts + 1
                report.deliveries[recipient_id] = delivery
                if delivery.status not in (DELIVERED, ERROR):
                    still_pending.append(recipient_id)
            pending = still_pending
            backoff *= 2
        return report

    def submit_transaction(self, tx: Transaction) -> BroadcastReport:
        """Admit a transaction locally and gossip it to every peer (with retries).

        An own transaction passes :meth:`_admit` like a peer's: one whose
        nonce the chain has consumed is not queued; an invalid one raises unsent.
        """
        self._admit(tx, own=True)
        return self._broadcast_with_retry(TOPIC_TRANSACTIONS, tx)

    def submit_transactions(self, txs: list[Transaction]) -> BroadcastReport:
        """Admit a batch locally and gossip it to every peer as one message (with retries)."""
        for tx in txs:
            self._admit(tx, own=True)
        return self._broadcast_with_retry(TOPIC_TRANSACTIONS, txs)

    def propose_block(self, view: int | None = None) -> Block:
        """Leader role: build the next block from the local mempool.

        The block is staged as a dry run so that the leader's local replica
        is only advanced at commit time, keeping all replicas in lock-step.
        Under epoch-authority rotation the leader stamps the consensus
        ``view`` it proposes for into the header, where every verifier checks
        it against the on-chain schedule.  Each sender's transactions go in
        nonce order, in the slots they hold in arrival order: one redelivered
        under faults can arrive after its sender's later ones.
        """
        txs = self.mempool.peek()
        queues = {sender: iter(sorted([tx for tx in txs if tx.sender == sender], key=lambda tx: tx.nonce))
                  for sender in {tx.sender for tx in txs}}
        txs = [next(queues[tx.sender]) for tx in txs]
        return self.chain.propose_block(self.node_id, txs, view=view, dry_run=True)

    def collect_votes(
        self, block: Block
    ) -> tuple[dict[str, bool], dict[str, str], dict[str, str]]:
        """Broadcast a proposal and gather per-miner votes.

        Proposals get exactly one broadcast — one timeout window per vote
        round, no retries — so a vote that does not come back within the
        window is an *abstain*: recorded as a ``False`` vote (it stays in the
        quorum denominator, so an isolated proposer cannot commit on its own
        1/1 "majority") with the delivery status in the ``unreachable`` map.
        """
        report = self.network.broadcast(self.node_id, TOPIC_PROPOSAL, block)
        votes = {self.node_id: True}
        rejections: dict[str, str] = {}
        unreachable: dict[str, str] = {}
        for node_id, delivery in sorted(report.deliveries.items()):
            if delivery.status == DELIVERED:
                response = delivery.result
                if not isinstance(response, dict):
                    # A vote must be a mapping; anything else off the wire (a
                    # corrupt or malicious frame) is a rejection, not a crash.
                    votes[node_id] = False
                    rejections[node_id] = f"malformed vote response: {response!r}"
                    continue
                votes[node_id] = bool(response.get("vote", False))
                if not votes[node_id]:
                    rejections[node_id] = str(response.get("error", ""))
            else:
                votes[node_id] = False
                rejections[node_id] = f"no vote received ({delivery.status})"
                unreachable[node_id] = delivery.status
        return votes, rejections, unreachable

    def commit_block(self, block: Block) -> None:
        """Append an accepted block to the local replica and drop included txs.

        Also evicts mempool transactions the commit made stale (nonce already
        consumed) — a late-arriving duplicate of a committed transaction must
        not linger and surface in a later proposal.
        """
        self.chain.verify_and_append(block)
        self.mempool.remove([tx.tx_hash for tx in block.transactions])
        self.evict_stale()

    def evict_stale(self) -> int:
        """Drop mempool transactions whose nonce the chain has already consumed."""
        stale = [
            tx.tx_hash for tx in self.mempool.peek()
            if tx.nonce < self.chain.next_nonce(tx.sender)
        ]
        self.mempool.remove(stale)
        return len(stale)

    def try_resync(self) -> bool:
        """Catch up from the first peer that serves blocks extending the local head.

        Each served block goes through :meth:`commit_block` — re-executed,
        evicted from the mempool and persisted exactly like a live commit.  A
        block that fails verification (tampered, or a diverged prefix) ends
        that peer's turn: what was already appended stays, nothing past it is
        taken, and the next peer is asked for the rest.  Returns whether any
        blocks were adopted.
        """
        started_at = self.chain.height
        for peer_id in self.network.peers():
            if peer_id == self.node_id:
                continue
            from_height = self.chain.height
            try:
                delivery = self.network.send(
                    self.node_id, peer_id, TOPIC_SYNC, {"height": from_height}
                )
            except BlockchainError:
                continue  # peer does not serve sync requests
            if delivery.status != DELIVERED or not isinstance(delivery.result, list):
                continue
            clean = True
            try:
                for block in delivery.result:
                    self.commit_block(block)
            except Exception:  # noqa: BLE001 - an invalid/diverged peer: try the next
                clean = False
            if self.chain.height > from_height:
                self.resyncs.append(
                    {
                        "peer": peer_id,
                        "from_height": from_height,
                        "to_height": self.chain.height,
                        "blocks": self.chain.height - from_height,
                    }
                )
                if clean:
                    break
        return self.chain.height > started_at

    def run_consensus_round(
        self,
        engine: ConsensusEngine,
        authorities: list[str] | None = None,
        view: int | None = None,
    ) -> VerificationResult:
        """Drive one full consensus round with this node acting as the selected leader.

        The caller is responsible for having chosen this node via the engine's
        round-robin (or, under authority rotation, the epoch schedule at the
        given ``view``); the method proposes, collects votes, and — on
        majority acceptance — commits locally and broadcasts the commit.  A
        rejected proposal raises :class:`ConsensusError` without touching any
        replica, which is what lets the caller fall through a view change to
        the next scheduled proposer.  Unreachable miners abstain (reject) but
        stay in the quorum denominator, and the commit broadcast is retried so
        a transiently lossy link cannot strand a replica behind the swarm.
        """
        block = self.propose_block(view=view)
        votes, rejections, unreachable = self.collect_votes(block)
        result = ConsensusEngine.tally(block, votes, rejections, unreachable=unreachable)
        if result.accepted:
            self.commit_block(block)
            self._broadcast_with_retry(TOPIC_COMMIT, block)
        else:
            raise ConsensusError(
                f"block {block.height} proposed by {self.node_id} was rejected by "
                f"{result.reject_count}/{len(votes)} miners"
            )
        return result
