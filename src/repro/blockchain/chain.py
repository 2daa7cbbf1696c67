"""The ledger: ordered blocks plus the world state they produce.

A :class:`Blockchain` owns a :class:`~repro.blockchain.state.WorldState` and a
:class:`~repro.blockchain.contracts.base.ContractRuntime`.  It can

* execute transactions (producing receipts, rolling back failed calls via the
  state's O(Δ) write journal),
* propose a block from a transaction list (leader role),
* verify and append a block proposed by someone else by re-executing it
  against its own state (miner role) — once: a commit adopts its vote's writes,
* replay the whole chain from genesis to reconstruct the state — the
  transparency property audits rely on — and
* run the incremental commitment check
  (:meth:`Blockchain.verify_version_roots`): every committed block seals an
  O(Δ) state version, so each header's ``state_root`` is checkable without
  genesis re-execution.

Block headers commit the incrementally maintained Merkle state root of
:mod:`repro.blockchain.state`, which also supports per-entry inclusion proofs.
``state_root_version`` is that commitment's format tag, not a mode: it is
pinned on the registry at protocol setup and in a store's metadata so a
replica refuses a chain or store written under a retired layout.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.blockchain.block import GENESIS_PARENT_HASH, Block
from repro.blockchain.consensus import verify_block_authority
from repro.blockchain.contracts.base import ContractRuntime
from repro.blockchain.state import STATE_ROOT_VERSION, WorldState
from repro.blockchain.transaction import Transaction, TransactionReceipt
from repro.exceptions import (
    ChainValidationError,
    InvalidBlockError,
    InvalidTransactionError,
)
from repro.utils.validation import require_format_tag

if TYPE_CHECKING:  # pragma: no cover - typing-only import, avoids a module cycle
    from repro.blockchain.storage import StorageBackend


class Blockchain:
    """An in-memory blockchain replica.

    Args:
        runtime_factory: zero-argument callable returning a fresh
            :class:`ContractRuntime` with all protocol contracts registered.
            Every replica must use the same factory so re-execution agrees.
        chain_id: label distinguishing independent simulations.
        state_root_version: the format tag of the header state commitment.
            Only :data:`~repro.blockchain.state.STATE_ROOT_VERSION` is
            accepted; a retired version raises.
        storage: optional persistence backend (see
            :mod:`repro.blockchain.storage`), attached via
            :meth:`attach_storage`.  Strictly off-chain: it mirrors sealed
            blocks to durable storage and never changes what gets committed.
    """

    def __init__(
        self,
        runtime_factory: Callable[[], ContractRuntime],
        chain_id: str = "repro-chain",
        state_root_version: int = STATE_ROOT_VERSION,
        storage: "StorageBackend | None" = None,
    ) -> None:
        self.chain_id = chain_id
        self._runtime_factory = runtime_factory
        self.runtime = runtime_factory()
        self.state_root_version = require_format_tag(
            "state_root_version", state_root_version, STATE_ROOT_VERSION, ChainValidationError
        )
        self.state = WorldState()
        self.blocks: list[Block] = []
        self._nonces: dict[str, int] = {}
        # The last passed dry run: (block hash, net state writes, post-nonces).
        self._verified: tuple[str, dict, dict[str, int]] | None = None
        self.storage: "StorageBackend | None" = None
        self._append_genesis()
        if storage is not None:
            self.attach_storage(storage)

    # ------------------------------------------------------------------
    # Genesis and basic accessors
    # ------------------------------------------------------------------

    def _append_genesis(self) -> None:
        genesis = Block.build(
            height=0,
            parent_hash=GENESIS_PARENT_HASH,
            proposer="genesis",
            transactions=[],
            receipts=[],
            state_root=self.state.state_root(),
            timestamp=0,
        )
        self.blocks.append(genesis)
        self.state.seal_version(0)

    def attach_storage(self, backend: "StorageBackend") -> bool:
        """Attach a persistence backend; restore from it when it holds a chain.

        Must be called with this replica fresh at genesis.  Returns ``True``
        when the backend held a committed chain and this replica adopted it
        (blocks, state with retained deltas, nonces — verified against the
        stored headers), ``False`` when the backend was fresh and was
        initialized from this replica instead.
        """
        if self.storage is not None:
            raise ChainValidationError("a storage backend is already attached")
        restored = backend.attach(self)
        self.storage = backend
        return restored

    def __getstate__(self) -> dict[str, Any]:
        """Pickle support for the swarm supervisor's ctrl ``chain`` command.

        The one place a replica crosses a process boundary (no peer-to-peer
        topic carries one).  The storage backend (if any) holds an open
        database connection and is strictly local to its owning process, so
        the chain travels detached.
        """
        state = dict(self.__dict__)
        state["storage"] = None
        state["_verified"] = None
        return state

    def _persist_commit(self, block: Block) -> None:
        """Mirror one freshly sealed block to the attached backend (if any)."""
        if self.storage is None:
            return
        delta = self.state._versions[block.height]
        touched = {
            full: (full in self.state._data, self.state._data.get(full))
            for full in delta
        }
        nonces = {tx.sender: self._nonces[tx.sender] for tx in block.transactions}
        self.storage.commit_block(block, touched, delta, nonces)

    @property
    def height(self) -> int:
        """Height of the latest block."""
        return self.blocks[-1].height

    @property
    def head(self) -> Block:
        """The latest block."""
        return self.blocks[-1]

    def next_nonce(self, sender: str) -> int:
        """The nonce the given sender should use for its next transaction."""
        return self._nonces.get(sender, 0)

    # ------------------------------------------------------------------
    # Transaction execution
    # ------------------------------------------------------------------

    def execute_transaction(self, tx: Transaction, block_height: int) -> TransactionReceipt:
        """Execute one transaction against the current state.

        Failed calls roll the state back to the pre-transaction snapshot and
        produce a failed receipt rather than raising, mirroring how real chains
        include reverted transactions in blocks.
        """
        tx.validate()
        expected_nonce = self._nonces.get(tx.sender, 0)
        if tx.nonce != expected_nonce:
            raise InvalidTransactionError(
                f"nonce mismatch for {tx.sender}: expected {expected_nonce}, got {tx.nonce}"
            )
        snapshot = self.state.snapshot()
        try:
            result, events, gas = self.runtime.execute(
                state=self.state,
                sender=tx.sender,
                contract_name=tx.contract,
                method_name=tx.method,
                args=tx.args,
                block_height=block_height,
            )
            receipt = TransactionReceipt(
                tx_hash=tx.tx_hash,
                success=True,
                result=result,
                events=tuple(events),
                gas_used=gas,
            )
        except Exception as exc:  # noqa: BLE001 - contract faults become failed receipts
            self.state.restore(snapshot)
            receipt = TransactionReceipt(
                tx_hash=tx.tx_hash,
                success=False,
                error=str(exc),
                gas_used=0,
            )
        self._nonces[tx.sender] = expected_nonce + 1
        return receipt

    # ------------------------------------------------------------------
    # Block production and verification
    # ------------------------------------------------------------------

    @contextmanager
    def _staged(self, dry_run: bool) -> Iterator[list[Block]]:
        """Stage one block's execution on the state's write journal.

        The body executes a block's transactions on the live state.  If it
        raises, or on a dry run, state and nonces unwind to where they were at
        O(Δ) cost — so a rejected proposal, a miner's vote and a leader's
        staging all leave the replica untouched; otherwise what was executed
        stays in place for :meth:`_seal`.  A dry run that passed and named its
        block (in the yielded list) keeps that block's net writes and
        post-nonces through the unwind, for :meth:`_adopt_verified`.
        """
        saved_state = self.state.snapshot()
        saved_nonces = dict(self._nonces)
        verified: list[Block] = []
        keep = False
        try:
            yield verified
            keep = not dry_run
            if dry_run and verified:
                writes = self.state.writes_since(saved_state)
                self._verified = (verified[0].block_hash, writes, self._nonces)
        finally:
            if not keep:
                self.state.restore(saved_state)
                self._nonces = saved_nonces

    def _adopt_verified(self, block: Block) -> bool:
        """Apply what this replica's own passed dry run of ``block`` wrote.

        The vote (or the leader's staging) ran every transaction on this head,
        and the hash commits to parent, transactions and receipts (re-checked
        by the caller), so nothing runs twice.  ``False``, replica untouched,
        if nothing is kept for this hash or the root misses the header's.
        """
        kept, self._verified = self._verified, None
        if kept is None or kept[0] != block.block_hash:
            return False
        marker = self.state.snapshot()
        self.state.apply_writes(kept[1])
        if self.state.state_root() != block.header.state_root:
            self.state.restore(marker)
            return False
        self._nonces = kept[2]
        return True

    def _seal(self, block: Block) -> None:
        """Commit the block just executed: append, seal its state version, persist."""
        self._verified = None
        self.blocks.append(block)
        self.state.seal_version(block.height)
        self._persist_commit(block)

    def propose_block(
        self,
        proposer: str,
        transactions: Iterable[Transaction],
        timestamp: int | None = None,
        view: int | None = None,
        dry_run: bool = False,
    ) -> Block:
        """Leader role: execute ``transactions`` and assemble the next block.

        The chain's own state advances as a side effect, exactly as it would on
        the leader node — unless ``dry_run``, which returns the same block and
        leaves the replica where it was (a miner stages its proposal this way
        and only advances at commit time, in lock-step with every replica).
        ``view`` is the consensus view number under epoch-authority rotation
        (``None`` on non-rotation chains); it is hashed into the block header
        so verifiers and auditors can recompute the proposer schedule.
        """
        txs = list(transactions)
        height = self.height + 1
        with self._staged(dry_run) as verified:
            receipts = [self.execute_transaction(tx, height) for tx in txs]
            block = Block.build(
                height=height,
                parent_hash=self.head.block_hash,
                proposer=proposer,
                transactions=txs,
                receipts=receipts,
                state_root=self.state.state_root(),
                timestamp=self.head.header.timestamp + 1 if timestamp is None else timestamp,
                view=view,
            )
            verified.append(block)
        if not dry_run:
            self._seal(block)
        return block

    def verify_and_append(self, block: Block, dry_run: bool = False) -> None:
        """Miner role: re-execute a proposed block and append it if results match.

        The only way a block above genesis enters a live replica — a commit,
        a replay and every block of a catch-up come through here.  Raises
        :class:`InvalidBlockError` if the block does not extend the head,
        its roots do not match its contents, its proposer/view disagree with
        the on-chain epoch-authority schedule, or re-execution produces
        different receipts or a different state root than the proposer claimed.
        ``dry_run`` runs every one of those checks and appends nothing: a
        miner's vote.  A commit of the block this replica's last dry run
        passed re-runs the head, root and authority checks and adopts that
        run's writes (:meth:`_adopt_verified`); any other block is re-executed.
        """
        if block.height != self.height + 1:
            raise InvalidBlockError(
                f"block height {block.height} does not extend local head {self.height}"
            )
        if block.header.parent_hash != self.head.block_hash:
            raise InvalidBlockError("block parent hash does not match local head")
        block.verify_roots()
        # Authority check against the *pre-execution* state: round r's schedule
        # only depends on membership boundaries <= r, all committed before this
        # block, so proposer and verifier derive it from the same state.
        try:
            verify_block_authority(self.state, block)
        except Exception as exc:
            raise InvalidBlockError(str(exc)) from exc

        if dry_run or not self._adopt_verified(block):
            try:
                with self._staged(dry_run) as verified:
                    receipts = [self.execute_transaction(tx, block.height) for tx in block.transactions]
                    # By canonical hash: bit-exact where ``==`` on an array is ambiguous.
                    if [r.receipt_hash for r in receipts] != block.receipt_hashes():
                        raise InvalidBlockError(f"block {block.height}: re-executed receipts differ from proposal")
                    if self.state.state_root() != block.header.state_root:
                        raise InvalidBlockError(f"block {block.height}: state root mismatch after re-execution")
                    verified.append(block)
            except InvalidBlockError:
                raise
            except Exception as exc:  # noqa: BLE001
                raise InvalidBlockError(f"block {block.height}: re-execution failed: {exc}") from exc
        if not dry_run:
            self._seal(block)

    # ------------------------------------------------------------------
    # Validation and replay (transparency)
    # ------------------------------------------------------------------

    def validate_chain(self) -> None:
        """Check structural integrity of the whole chain (links and Merkle roots)."""
        if not self.blocks or self.blocks[0].height != 0:
            raise ChainValidationError("chain has no genesis block")
        if self.blocks[0].header.parent_hash != GENESIS_PARENT_HASH:
            raise ChainValidationError("genesis parent hash is wrong")
        for previous, current in zip(self.blocks, self.blocks[1:]):
            if current.height != previous.height + 1:
                raise ChainValidationError(f"non-contiguous heights at block {current.height}")
            if current.header.parent_hash != previous.block_hash:
                raise ChainValidationError(f"broken parent link at block {current.height}")
            current.verify_roots()

    def replay(self) -> "Blockchain":
        """Rebuild a fresh replica by re-executing every block from genesis.

        This is the transparency guarantee in executable form: anyone holding
        the block data can independently reconstruct the final state (and hence
        every published model and contribution score).
        """
        self.validate_chain()
        return self.replay_prefix(self.height)

    # ------------------------------------------------------------------
    # Prefix replay, pruning and incremental verification
    # ------------------------------------------------------------------

    def replay_prefix(self, height: int) -> "Blockchain":
        """Re-execute blocks 1..``height`` from genesis onto a fresh replica.

        The snapshot+replay fallback for history below the pruning horizon:
        ``verify_and_append`` re-checks every receipt and state root along the
        way, so the result is verified, not trusted.
        """
        height = int(height)
        if not 0 <= height <= self.height:
            raise ChainValidationError(
                f"no committed block at height {height} (chain head is {self.height})"
            )
        replica = Blockchain(self._runtime_factory, chain_id=f"{self.chain_id}-replay")
        for block in self.blocks[1 : height + 1]:
            replica.verify_and_append(block)
        return replica

    def prune(self, keep_last: int) -> list[int]:
        """Drop reverse deltas below a horizon of the last ``keep_last`` blocks.

        Blocks, live state, and nonces are untouched — only the O(Δ) backward
        walk below the horizon is given up.  The incremental audit falls back
        to snapshot+replay there (and reports it).  The attached backend (if
        any) drops the same delta rows.  Returns the pruned heights.
        """
        pruned = self.state.prune_versions(keep_last)
        if self.storage is not None and pruned:
            self.storage.prune(pruned)
        return pruned

    def oldest_retained_version(self) -> int | None:
        """The lowest height whose reverse delta is retained (the pruning horizon)."""
        return self.state.oldest_retained_version()

    def verify_version_roots(self) -> list[int]:
        """Check every committed header's ``state_root`` against the retained versions.

        Walks a scratch copy of the live state backwards — one O(Δ) reverse
        delta per block — recomputing the root incrementally at each height
        and comparing it to the header.  This is the succinct-commitment half
        of the transparency story: together with :meth:`validate_chain` it
        certifies that the state versions this replica serves are exactly the
        ones the majority-voted headers committed, without re-executing a
        single transaction (``replay`` remains the full re-execution oracle).

        On a pruned chain the backward walk stops at the oldest retained
        delta: heights from the head down to one below the horizon are
        verified (unwinding delta ``h`` lands the scratch copy *at* ``h-1``),
        anything older has no retained version to check.

        Returns the verified heights (descending).  Raises
        :class:`ChainValidationError` on any root mismatch.
        """
        scratch = self.state.copy()
        verified: list[int] = []
        for block in reversed(self.blocks):
            root = scratch.state_root()
            if root != block.header.state_root:
                raise ChainValidationError(
                    f"block {block.height}: retained state version hashes to "
                    f"{root[:12]} but the committed header says "
                    f"{block.header.state_root[:12]}"
                )
            verified.append(block.height)
            if block.height == 0:
                break
            if not scratch.has_version(block.height):
                # Pruned below the horizon: nothing older can be unwound.
                break
            scratch.unwind_latest_version()
        return verified

    def adopt(self, blocks: list[Block], state: WorldState, nonces: dict[str, int]) -> None:
        """Cold start: take a whole committed chain onto this fresh replica, or none of it.

        The one road by which blocks enter a replica without re-execution,
        open only at genesis — :meth:`fast_sync_from` (a peer's replica) and a
        storage backend's restore (a store on disk) both end here.  What the
        source *claims* is checked independently: chain structure and Merkle
        tx/receipt roots (:meth:`validate_chain`) and every header's state
        commitment against the retained versions
        (:meth:`verify_version_roots`).  A source that fails either leaves
        this replica at genesis, so it can retry against an honest one.
        """
        if self.height != 0 or self.blocks[0].transactions:
            raise ChainValidationError("adopting a chain requires a fresh replica at genesis")
        if not blocks or blocks[0].block_hash != self.blocks[0].block_hash:
            raise ChainValidationError("adopting a chain requires an identical genesis block")
        saved = (self.blocks, self.state, self._nonces)
        self.blocks, self.state, self._nonces = list(blocks), state, dict(nonces)
        try:
            self.validate_chain()
            self.verify_version_roots()
        except Exception:
            self.blocks, self.state, self._nonces = saved
            raise

    def fast_sync_from(self, reference: "Blockchain") -> None:
        """Adopt a peer replica's committed chain without re-executing it.

        A joining miner copies the peer's blocks, state (with its retained
        versions), and nonce counters through :meth:`adopt`.  Trust reduces to
        the majority-voted block headers — exactly the succinct-commitment
        model — while a full :meth:`replay` stays available as the
        re-execution oracle.  A replica that is *not* fresh catches up block
        by block through :meth:`verify_and_append` instead.
        """
        self.adopt(reference.blocks, reference.state.copy(), reference._nonces)
        if self.storage is not None:
            self.storage.rewrite(self)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def find_receipt(self, tx_hash: str) -> TransactionReceipt | None:
        """Locate the receipt for a transaction hash anywhere in the chain."""
        for block in self.blocks:
            for receipt in block.receipts:
                if receipt.tx_hash == tx_hash:
                    return receipt
        return None

    def total_transactions(self) -> int:
        """Number of transactions across all blocks."""
        return sum(len(block.transactions) for block in self.blocks)

    def total_gas(self) -> int:
        """Total abstract gas consumed by the chain."""
        return sum(block.total_gas() for block in self.blocks)
