"""Journaled, Merkle-ized world state: the store contracts read and write.

State keys are namespaced per contract (``"<contract>/<key>"``).  Three layers
sit on top of the flat key-value map:

* **Write journal** — every mutation appends an O(1) undo record, so
  transaction rollback (:meth:`WorldState.snapshot` / :meth:`restore`), a
  leader's proposal staging and a miner's vote (the chain's dry runs) cost
  O(keys changed) instead of a copy of the whole world.
* **Block versions** — :meth:`seal_version` compresses the journal of one
  block into a reverse delta.  Unwinding retained deltas one by one
  (:meth:`unwind_latest_version`) checks every committed header's state root
  without re-executing from genesis (``Blockchain.verify_version_roots``).
* **Merkle state root** — the state root is a Merkle commitment maintained
  incrementally: per-namespace bucket trees roll into a namespace root,
  namespace roots roll into the state root, and only buckets touched since
  the last :meth:`state_root` call are re-hashed.  A namespace's bucket count
  widens with its key count (see :func:`_bucket_count_for`), so the per-key
  re-hash cost stays flat at six-figure key counts.  The same structure
  yields :meth:`prove` / :func:`verify_state_proof` — compact inclusion
  proofs that tie a single entry (a contribution record, a settlement
  payout) to a block header's ``state_root``.

This layout is the only one: :data:`STATE_ROOT_VERSION` is its format tag,
pinned on the registry and in a store's ``meta`` row so a chain or store
written under another layout is refused instead of misread.

Values pass through :func:`~repro.utils.serialization.freeze_value` on the way
in and on the way out: containers are rebuilt, arrays are frozen and shared.
Copies, journal records, version deltas, kept writes and reads hold one
read-only buffer per array, and an in-place write into it raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable

import numpy as np

from repro.blockchain.merkle import EMPTY_ROOT, MerkleTree, fold_proof_path
from repro.exceptions import ValidationError
from repro.utils.hashing import hash_concat, sha256_hex
from repro.utils.serialization import canonical_dumps, freeze_value

#: Format tag of the state commitment (the adaptive Merkle layout below).
#: Versions 1 (flat hash of the whole dict) and 2 (fixed 1024 buckets) are
#: retired; nothing reads or writes them.
STATE_ROOT_VERSION = 3

# Minimum buckets per namespace subtree (power of two).  Each key maps to one
# bucket by key-hash prefix; a dirty key only re-hashes its bucket plus one
# O(log n_buckets) path in the namespace tree, which is what makes the
# incremental root O(keys changed) rather than O(all keys).
N_STATE_BUCKETS = 1024

# Adaptive bucketing: a namespace's bucket count grows (in powers of two,
# never below N_STATE_BUCKETS) to keep expected occupancy at or below this
# many keys per bucket, so incremental re-hash cost per touched key stays
# flat at six-figure key counts instead of degrading with bucket size.
TARGET_KEYS_PER_BUCKET = 4

# Hash cascade of an all-empty namespace tree, one entry per level: level 0 is
# the empty-bucket root, level d+1 hashes two level-d defaults together.
# Extended lazily by `_default_level`.
_DEFAULT_LEVEL: list[str] = [EMPTY_ROOT]


def _default_level(depth: int) -> str:
    """The root of an all-empty subtree of the given depth (memoized)."""
    while len(_DEFAULT_LEVEL) <= depth:
        _DEFAULT_LEVEL.append(hash_concat([_DEFAULT_LEVEL[-1], _DEFAULT_LEVEL[-1]]))
    return _DEFAULT_LEVEL[depth]


def _bucket_count_for(size: int) -> int:
    """The bucket count for a namespace of ``size`` keys.

    A pure function of the key count (no hysteresis), so the committed root is
    a function of state *content* alone — any replica arriving at the same
    keys by any op sequence lands on the same layout, and rebuilds amortize to
    O(1) per write because thresholds double.
    """
    if size <= N_STATE_BUCKETS * TARGET_KEYS_PER_BUCKET:
        return N_STATE_BUCKETS
    need = (size + TARGET_KEYS_PER_BUCKET - 1) // TARGET_KEYS_PER_BUCKET
    return 1 << (need - 1).bit_length()


_MISSING = object()


@dataclass(frozen=True)
class StateSnapshot:
    """An O(1) rollback marker into the write journal (see :meth:`WorldState.snapshot`)."""

    position: int
    generation: int


@dataclass(frozen=True)
class StateProof:
    """Merkle inclusion proof tying one state entry to a state root.

    The proof folds bottom-up through three trees: the entry's bucket tree
    (``bucket_siblings``), the namespace's bucket tree
    (``namespace_siblings``), and the top-level tree over namespace roots
    (``top_siblings``).  ``value_hash`` is the SHA-256 of the value's
    canonical serialization, so a verifier holding the claimed value can
    recompute it independently (see :func:`verify_state_proof`).

    ``n_buckets`` records the namespace's bucket-tree width: a power of two
    >= ``N_STATE_BUCKETS``, serialized only when wider than that minimum.
    """

    namespace: str
    key: str
    value_hash: str
    bucket_index: int
    leaf_index: int
    bucket_siblings: tuple[str, ...]
    namespace_siblings: tuple[str, ...]
    top_index: int
    top_siblings: tuple[str, ...]
    root: str
    n_buckets: int = N_STATE_BUCKETS

    def to_dict(self) -> dict[str, Any]:
        """A canonical-serializable form (for files, transactions, or CLIs)."""
        payload = {name: list(v) if isinstance(v, tuple) else v for name, v in vars(self).items()}
        if self.n_buckets == N_STATE_BUCKETS:
            del payload["n_buckets"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "StateProof":
        """Inverse of :meth:`to_dict`: each field coerced by its annotation."""
        coerce = {"str": str, "int": int, "tuple[str, ...]": lambda items: tuple(str(s) for s in items)}
        try:
            return cls(**{f.name: coerce[f.type](payload[f.name])
                          for f in fields(cls) if f.name != "n_buckets" or "n_buckets" in payload})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise ValidationError(f"malformed state proof payload: {exc}") from exc


def _leaf_for(full_key: str, value_hash: str) -> str:
    """The Merkle leaf of one entry: H(H(key) || H(canonical(value)))."""
    return hash_concat([sha256_hex(full_key), value_hash])


def _namespace_leaf(namespace: str, namespace_root: str) -> str:
    """The top-level leaf of a namespace: H(H(name) || subtree root)."""
    return hash_concat([sha256_hex(namespace), namespace_root])


def verify_state_proof(root: str, proof: StateProof, value: Any = _MISSING) -> bool:
    """Check a :class:`StateProof` against a block header's ``state_root``.

    When ``value`` is given, the leaf is recomputed from the value's canonical
    serialization — a verifier holding its published contribution/settlement
    entry and a trusted header needs nothing else.  Without ``value``, the
    proof's own ``value_hash`` is used (proving the key is committed, with the
    value pinned by whoever compares ``value_hash`` out of band).
    """
    try:
        full_key = WorldState._full_key(proof.namespace, proof.key)
    except ValidationError:
        return False
    n_buckets = proof.n_buckets
    # The claimed layout must be a valid one (power of two, at least the
    # minimum width); a forged layout cannot fold to a committed root anyway,
    # this just fails fast with a clear structural reason.
    if n_buckets < N_STATE_BUCKETS or n_buckets & (n_buckets - 1):
        return False
    if proof.bucket_index != _bucket_of(sha256_hex(full_key), n_buckets):
        return False
    if value is _MISSING:
        value_hash = proof.value_hash
    else:
        try:
            value_hash = sha256_hex(canonical_dumps(value))
        except ValidationError:
            return False
        if value_hash != proof.value_hash:
            return False
    current = fold_proof_path(_leaf_for(full_key, value_hash), proof.leaf_index, proof.bucket_siblings)
    if len(proof.namespace_siblings) != n_buckets.bit_length() - 1:
        return False
    current = fold_proof_path(current, proof.bucket_index, proof.namespace_siblings)
    current = fold_proof_path(_namespace_leaf(proof.namespace, current), proof.top_index, proof.top_siblings)
    return current == root


def _bucket_of(key_hash: str, n_buckets: int = N_STATE_BUCKETS) -> int:
    """Deterministic bucket assignment from a key's hex hash prefix.

    The 8-hex-digit prefix is uniform over ``2**32``, so the modulus is
    unbiased for any power-of-two bucket count up to ``2**32``.
    """
    return int(key_hash[:8], 16) % n_buckets


class _NamespaceTree:
    """A fixed-shape (power-of-two) Merkle tree over a namespace's bucket roots.

    The shape only changes through an explicit rebuild (adaptive growth),
    so one bucket-root update re-hashes only its O(log n_buckets) path — the
    namespace root stays warm across blocks that touch a handful of keys.
    """

    __slots__ = ("n_buckets", "depth", "levels")

    def __init__(self, n_buckets: int = N_STATE_BUCKETS, levels: list[list[str]] | None = None) -> None:
        self.n_buckets = n_buckets
        self.depth = n_buckets.bit_length() - 1
        if levels is not None:
            self.levels = levels
        else:
            self.levels = [
                [_default_level(depth)] * (n_buckets >> depth)
                for depth in range(self.depth + 1)
            ]

    @property
    def root(self) -> str:
        return self.levels[-1][0]

    def update(self, index: int, bucket_root: str) -> None:
        """Set one bucket root and re-hash its path to the namespace root."""
        self.levels[0][index] = bucket_root
        position = index
        for depth in range(self.depth):
            parent = position // 2
            level = self.levels[depth]
            self.levels[depth + 1][parent] = hash_concat([level[parent * 2], level[parent * 2 + 1]])
            position = parent

    def path(self, index: int) -> list[str]:
        """Sibling hashes from the bucket at ``index`` up to the namespace root."""
        return [self.levels[depth][(index >> depth) ^ 1] for depth in range(self.depth)]

    def copy(self) -> "_NamespaceTree":
        return _NamespaceTree(self.n_buckets, [list(level) for level in self.levels])


class WorldState:
    """A namespaced key-value store with journaled rollback, block versions,
    and an incrementally maintained Merkle state root."""

    def __init__(self, initial: dict[str, Any] | None = None) -> None:
        self._data: dict[str, Any] = {}
        # Write journal: (full_key, had_previous, previous_value, previous_value_hash).
        self._journal: list[tuple[str, bool, Any, str | None]] = []
        self._generation = 0
        # Sealed block versions: height -> reverse delta
        # {full_key: (had, previous_value, previous_value_hash)}.
        self._versions: dict[int, dict[str, tuple[bool, Any, str | None]]] = {}
        self._latest_version: int | None = None
        # Merkle caches.
        self._value_hashes: dict[str, str] = {}
        self._key_hashes: dict[str, str] = {}  # pure memo, safely shared across copies
        self._ns_trees: dict[str, _NamespaceTree] = {}
        self._ns_buckets: dict[str, dict[int, set[str]]] = {}
        self._ns_sizes: dict[str, int] = {}
        self._ns_nbuckets: dict[str, int] = {}
        self._dirty: dict[str, set[int]] = {}
        self._top_tree: MerkleTree | None = None
        self._top_namespaces: list[str] = []
        # namespace -> {key: value derived from that namespace} (see `derive`).
        self._derived: dict[str, dict[Any, Any]] = {}
        if initial:
            for full, value in initial.items():
                namespace, _, key = full.partition("/")
                self.set(namespace, key, value)
            self._journal.clear()

    # ------------------------------------------------------------------
    # Key validation
    # ------------------------------------------------------------------

    @staticmethod
    def _namespace_prefix(namespace: str) -> str:
        if not namespace:
            raise ValidationError("state namespace must be non-empty")
        if "/" in namespace:
            raise ValidationError("state namespace must not contain '/'")
        return f"{namespace}/"

    @staticmethod
    def _full_key(namespace: str, key: str) -> str:
        prefix = WorldState._namespace_prefix(namespace)
        if not key:
            raise ValidationError("state key must be non-empty")
        return f"{prefix}{key}"

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        """Read a value: containers rebuilt, arrays the stored read-only ones."""
        return freeze_value(self._data.get(self._full_key(namespace, key), default))

    def contains(self, namespace: str, key: str) -> bool:
        """Whether the key exists."""
        return self._full_key(namespace, key) in self._data

    def keys(self, namespace: str) -> list[str]:
        """All keys within a namespace (without the namespace prefix), sorted.

        The namespace is validated exactly like in :meth:`get`/:meth:`set`: a
        namespace containing ``/`` would otherwise silently read *another*
        namespace's keys (``keys("a/b")`` would match ``a``'s ``b/...`` keys).
        """
        prefix = self._namespace_prefix(namespace)
        return sorted(k[len(prefix):] for k in self._data if k.startswith(prefix))

    def raw(self) -> dict[str, Any]:
        """The underlying dict, rebuilt like a read (for audits and debugging)."""
        return freeze_value(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def derive(self, namespace: str, key: Any, compute: Callable[[], Any]) -> Any:
        """``compute()`` — a pure function of ``namespace``'s entries — once per block.

        The result is kept on this store alone until ``namespace`` is next
        written or erased (by a transaction, a rollback, adopted writes or an
        unwind) or a version is sealed, so every replica derives its own and
        none outlives its block.  Callers share it: it must not be mutated.
        """
        derived = self._derived.setdefault(namespace, {})
        if key not in derived:
            derived[key] = compute()
        return derived[key]

    # ------------------------------------------------------------------
    # Writes (journaled)
    # ------------------------------------------------------------------

    def set(self, namespace: str, key: str, value: Any, *, encoded: str | None = None) -> None:
        """Write a value (frozen on the way in).

        ``encoded`` optionally carries the value's canonical serialization when
        the caller already produced it (the contract runtime serializes every
        write for gas metering) so the Merkle leaf hash does not re-serialize.
        """
        full = self._full_key(namespace, key)
        stored = freeze_value(value)
        value_hash = sha256_hex(encoded if encoded is not None else canonical_dumps(stored))
        self._journal.append((full, *self._entry(full)))
        self._write(full, stored, value_hash)

    def delete(self, namespace: str, key: str) -> None:
        """Remove a key if present."""
        full = self._full_key(namespace, key)
        if full not in self._data:
            return
        self._journal.append((full, *self._entry(full)))
        self._erase(full)

    def _entry(self, full: str) -> tuple[bool, Any, str | None]:
        """One key as it stands: ``(present, value, value_hash)``."""
        return full in self._data, self._data.get(full), self._value_hashes.get(full)

    def _put(self, full: str, present: bool, value: Any, value_hash: str | None) -> None:
        """Raw write or delete of one entry: no journaling."""
        if present:
            self._write(full, value, value_hash)
        else:
            self._erase(full)

    def _write(self, full: str, value: Any, value_hash: str | None) -> None:
        """Raw write: no journaling, keeps the Merkle indexes in sync."""
        new_key = full not in self._data
        self._data[full] = value
        self._value_hashes[full] = value_hash if value_hash is not None else sha256_hex(canonical_dumps(value))
        self._touch(full, added=new_key)

    def _erase(self, full: str) -> None:
        """Raw delete: no journaling, keeps the Merkle indexes in sync."""
        if full not in self._data:
            return
        del self._data[full]
        self._value_hashes.pop(full, None)
        namespace = full.partition("/")[0]
        self._derived.pop(namespace, None)
        bucket = _bucket_of(self._key_hash(full), self._ns_nbuckets[namespace])
        buckets = self._ns_buckets[namespace]
        buckets.get(bucket, set()).discard(full)
        self._ns_sizes[namespace] -= 1
        self._top_tree = None
        if self._ns_sizes[namespace] == 0:
            # Drop the empty namespace entirely so the root matches a fresh
            # store holding the same data.
            del self._ns_trees[namespace]
            del self._ns_buckets[namespace]
            del self._ns_sizes[namespace]
            del self._ns_nbuckets[namespace]
            self._dirty.pop(namespace, None)
        else:
            self._dirty.setdefault(namespace, set()).add(bucket)
            self._maybe_resize(namespace)

    def _key_hash(self, full: str) -> str:
        cached = self._key_hashes.get(full)
        if cached is None:
            cached = sha256_hex(full)
            self._key_hashes[full] = cached
        return cached

    def _touch(self, full: str, added: bool) -> None:
        """Mark a written key's bucket dirty (creating namespace structures lazily)."""
        namespace = full.partition("/")[0]
        self._derived.pop(namespace, None)
        if namespace not in self._ns_trees:
            self._ns_trees[namespace] = _NamespaceTree()
            self._ns_buckets[namespace] = {}
            self._ns_sizes[namespace] = 0
            self._ns_nbuckets[namespace] = N_STATE_BUCKETS
        bucket = _bucket_of(self._key_hash(full), self._ns_nbuckets[namespace])
        if added:
            self._ns_buckets[namespace].setdefault(bucket, set()).add(full)
            self._ns_sizes[namespace] += 1
        self._dirty.setdefault(namespace, set()).add(bucket)
        self._top_tree = None
        if added:
            self._maybe_resize(namespace)

    def _maybe_resize(self, namespace: str) -> None:
        """Re-bucket a namespace when its adaptive layout crosses a threshold.

        The target count is a pure function of the namespace's size, so every
        replica re-buckets at the same write regardless of how it arrived at
        that state (live execution, restore from disk, rollback, or unwind —
        all mutations funnel through :meth:`_write`/:meth:`_erase`).
        """
        wanted = _bucket_count_for(self._ns_sizes[namespace])
        if wanted == self._ns_nbuckets[namespace]:
            return
        keys = [full for bucket in self._ns_buckets[namespace].values() for full in bucket]
        buckets: dict[int, set[str]] = {}
        for full in keys:
            buckets.setdefault(_bucket_of(self._key_hash(full), wanted), set()).add(full)
        self._ns_buckets[namespace] = buckets
        self._ns_nbuckets[namespace] = wanted
        self._ns_trees[namespace] = _NamespaceTree(wanted)
        self._dirty[namespace] = set(buckets)
        self._top_tree = None

    # ------------------------------------------------------------------
    # Snapshots and rollback (O(keys changed))
    # ------------------------------------------------------------------

    def snapshot(self) -> StateSnapshot:
        """An O(1) rollback marker; undone changes are replayed from the journal."""
        return StateSnapshot(position=len(self._journal), generation=self._generation)

    def restore(self, snapshot: StateSnapshot) -> None:
        """Roll back every change made since ``snapshot`` was taken.

        Markers are positional: restoring is only valid within the same block
        execution (sealing a version clears the journal and invalidates older
        markers), and restoring to a marker discards any markers taken after it.
        """
        if not isinstance(snapshot, StateSnapshot):
            raise ValidationError("restore() takes a StateSnapshot from snapshot()")
        if snapshot.generation != self._generation or snapshot.position > len(self._journal):
            raise ValidationError("stale state snapshot: the journal it points into was sealed")
        while len(self._journal) > snapshot.position:
            self._put(*self._journal.pop())

    def writes_since(self, snapshot: StateSnapshot) -> dict[str, tuple[bool, Any, str | None]]:
        """Each key touched since ``snapshot`` -> ``(present, value, value_hash)`` now,
        in first-touch order: what :meth:`apply_writes` redoes after a :meth:`restore`."""
        return {full: self._entry(full) for full, _, _, _ in self._journal[snapshot.position:]}

    def apply_writes(self, writes: dict[str, tuple[bool, Any, str | None]]) -> None:
        """Journal and apply a :meth:`writes_since` record — every key, even one absent
        before and after, so the reverse delta names what execution would have touched."""
        for full, entry in writes.items():
            self._journal.append((full, *self._entry(full)))
            self._put(full, *entry)

    # ------------------------------------------------------------------
    # Block versions
    # ------------------------------------------------------------------

    def seal_version(self, height: int) -> None:
        """Bake the journal since the last seal into block ``height``'s reverse delta.

        Called once per committed block.  The delta maps every key the block
        touched to its value *before* the block, which is exactly what
        :meth:`unwind_latest_version` needs to step the store back one block.
        """
        height = int(height)
        if self._latest_version is not None and height != self._latest_version + 1:
            raise ValidationError(
                f"cannot seal version {height}: latest sealed version is {self._latest_version}"
            )
        delta: dict[str, tuple[bool, Any, str | None]] = {}
        for full, had, value, value_hash in self._journal:
            if full not in delta:  # first record per key = value before the block
                delta[full] = (had, value, value_hash)
        # A key written and deleted again is absent on both sides: nothing to undo.
        self._versions[height] = {full: entry for full, entry in delta.items() if entry[0] or full in self._data}
        self._journal.clear()
        self._derived.clear()
        self._generation += 1
        self._latest_version = height

    def has_version(self, height: int) -> bool:
        """Whether block ``height``'s reverse delta is retained."""
        return int(height) in self._versions

    def unwind_latest_version(self) -> int:
        """Apply the latest sealed reverse delta, stepping the store back one block.

        Used by ``Blockchain.verify_version_roots`` on a scratch copy to check
        every retained version's root against its committed header with O(Δ)
        incremental updates per block.  Returns the new latest height.
        """
        if self._journal:
            raise ValidationError("cannot unwind with unsealed journal entries in flight")
        if self._latest_version is None or self._latest_version not in self._versions:
            raise ValidationError("no sealed version to unwind")
        delta = self._versions.pop(self._latest_version)
        for full, entry in delta.items():
            self._put(full, *entry)
        self._latest_version -= 1
        return self._latest_version

    def oldest_retained_version(self) -> int | None:
        """The lowest height whose reverse delta is still retained (None when empty)."""
        if not self._versions:
            return None
        return min(self._versions)

    def prune_versions(self, keep_last: int) -> list[int]:
        """Drop reverse deltas below a horizon of the last ``keep_last`` sealed blocks.

        The live state and all retained deltas are untouched; only the
        backward walk *below* the horizon is given up (the incremental audit
        answers there by snapshot+replay instead).  Returns the pruned heights.
        """
        keep_last = int(keep_last)
        if keep_last < 1:
            raise ValidationError("prune horizon must keep at least the latest version")
        if self._latest_version is None:
            return []
        horizon = self._latest_version - keep_last + 1
        pruned = sorted(height for height in self._versions if height < horizon)
        for height in pruned:
            del self._versions[height]
        return pruned

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def copy(self) -> "WorldState":
        """An independent copy of the whole state (structure-shared, O(keys)).

        Stored values are never mutated in place (their arrays are frozen),
        so the copy shares value references and sealed delta dicts with
        the original — only the index structures are duplicated.
        """
        clone = WorldState.__new__(WorldState)
        clone._data = dict(self._data)
        clone._journal = list(self._journal)
        clone._generation = self._generation
        clone._versions = dict(self._versions)
        clone._latest_version = self._latest_version
        clone._value_hashes = dict(self._value_hashes)
        clone._key_hashes = self._key_hashes
        clone._ns_trees = {ns: tree.copy() for ns, tree in self._ns_trees.items()}
        clone._ns_buckets = {
            ns: {bucket: set(keys) for bucket, keys in buckets.items()}
            for ns, buckets in self._ns_buckets.items()
        }
        clone._ns_sizes = dict(self._ns_sizes)
        clone._ns_nbuckets = dict(self._ns_nbuckets)
        clone._dirty = {ns: set(buckets) for ns, buckets in self._dirty.items()}
        clone._top_tree = self._top_tree
        clone._top_namespaces = list(self._top_namespaces)
        clone._derived = {}
        return clone

    # ------------------------------------------------------------------
    # State root and proofs
    # ------------------------------------------------------------------

    def state_root(self) -> str:
        """The Merkle commitment to the entire state (the block's state root).

        Only buckets dirtied since the last call are re-hashed.
        """
        self._flush_dirty()
        if self._top_tree is None:
            self._top_namespaces = sorted(self._ns_sizes)
            self._top_tree = MerkleTree(
                [_namespace_leaf(ns, self._ns_trees[ns].root) for ns in self._top_namespaces]
            )
        return self._top_tree.root

    def _flush_dirty(self) -> None:
        """Re-hash every dirty bucket and update its namespace-tree path."""
        for namespace, buckets in self._dirty.items():
            tree = self._ns_trees[namespace]
            ns_buckets = self._ns_buckets[namespace]
            for bucket in buckets:
                keys = ns_buckets.get(bucket)
                if keys:
                    leaves = [
                        _leaf_for(full, self._value_hashes[full]) for full in sorted(keys)
                    ]
                    tree.update(bucket, MerkleTree.root_of(leaves))
                else:
                    ns_buckets.pop(bucket, None)
                    tree.update(bucket, EMPTY_ROOT)
        self._dirty = {}

    def prove(self, namespace: str, key: str) -> StateProof:
        """Produce a Merkle inclusion proof for one entry against the current root."""
        full = self._full_key(namespace, key)
        if full not in self._data:
            raise ValidationError(f"cannot prove a missing key {full!r}")
        root = self.state_root()  # flush caches so every tree is current
        bucket = _bucket_of(self._key_hash(full), self._ns_nbuckets[namespace])
        bucket_keys = sorted(self._ns_buckets[namespace][bucket])
        bucket_tree = MerkleTree(
            [_leaf_for(k, self._value_hashes[k]) for k in bucket_keys]
        )
        leaf_index = bucket_keys.index(full)
        bucket_proof = bucket_tree.proof(leaf_index)
        top_index = self._top_namespaces.index(namespace)
        top_proof = self._top_tree.proof(top_index)
        return StateProof(
            namespace=namespace,
            key=key,
            value_hash=self._value_hashes[full],
            bucket_index=bucket,
            leaf_index=leaf_index,
            bucket_siblings=bucket_proof.siblings,
            namespace_siblings=tuple(self._ns_trees[namespace].path(bucket)),
            top_index=top_index,
            top_siblings=top_proof.siblings,
            root=root,
            n_buckets=self._ns_nbuckets[namespace],
        )
