"""Tests for the world state (repro.blockchain.state)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.blockchain.state import WorldState
from repro.exceptions import ValidationError
from repro.utils.serialization import canonical_dumps, freeze_value
from tests.helpers import CANONICAL_VALUES


class TestBasicAccess:
    def test_get_returns_default_for_missing(self):
        assert WorldState().get("ns", "missing", default=7) == 7

    def test_set_then_get(self):
        state = WorldState()
        state.set("ns", "key", {"a": 1})
        assert state.get("ns", "key") == {"a": 1}

    def test_get_returns_a_copy(self):
        state = WorldState()
        state.set("ns", "key", {"a": [1, 2]})
        value = state.get("ns", "key")
        value["a"].append(3)
        assert state.get("ns", "key") == {"a": [1, 2]}

    def test_set_copies_input(self):
        state = WorldState()
        original = {"a": [1]}
        state.set("ns", "key", original)
        original["a"].append(2)
        assert state.get("ns", "key") == {"a": [1]}

    def test_delete(self):
        state = WorldState()
        state.set("ns", "key", 1)
        state.delete("ns", "key")
        assert not state.contains("ns", "key")

    def test_delete_missing_is_noop(self):
        WorldState().delete("ns", "nothing")

    def test_namespaces_are_isolated(self):
        state = WorldState()
        state.set("a", "key", 1)
        state.set("b", "key", 2)
        assert state.get("a", "key") == 1
        assert state.get("b", "key") == 2

    def test_keys_sorted_within_namespace(self):
        state = WorldState()
        state.set("ns", "b", 1)
        state.set("ns", "a", 2)
        assert state.keys("ns") == ["a", "b"]

    def test_len_counts_all_entries(self):
        state = WorldState()
        state.set("a", "k1", 1)
        state.set("b", "k2", 2)
        assert len(state) == 2

    def test_rejects_empty_namespace_or_key(self):
        state = WorldState()
        with pytest.raises(ValidationError):
            state.set("", "k", 1)
        with pytest.raises(ValidationError):
            state.get("ns", "")

    def test_rejects_slash_in_namespace(self):
        with pytest.raises(ValidationError):
            WorldState().set("a/b", "k", 1)

    def test_keys_rejects_slash_in_namespace(self):
        # Regression: keys() used to build the prefix without
        # validation, so keys("a/b") silently read namespace "a"'s "b/..."
        # keys instead of failing.
        state = WorldState()
        state.set("a", "b/secret", 1)
        with pytest.raises(ValidationError):
            state.keys("a/b")

    def test_keys_rejects_empty_namespace(self):
        with pytest.raises(ValidationError):
            WorldState().keys("")


class TestSnapshotsAndHashing:
    def test_snapshot_restore_roundtrip(self):
        state = WorldState()
        state.set("ns", "k", 1)
        snapshot = state.snapshot()
        state.set("ns", "k", 2)
        state.set("ns", "other", 3)
        state.restore(snapshot)
        assert state.get("ns", "k") == 1
        assert not state.contains("ns", "other")

    def test_nested_snapshots_restore_in_order(self):
        state = WorldState()
        state.set("ns", "k", 1)
        outer = state.snapshot()
        state.set("ns", "k", 2)
        inner = state.snapshot()
        state.set("ns", "k", 3)
        state.restore(inner)
        assert state.get("ns", "k") == 2
        state.restore(outer)
        assert state.get("ns", "k") == 1

    def test_restore_rejects_stale_snapshot(self):
        state = WorldState()
        snapshot = state.snapshot()
        state.set("ns", "k", 1)
        state.seal_version(0)  # sealing clears the journal the marker points into
        with pytest.raises(ValidationError):
            state.restore(snapshot)

    def test_restore_rejects_raw_dict(self):
        state = WorldState()
        with pytest.raises(ValidationError):
            state.restore({})

    def test_state_root_is_deterministic(self):
        a = WorldState()
        b = WorldState()
        for s in (a, b):
            s.set("ns", "k1", [1, 2, 3])
            s.set("ns", "k2", "text")
        assert a.state_root() == b.state_root()

    def test_state_root_changes_with_content(self):
        a = WorldState()
        a.set("ns", "k", 1)
        root_before = a.state_root()
        a.set("ns", "k", 2)
        assert a.state_root() != root_before

    def test_state_root_insensitive_to_write_order(self):
        a = WorldState()
        a.set("ns", "k1", 1)
        a.set("ns", "k2", 2)
        b = WorldState()
        b.set("ns", "k2", 2)
        b.set("ns", "k1", 1)
        assert a.state_root() == b.state_root()

    def test_state_root_with_arrays(self):
        a = WorldState()
        a.set("ns", "w", np.arange(5, dtype=np.float64))
        b = WorldState()
        b.set("ns", "w", np.arange(5, dtype=np.float64))
        assert a.state_root() == b.state_root()

    def test_copy_is_deep(self):
        a = WorldState()
        a.set("ns", "k", [1])
        b = a.copy()
        b.set("ns", "k", [2])
        assert a.get("ns", "k") == [1]

    def test_raw_returns_copy(self):
        state = WorldState()
        state.set("ns", "k", 1)
        raw = state.raw()
        raw["ns/k"] = 99
        assert state.get("ns", "k") == 1


def _mutate_everything(value):
    """Change, in place, every mutable thing reachable from ``value``; a frozen
    array must refuse the write."""
    if isinstance(value, np.ndarray):
        if value.flags.writeable:
            value.flat[0] += 1
        else:
            with pytest.raises(ValueError, match="read-only"):
                value.flat[0] += 1
    elif isinstance(value, dict):
        for item in value.values():
            _mutate_everything(item)
        value["__added__"] = 1
    elif isinstance(value, (list, tuple)):
        for item in value:
            _mutate_everything(item)
        if isinstance(value, list):
            value.append("added")


def _arrays(value):
    """Every array reachable from ``value``, in traversal order."""
    if isinstance(value, np.ndarray):
        return [value]
    items = value.values() if isinstance(value, dict) else value if isinstance(value, (list, tuple)) else ()
    return [array for item in items for array in _arrays(item)]


class TestFrozenArrays:
    """Stored arrays are read-only and shared; containers are rebuilt per write and read."""

    @settings(max_examples=150, deadline=None)
    @given(CANONICAL_VALUES)
    def test_freezing_keeps_the_bytes_copies_writable_arrays_and_shares_frozen_ones(self, value):
        frozen = freeze_value(value)
        assert canonical_dumps(frozen) == canonical_dumps(value)
        assert not any(array.flags.writeable for array in _arrays(frozen))
        assert not any(np.shares_memory(a, b) for a, b in zip(_arrays(value), _arrays(frozen)))
        assert all(a is b for a, b in zip(_arrays(frozen), _arrays(freeze_value(frozen))))
        before = canonical_dumps(frozen)
        _mutate_everything(value)  # the writable original
        assert canonical_dumps(frozen) == before

    @settings(max_examples=100, deadline=None)
    @given(CANONICAL_VALUES)
    def test_nothing_reachable_from_a_read_or_a_written_value_reaches_the_store(self, value):
        state = WorldState()
        marker = state.snapshot()
        state.set("ns", "key", value)
        state.set("ns", "other", 1)
        stored, root = canonical_dumps(value), state.state_root()
        written = state.writes_since(marker)["ns/key"][1]  # the stored object itself
        assert not any(array.flags.writeable for array in _arrays(written))
        _mutate_everything(value)  # the caller's object, after the write
        for read in (state.get("ns", "key"), state.raw()["ns/key"]):
            assert canonical_dumps(read) == stored
            assert not any(array.flags.writeable for array in _arrays(read))
            _mutate_everything(read)  # containers change, every array refuses
        assert canonical_dumps(state.get("ns", "key")) == stored
        assert state.state_root() == root == WorldState(state.raw()).state_root()

    def test_only_a_read_only_array_that_owns_its_memory_is_shared(self):
        owned = np.arange(4.0)
        owned.flags.writeable = False
        state = WorldState()
        for key, array in (("owned", owned), ("view", owned[1:]), ("buffer", np.frombuffer(b"\0" * 8))):
            state.set("ns", key, array)
            assert (state.get("ns", key) is array) == (key == "owned")
        assert state.get("ns", "view").base is None and state.get("ns", "buffer").base is None
        assert state.get("ns", "view") is state.raw()["ns/view"]  # reads never copy

    def test_a_default_is_copied_like_a_stored_value(self):
        default = {"a": [1]}
        got = WorldState().get("ns", "missing", default)
        got["a"].append(2)
        assert default == {"a": [1]}


class TestKeptWrites:
    """``writes_since`` / ``apply_writes``: a dry run's net effect, replayed after its unwind."""

    def run_block(self, state):
        state.set("ns", "a", 10)               # overwrite
        state.set("ns", "fresh", [1, 2])       # create
        state.delete("ns", "b")                # delete
        state.set("ns", "gone", 1)
        state.delete("ns", "gone")             # created and deleted: a net no-op, still touched
        state.set("ns", "a", 11)               # second write to one key

    def test_applying_kept_writes_equals_executing_again(self):
        executed, adopted = WorldState({"ns/a": 1, "ns/b": 2}), WorldState({"ns/a": 1, "ns/b": 2})
        for state in (executed, adopted):
            state.seal_version(0)
        self.run_block(executed)
        marker = adopted.snapshot()
        self.run_block(adopted)
        writes = adopted.writes_since(marker)
        assert list(writes) == ["ns/a", "ns/fresh", "ns/b", "ns/gone"]  # first-touch order
        assert writes["ns/a"][:2] == (True, 11) and writes["ns/gone"][:2] == (False, None)
        adopted.restore(marker)
        assert adopted.raw() == {"ns/a": 1, "ns/b": 2}
        adopted.apply_writes(writes)
        assert adopted.raw() == executed.raw() and adopted.state_root() == executed.state_root()
        for state in (executed, adopted):
            state.seal_version(1)
        assert adopted._versions[1] == executed._versions[1]
        assert list(adopted._versions[1]) == list(executed._versions[1])
        adopted.unwind_latest_version()
        assert adopted.raw() == {"ns/a": 1, "ns/b": 2}

    def test_applied_writes_unwind_like_any_other(self):
        state = WorldState({"ns/a": 1})
        root, marker = state.state_root(), state.snapshot()
        state.apply_writes({"ns/a": (False, None, None), "ns/new": (True, 5, None)})
        assert state.raw() == {"ns/new": 5}
        state.restore(marker)
        assert state.raw() == {"ns/a": 1} and state.state_root() == root


class TestDerive:
    """``derive``: a value computed from one namespace, kept until that namespace
    changes or a block seals — on this store only."""

    @staticmethod
    def counted_keys(state):
        calls = []

        def keys():
            def compute():
                calls.append(1)
                return tuple(state.keys("ns"))
            return state.derive("ns", "keys", compute)
        return keys, calls

    def test_kept_until_its_namespace_is_written_or_erased(self):
        state = WorldState({"ns/a": 1, "other/x": 1})
        keys, calls = self.counted_keys(state)
        assert keys() == keys() == ("a",) and len(calls) == 1
        state.set("other", "y", 2)
        state.delete("other", "x")
        state.delete("ns", "missing")  # touches nothing
        assert keys() == ("a",) and len(calls) == 1
        state.set("ns", "b", 2)
        assert keys() == ("a", "b") and len(calls) == 2
        state.set("ns", "b", 3)  # an overwrite drops it too
        assert keys() == ("a", "b") and len(calls) == 3
        state.delete("ns", "a")
        assert keys() == ("b",) and len(calls) == 4

    def test_every_way_back_drops_it(self):
        state = WorldState({"ns/a": 1})
        state.seal_version(0)
        keys, _ = self.counted_keys(state)
        marker = state.snapshot()
        state.set("ns", "b", 2)
        assert keys() == ("a", "b")
        state.restore(marker)  # a failed transaction's rollback, a dry run's unwind
        assert keys() == ("a",)
        state.apply_writes({"ns/c": (True, 3, None)})  # a commit adopting a vote's writes
        assert keys() == ("a", "c")
        state.seal_version(1)
        assert keys() == ("a", "c")
        state.unwind_latest_version()
        assert keys() == ("a",)

    def test_a_seal_drops_it(self):
        state = WorldState({"ns/a": 1})
        keys, calls = self.counted_keys(state)
        keys()
        state.seal_version(0)
        keys()
        assert len(calls) == 2

    def test_a_copy_keeps_nothing_of_it(self):
        state = WorldState({"ns/a": 1})
        state.seal_version(0)
        assert state.derive("ns", "k", lambda: "live") == "live"
        assert state.copy().derive("ns", "k", lambda: "copy") == "copy"
        assert state.derive("ns", "k", lambda: "recomputed") == "live"
