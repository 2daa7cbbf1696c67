"""Shared test helpers: simple contracts, chain factories, and reference loops."""

from __future__ import annotations

import sqlite3

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.blockchain.contracts.base import Contract, ContractContext, ContractRuntime, contract_method
from repro.blockchain.transaction import Transaction
from repro.blockchain.transport import SocketTransport
from repro.exceptions import ContractError
from repro.shapley.utility import CachedUtility
from repro.utils.rng import spawn_rng


# The canonical value domain: what ``canonical_dumps`` accepts, hence all a
# contract can write.  Arrays carry at least one element so a test can flip one.
_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.int64, np.uint64]),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=3),
    elements=st.integers(min_value=0, max_value=1000),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8),
    st.binary(max_size=8), st.integers(0, 9).map(np.int64), _ARRAYS,
)
CANONICAL_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


class ForgedState:
    """Pickles as ``cls`` with whatever ``__dict__`` a hostile sender chose."""

    def __init__(self, cls, state):
        self.cls, self.state = cls, state

    def __reduce__(self):
        return object.__new__, (self.cls,), self.state


class CounterContract(Contract):
    """A tiny contract used to exercise the runtime and chain machinery."""

    name = "counter"

    @contract_method
    def increment(self, ctx: ContractContext, amount: int = 1) -> int:
        """Increase the counter and return its new value."""
        if amount < 0:
            raise ContractError("amount must be non-negative")
        value = ctx.get("value", 0) + int(amount)
        ctx.set("value", value)
        ctx.emit("Incremented", by=ctx.sender, amount=int(amount), value=value)
        return value

    @contract_method
    def get(self, ctx: ContractContext) -> int:
        """Read the current counter value."""
        return ctx.get("value", 0)

    @contract_method
    def fail(self, ctx: ContractContext) -> None:
        """Write something and then fail, to exercise rollback."""
        ctx.set("value", 999_999)
        raise ContractError("intentional failure")

    def not_callable(self, ctx: ContractContext) -> None:
        """A method without the decorator; must not be invocable via transactions."""


def counter_runtime_factory() -> ContractRuntime:
    """Runtime with only the counter contract registered."""
    runtime = ContractRuntime()
    runtime.register(CounterContract())
    return runtime


def counter_tx(sender: str, nonce: int, amount: int = 1, method: str = "increment") -> Transaction:
    """Convenience builder for counter transactions."""
    args = {"amount": amount} if method == "increment" else {}
    return Transaction(sender=sender, contract="counter", method=method, args=args, nonce=nonce)


def count_executions(chain) -> list[str]:
    """Wrap one replica's ``execute_transaction``; the returned list grows by a tx hash per call."""
    calls, execute = [], chain.execute_transaction
    chain.execute_transaction = lambda tx, height: (calls.append(tx.tx_hash), execute(tx, height))[1]
    return calls


def dump_tables(path) -> dict[str, list[tuple]]:
    """Every table of a SQLite store, rows in primary-key order."""
    conn = sqlite3.connect(path)
    try:
        tables = [name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name")]
        return {t: conn.execute(f"SELECT * FROM {t} ORDER BY 1").fetchall() for t in tables}
    finally:
        conn.close()


def legacy_permutation_sampling(players, utility, n_permutations, seed):
    """The pre-engine scalar estimator, kept verbatim as the parity oracle."""
    players = sorted(players)
    cached = utility if isinstance(utility, CachedUtility) else CachedUtility(utility)
    rng = spawn_rng("permutation-shapley", seed, len(players), n_permutations)
    totals = {player: 0.0 for player in players}
    empty_value = cached.empty_value
    for _ in range(n_permutations):
        order = [players[i] for i in rng.permutation(len(players))]
        previous_utility = empty_value
        coalition = []
        for player in order:
            coalition.append(player)
            current_utility = cached(tuple(coalition))
            totals[player] += current_utility - previous_utility
            previous_utility = current_utility
    return {player: total / n_permutations for player, total in totals.items()}, cached


class SocketPeers:
    """Socket transports sharing one directory of addresses, all stopped at exit."""

    def __init__(self, tmp_path, *node_ids, plan=None):
        self.table = {node_id: str(tmp_path / f"{node_id}.sock") for node_id in node_ids}
        self.plan = plan
        self.transports = []

    def transport(self, node_id, handler=None):
        """A transport for ``node_id``; serving ``handler(sender, topic, payload)`` if given."""
        transport = SocketTransport(node_id, self.table, plan=self.plan)
        self.transports.append(transport)
        if handler is not None:
            transport.serve(handler)
        return transport

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for transport in self.transports:
            transport.stop()


def echo_handler(sender, topic, payload):
    return payload


def send_one(transport, recipient, payload):
    """One point-to-point delivery; only the local loopback ever calls a handler."""
    return transport.deliver(transport.node_id, "t", payload, {recipient: None})[recipient]
