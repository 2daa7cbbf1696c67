"""Property tests for FaultPlan serialization and seed-stable fault decisions.

Satellite contract: a ``FaultPlan`` survives a JSON round-trip bit-for-bit,
and the per-link fault decision sequence is a pure function of ``(plan seed,
link, per-link message index)`` — the same plan and seed yield identical
drop/duplicate/latency decisions no matter how the global delivery order
interleaves, which is exactly what lets the single-threaded simulation and
the concurrent asyncio transport agree on every fault.
"""

from __future__ import annotations

import json
import random
import tempfile
from collections import defaultdict

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.blockchain.transport import (  # noqa: E402
    SocketTransport,
    FaultInjectingTransport,
    FaultPlan,
    LinkFault,
    LinkFaultDecider,
    PartitionSpec,
)
from repro.exceptions import BlockchainError  # noqa: E402

NODE_IDS = [f"n{i}" for i in range(6)]

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
node_ids = st.sampled_from(NODE_IDS)
topic_tuples = st.lists(
    st.sampled_from(["tx", "proposal", "commit", "sync"]), max_size=3, unique=True
).map(tuple)

link_faults = st.builds(
    LinkFault,
    drop_probability=probabilities,
    duplicate_probability=probabilities,
    latency_ticks=st.integers(0, 5),
    response_timeout=st.booleans(),
    topics=topic_tuples,
)

link_keys = st.builds(
    "{}->{}".format,
    st.one_of(node_ids, st.just("*")),
    st.one_of(node_ids, st.just("*")),
)


@st.composite
def partition_specs(draw):
    nodes = draw(st.lists(node_ids, min_size=2, max_size=6, unique=True))
    cut = draw(st.integers(1, len(nodes) - 1))
    start = draw(st.integers(0, 5))
    heal = draw(st.one_of(st.none(), st.integers(start + 1, start + 6)))
    return PartitionSpec(
        name=f"cut-{draw(st.integers(0, 99))}",
        cells=(tuple(nodes[:cut]), tuple(nodes[cut:])),
        direction=draw(st.sampled_from(["both", "inbound", "outbound"])),
        start_tick=start,
        heal_tick=heal,
    )


fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**63 - 1),
    drop_probability=probabilities,
    duplicate_probability=probabilities,
    latency_ticks=st.integers(0, 5),
    timeout_ticks=st.integers(0, 5),
    partitions=st.lists(partition_specs(), max_size=3).map(tuple),
    links=st.dictionaries(link_keys, link_faults, max_size=4),
)


class TestFaultPlanRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(plan=fault_plans)
    def test_json_round_trip_is_identity(self, plan):
        payload = json.loads(json.dumps(plan.to_dict()))
        restored = FaultPlan.from_dict(payload)
        assert restored == plan
        assert restored.to_dict() == plan.to_dict()

    @settings(max_examples=100, deadline=None)
    @given(fault=link_faults)
    def test_link_fault_round_trip_is_identity(self, fault):
        assert LinkFault.from_dict(json.loads(json.dumps(fault.to_dict()))) == fault

    @settings(max_examples=100, deadline=None)
    @given(plan=fault_plans, extra=st.text(max_size=24), data=st.data())
    def test_a_key_the_plan_does_not_know_is_refused_by_name(self, plan, extra, data):
        """A misspelt key — top level, in a link fault, in a partition — never falls back."""
        payload = plan.to_dict()
        targets = [payload, *payload["links"].values(), *payload["partitions"]]
        target = data.draw(st.sampled_from(targets))
        if extra in target:
            extra += "_"
        target[extra] = 0.9
        with pytest.raises(BlockchainError, match="unknown field") as refusal:
            FaultPlan.from_dict(json.loads(json.dumps(payload)))
        assert repr(extra) in str(refusal.value)

    @pytest.mark.parametrize("payload", [None, 3, "plan", ["seed", 1], [["seed", 1]]])
    def test_a_payload_that_is_not_a_mapping_is_refused(self, payload):
        for cls in (FaultPlan, LinkFault, PartitionSpec):
            with pytest.raises(BlockchainError, match="must be a mapping"):
                cls.from_dict(payload)


def _per_link(log):
    """Group a decider log into {link: [(index, decision), ...]} sequences."""
    grouped = defaultdict(list)
    for link, index, decision in log:
        grouped[link].append((index, decision))
    return {link: sorted(entries) for link, entries in grouped.items()}


class TestDeciderSeedStability:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        counts=st.dictionaries(
            st.tuples(node_ids, node_ids), st.integers(1, 5), min_size=1, max_size=6
        ),
        order_seed=st.integers(0, 10_000),
    )
    def test_decisions_are_independent_of_global_order(self, seed, counts, order_seed):
        """Any interleaving of per-link queries yields identical sequences."""
        fault = LinkFault(drop_probability=0.5, duplicate_probability=0.5, latency_ticks=3)
        queries = [pair for pair, n in sorted(counts.items()) for _ in range(n)]

        sequential = LinkFaultDecider(seed)
        for sender, recipient in queries:
            sequential.decide(sender, recipient, fault, timeout_ticks=2)

        shuffled = list(queries)
        random.Random(order_seed).shuffle(shuffled)
        interleaved = LinkFaultDecider(seed)
        for sender, recipient in shuffled:
            interleaved.decide(sender, recipient, fault, timeout_ticks=2)

        assert _per_link(sequential.log) == _per_link(interleaved.log)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), fault=link_faults, timeout=st.integers(0, 5))
    def test_two_deciders_with_one_seed_agree_exactly(self, seed, fault, timeout):
        a, b = LinkFaultDecider(seed), LinkFaultDecider(seed)
        for _ in range(8):
            assert a.decide("s", "r", fault, timeout) == b.decide("s", "r", fault, timeout)
        assert a.log == b.log


class TestCrossTransportDecisions:
    """Same plan + seed ⇒ identical per-link decision sequences on the
    single-threaded simulation transport and the real-socket async transport."""

    PLAN = FaultPlan(
        seed=29,
        drop_probability=0.4,
        duplicate_probability=0.3,
        latency_ticks=2,
        timeout_ticks=5,
    )
    SENDS = 24

    def _sim_log(self):
        transport = FaultInjectingTransport(plan=self.PLAN)
        for i in range(self.SENDS):
            transport.deliver("a", "tx", i, {"b": lambda s, p: p})
        return _per_link(transport.decider.log)

    def _async_log(self):
        with tempfile.TemporaryDirectory(prefix="fp-") as tmp:
            peers = {"a": f"{tmp}/a.sock", "b": f"{tmp}/b.sock"}
            sender = SocketTransport("a", peers, plan=self.PLAN)
            receiver = SocketTransport("b", peers, plan=self.PLAN)
            try:
                sender.serve(lambda s, t, p: p)
                receiver.serve(lambda s, t, p: p)
                for i in range(self.SENDS):
                    sender.deliver("a", "tx", i, {"b": lambda s, p: p})
            finally:
                sender.stop()
                receiver.stop()
            return _per_link(sender.decider.log)

    @pytest.mark.timeout(120)
    def test_sim_and_async_transports_draw_identical_decisions(self):
        assert self._sim_log() == self._async_log()
