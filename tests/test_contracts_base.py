"""Tests for the contract runtime (repro.blockchain.contracts.base)."""

from __future__ import annotations

import pytest

from repro.blockchain.contracts.base import Contract, ContractContext, ContractRuntime, contract_method
from repro.blockchain.state import WorldState
from repro.exceptions import ContractError, ContractNotFoundError, ValidationError

from tests.helpers import CounterContract, counter_runtime_factory


class TestRegistration:
    def test_register_and_lookup(self):
        runtime = counter_runtime_factory()
        assert runtime.get("counter").name == "counter"
        assert runtime.registered_names() == ["counter"]

    def test_duplicate_registration_rejected(self):
        runtime = counter_runtime_factory()
        with pytest.raises(ContractError):
            runtime.register(CounterContract())

    def test_unknown_contract_lookup_rejected(self):
        with pytest.raises(ContractNotFoundError):
            ContractRuntime().get("nope")

    def test_contract_without_name_rejected(self):
        class Nameless(Contract):
            pass

        with pytest.raises(ValidationError):
            Nameless()


class TestExecution:
    def test_execute_returns_result_events_gas(self):
        runtime = counter_runtime_factory()
        state = WorldState()
        result, events, gas = runtime.execute(state, "alice", "counter", "increment", {"amount": 3})
        assert result == 3
        assert events[0]["name"] == "Incremented"
        assert gas > 0
        assert state.get("counter", "value") == 3

    def test_the_method_table_is_built_once_at_registration(self):
        class Counted(CounterContract):
            lookups = 0

            def callable_methods(self):
                type(self).lookups += 1
                return super().callable_methods()

        runtime = ContractRuntime()
        runtime.register(Counted())
        state = WorldState()
        for _ in range(5):
            runtime.execute(state, "alice", "counter", "increment", {})
        assert Counted.lookups == 1 and state.get("counter", "value") == 5
        with pytest.raises(ContractNotFoundError):
            runtime.execute(state, "alice", "missing", "increment", {})

    def test_undecorated_methods_are_not_callable(self):
        runtime = counter_runtime_factory()
        with pytest.raises(ContractError):
            runtime.execute(WorldState(), "alice", "counter", "not_callable", {})

    def test_unknown_method_rejected(self):
        runtime = counter_runtime_factory()
        with pytest.raises(ContractError):
            runtime.execute(WorldState(), "alice", "counter", "missing", {})

    def test_bad_arguments_become_contract_error(self):
        runtime = counter_runtime_factory()
        with pytest.raises(ContractError):
            runtime.execute(WorldState(), "alice", "counter", "increment", {"bogus": 1})

    def test_contract_exception_propagates_as_contract_error(self):
        runtime = counter_runtime_factory()
        with pytest.raises(ContractError):
            runtime.execute(WorldState(), "alice", "counter", "fail", {})

    def test_gas_grows_with_argument_size(self):
        runtime = counter_runtime_factory()
        _, _, small_gas = runtime.execute(WorldState(), "a", "counter", "increment", {"amount": 1})
        _, _, big_gas = runtime.execute(
            WorldState(), "a", "counter", "increment", {"amount": 10**40}
        )
        assert big_gas > small_gas

    def test_execution_is_deterministic_across_runtimes(self):
        state_a, state_b = WorldState(), WorldState()
        runtime_a, runtime_b = counter_runtime_factory(), counter_runtime_factory()
        for state, runtime in ((state_a, runtime_a), (state_b, runtime_b)):
            runtime.execute(state, "alice", "counter", "increment", {"amount": 2})
            runtime.execute(state, "bob", "counter", "increment", {"amount": 5})
        assert state_a.state_root() == state_b.state_root()


class TestContractContext:
    def test_namespaced_set_get(self):
        state = WorldState()
        ctx = ContractContext(state=state, sender="alice", contract_name="counter")
        ctx.set("k", 1)
        assert ctx.get("k") == 1
        assert state.get("counter", "k") == 1

    def test_delete_and_contains(self):
        ctx = ContractContext(state=WorldState(), sender="a", contract_name="c")
        ctx.set("k", 1)
        assert ctx.contains("k")
        ctx.delete("k")
        assert not ctx.contains("k")

    def test_keys_lists_namespace_keys(self):
        ctx = ContractContext(state=WorldState(), sender="a", contract_name="c")
        ctx.set("b", 1)
        ctx.set("a", 2)
        assert ctx.keys() == ["a", "b"]

    def test_read_external_namespace(self):
        state = WorldState()
        state.set("other", "k", 42)
        ctx = ContractContext(state=state, sender="a", contract_name="c")
        assert ctx.read_external("other", "k") == 42

    def test_writes_are_gas_metered(self):
        ctx = ContractContext(state=WorldState(), sender="a", contract_name="c")
        before = ctx.gas_used
        ctx.set("k", list(range(100)))
        assert ctx.gas_used > before

    def test_non_serializable_write_rejected(self):
        ctx = ContractContext(state=WorldState(), sender="a", contract_name="c")
        with pytest.raises(ContractError):
            ctx.set("k", object())

    def test_emit_collects_events(self):
        ctx = ContractContext(state=WorldState(), sender="a", contract_name="c")
        ctx.emit("Something", value=3)
        assert ctx.events == [{"name": "Something", "data": {"value": 3}}]


class TestContractMethodDecorator:
    def test_decorated_methods_are_discovered(self):
        contract = CounterContract()
        assert set(contract.callable_methods()) == {"increment", "get", "fail"}

    def test_decorator_preserves_function(self):
        @contract_method
        def sample(ctx):
            return 1

        assert sample(None) == 1
