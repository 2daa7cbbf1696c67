"""The deterministic smart-contract runtime.

A contract is a subclass of :class:`Contract` whose public entry points are
decorated with :func:`contract_method`.  The :class:`ContractRuntime` maps a
:class:`~repro.blockchain.transaction.Transaction` to a contract method call,
provides the call with a :class:`ContractContext`, meters an abstract gas cost,
and converts exceptions into failed receipts (with state rolled back by the
caller, see :meth:`repro.blockchain.chain.Blockchain.execute_transaction`).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.blockchain.state import WorldState
from repro.exceptions import ContractError, ContractNotFoundError, ValidationError
from repro.utils.serialization import canonical_dumps

_CONTRACT_METHOD_FLAG = "_is_contract_method"

# Abstract gas schedule: a base charge per call plus a byte charge on arguments
# and on every state write. These numbers only need to be consistent, not
# realistic; the throughput analysis reports relative costs.
GAS_BASE_CALL = 100
GAS_PER_ARG_BYTE = 1
GAS_PER_WRITE = 50
GAS_PER_WRITE_BYTE = 1


def contract_method(func: Callable) -> Callable:
    """Mark a contract method as callable from a transaction."""
    setattr(func, _CONTRACT_METHOD_FLAG, True)
    return func


@dataclass
class ContractContext:
    """Everything a contract method may observe or touch during execution.

    Attributes:
        state: the world state (namespaced access is enforced via helpers).
        sender: identity of the transaction sender.
        contract_name: namespace the contract reads and writes under.
        block_height: height of the block being executed.
        events: events emitted by the call (appended via :meth:`emit`).
        gas_used: running abstract gas total for this call.
    """

    state: WorldState
    sender: str
    contract_name: str
    block_height: int = 0
    events: list[dict[str, Any]] = field(default_factory=list)
    gas_used: int = 0

    def get(self, key: str, default: Any = None) -> Any:
        """Read a value from this contract's namespace."""
        return self.state.get(self.contract_name, key, default)

    def set(self, key: str, value: Any) -> None:
        """Write a value to this contract's namespace (gas metered).

        The canonical serialization produced for gas metering is handed to the
        state store, so the Merkle-rooted state hashes the write's leaf
        without serializing the value a second time.
        """
        try:
            encoded = canonical_dumps(value)
        except ValidationError as exc:
            raise ContractError(f"contract wrote a non-serializable value under {key!r}: {exc}") from exc
        self.gas_used += GAS_PER_WRITE + GAS_PER_WRITE_BYTE * len(encoded)
        self.state.set(self.contract_name, key, value, encoded=encoded)

    def delete(self, key: str) -> None:
        """Delete a key from this contract's namespace."""
        self.gas_used += GAS_PER_WRITE
        self.state.delete(self.contract_name, key)

    def contains(self, key: str) -> bool:
        """Whether a key exists in this contract's namespace."""
        return self.state.contains(self.contract_name, key)

    def keys(self) -> list[str]:
        """All keys in this contract's namespace."""
        return self.state.keys(self.contract_name)

    def read_external(self, contract_name: str, key: str, default: Any = None) -> Any:
        """Read another contract's state (contracts may read, never write, across namespaces)."""
        return self.state.get(contract_name, key, default)

    def emit(self, name: str, **data: Any) -> None:
        """Emit an event recorded in the transaction receipt."""
        self.events.append({"name": name, "data": data})


class Contract:
    """Base class for contracts.  Subclasses define ``name`` and decorated methods."""

    name: str = ""

    def __init__(self) -> None:
        if not self.name:
            raise ValidationError(f"{type(self).__name__} must define a contract name")

    def callable_methods(self) -> dict[str, Callable]:
        """Map of externally callable method names to bound methods."""
        methods = {}
        for attr_name, member in inspect.getmembers(self, predicate=inspect.ismethod):
            if getattr(member, _CONTRACT_METHOD_FLAG, False):
                methods[attr_name] = member
        return methods


class ContractRuntime:
    """Registry plus executor for contracts.

    The runtime is deliberately stateless between calls: all persistent data
    lives in the :class:`WorldState`, so two runtimes with the same registered
    contract classes are interchangeable — which is how miner re-execution
    reproduces a leader's results bit-for-bit.
    """

    def __init__(self) -> None:
        self._contracts: dict[str, Contract] = {}
        self._methods: dict[str, dict[str, Callable]] = {}

    def register(self, contract: Contract) -> None:
        """Register a contract instance under its declared name (and build its
        method table, once: entry points are fixed by the class)."""
        if contract.name in self._contracts:
            raise ContractError(f"contract {contract.name!r} is already registered")
        self._contracts[contract.name] = contract
        self._methods[contract.name] = contract.callable_methods()

    def get(self, name: str) -> Contract:
        """Look up a contract by name."""
        if name not in self._contracts:
            raise ContractNotFoundError(f"no contract registered under {name!r}")
        return self._contracts[name]

    def argument_error(self, contract_name: str, method_name: str, args: dict[str, Any]) -> str | None:
        """The failed receipt's reason for argument names the method does not take, or ``None``.

        Read from the method's signature, so gossip validation refuses such a
        call with the reason :meth:`execute` would fail it with.
        """
        method = self._methods[contract_name][method_name]
        unknown = sorted(set(args) - set(list(inspect.signature(method).parameters)[1:]))
        return f"bad arguments for {contract_name}.{method_name}: unexpected {unknown}" if unknown else None

    def execute(
        self,
        state: WorldState,
        sender: str,
        contract_name: str,
        method_name: str,
        args: dict[str, Any],
        block_height: int = 0,
    ) -> tuple[Any, list[dict[str, Any]], int]:
        """Execute a contract call against ``state``.

        Returns ``(result, events, gas_used)``.  Raises :class:`ContractError`
        (or a subclass) on failure; the caller is responsible for rolling the
        state back in that case.
        """
        self.get(contract_name)  # an unknown name raises ContractNotFoundError
        methods = self._methods[contract_name]
        if method_name not in methods:
            raise ContractError(f"contract {contract_name!r} has no method {method_name!r}")
        context = ContractContext(
            state=state,
            sender=sender,
            contract_name=contract_name,
            block_height=block_height,
        )
        context.gas_used += GAS_BASE_CALL + GAS_PER_ARG_BYTE * len(canonical_dumps(args))
        method = methods[method_name]
        try:
            result = method(context, **args)
        except ContractError:
            raise
        except TypeError as exc:
            reason = self.argument_error(contract_name, method_name, args)
            raise ContractError(reason or f"bad arguments for {contract_name}.{method_name}: {exc}") from exc
        except Exception as exc:  # noqa: BLE001 - contract faults become failed receipts
            raise ContractError(f"{contract_name}.{method_name} failed: {exc}") from exc
        return result, context.events, context.gas_used
