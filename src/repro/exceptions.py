"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by this library derives from :class:`ReproError`
so callers can catch library failures distinctly from programming errors.
The hierarchy mirrors the package layout: one branch per subsystem
(cryptography, blockchain, federated learning, Shapley valuation, protocol).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid configuration value or an inconsistent combination of values."""


class ValidationError(ReproError):
    """A value failed structural validation (shape, range, type)."""


# ---------------------------------------------------------------------------
# Cryptography
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyExchangeError(CryptoError):
    """A Diffie-Hellman key agreement step failed or used mismatched parameters."""


class MaskingError(CryptoError):
    """Pairwise-mask construction or cancellation failed."""


class EncodingRangeError(CryptoError):
    """A float value cannot be represented in the configured fixed-point range."""


# ---------------------------------------------------------------------------
# Blockchain
# ---------------------------------------------------------------------------


class BlockchainError(ReproError):
    """Base class for blockchain failures."""


class InvalidTransactionError(BlockchainError):
    """A transaction is malformed or fails signature/nonce checks."""


class InvalidBlockError(BlockchainError):
    """A block fails structural or consensus validation."""


class ChainValidationError(BlockchainError):
    """The chain as a whole is inconsistent (broken links, bad state roots)."""


class ConsensusError(BlockchainError):
    """Leader selection or block verification could not reach agreement."""


class ContractError(BlockchainError):
    """A smart-contract call failed; the enclosing transaction is rejected."""


class ContractNotFoundError(ContractError):
    """No contract is registered under the requested name or address."""


class ContractStateError(ContractError):
    """A contract call is not valid in the contract's current state."""


class StorageError(BlockchainError):
    """A persistence backend failed to commit, reopen, or restore chain data."""


# ---------------------------------------------------------------------------
# Federated learning
# ---------------------------------------------------------------------------


class FLError(ReproError):
    """Base class for federated-learning failures."""


class ModelShapeError(FLError):
    """Model parameter arrays have incompatible shapes."""


class PartitionError(FLError):
    """Dataset partitioning parameters are invalid for the given dataset."""


class TrainingError(FLError):
    """A local or federated training loop failed (e.g. non-finite loss)."""


# ---------------------------------------------------------------------------
# Shapley valuation
# ---------------------------------------------------------------------------


class ShapleyError(ReproError):
    """Base class for contribution-evaluation failures."""


class UtilityError(ShapleyError):
    """A utility function could not be evaluated on a coalition."""


class GroupingError(ShapleyError):
    """Participants could not be assigned to groups (bad m, empty groups)."""


# ---------------------------------------------------------------------------
# Protocol orchestration
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Base class for end-to-end protocol failures."""


class SetupError(ProtocolError):
    """The off-chain setup stage could not reach a consistent configuration."""


class RoundError(ProtocolError):
    """A federated round failed (missing updates, aggregation mismatch)."""


class AuditError(ProtocolError):
    """A transparency audit found chain data inconsistent with reported results."""
