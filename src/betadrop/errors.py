"""Exception types shared across the package."""


class BetadropError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(BetadropError, ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class DomainError(BetadropError, ValueError):
    """A numeric argument lies outside the documented domain."""


class ContractError(BetadropError, RuntimeError):
    """An API precondition was violated (mode, batch size, graph shape...)."""


class PruneCollapseError(BetadropError, RuntimeError):
    """Pruning would remove every unit of a layer."""


class TrainingDivergedError(BetadropError, RuntimeError):
    """The training loss or an updated parameter became non-finite."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"training diverged at step {step}")


class InvariantViolationError(BetadropError, RuntimeError):
    """An internal invariant (e.g. frozen parameters) was broken."""


class CheckpointError(BetadropError, RuntimeError):
    """Base class for checkpoint load failures."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class CheckpointTruncatedError(CheckpointError):
    """Checkpoint payload is shorter than the manifest declares."""


class CheckpointLengthError(CheckpointError):
    """Manifest-declared array extents disagree with the payload length."""


class DataFormatError(BetadropError, RuntimeError):
    """Base class for dataset parsing failures."""


class IdxMagicError(DataFormatError):
    """IDX file magic number does not match the expected record type."""


class IdxCountMismatchError(DataFormatError):
    """Image and label files declare different record counts."""


class IdxTruncatedError(DataFormatError):
    """IDX file is shorter than its header declares."""
