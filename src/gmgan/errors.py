"""Shared exception types."""


class DimensionError(ValueError):
    """Tensor shapes or extents are inconsistent with the operation."""


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class TapeError(RuntimeError):
    """Misuse of a computation tape (e.g. backward run twice)."""


class CheckpointError(RuntimeError):
    """Checkpoint file is corrupt, truncated, or from an unknown version."""
