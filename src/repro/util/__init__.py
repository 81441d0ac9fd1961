"""Small shared utilities used across the repro packages."""

from repro.util.errors import (
    ReproError,
    CommunicationError,
    DeadlockError,
    RankAbortedError,
    ConfigurationError,
)
from repro.util.misc import (
    dims_create,
    split_extent,
    prod,
)

__all__ = [
    "ReproError",
    "CommunicationError",
    "DeadlockError",
    "RankAbortedError",
    "ConfigurationError",
    "dims_create",
    "split_extent",
    "prod",
]
