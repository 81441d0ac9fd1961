"""Rectangular index spaces (the analogue of Cabana's ``IndexSpace``).

An :class:`IndexSpace` is a half-open N-dimensional integer box
``[min, max)`` used to describe owned regions, ghost regions and
message slabs.  All grid bookkeeping — which part of a local array a
halo message covers, which global indices a rank owns — is expressed
with these, which keeps slicing logic out of the communication code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.util.errors import ConfigurationError
from repro.util.misc import prod

__all__ = ["IndexSpace"]


@dataclass(frozen=True)
class IndexSpace:
    """A half-open integer box ``[mins[d], maxs[d])`` per dimension."""

    mins: tuple[int, ...]
    maxs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mins) != len(self.maxs):
            raise ConfigurationError("mins and maxs must have equal length")
        for lo, hi in zip(self.mins, self.maxs):
            if hi < lo:
                raise ConfigurationError(f"empty-negative extent: [{lo}, {hi})")

    @classmethod
    def from_shape(cls, shape: Sequence[int]) -> "IndexSpace":
        """Index space ``[0, shape[d])``."""
        return cls(tuple(0 for _ in shape), tuple(int(s) for s in shape))

    @classmethod
    def from_ranges(cls, ranges: Sequence[tuple[int, int]]) -> "IndexSpace":
        return cls(
            tuple(int(lo) for lo, _ in ranges), tuple(int(hi) for _, hi in ranges)
        )

    @property
    def ndim(self) -> int:
        return len(self.mins)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in zip(self.mins, self.maxs))

    @property
    def size(self) -> int:
        return prod(self.shape)

    @property
    def empty(self) -> bool:
        return self.size == 0

    def slices(self) -> tuple[slice, ...]:
        """Numpy slices selecting this box from an array rooted at 0."""
        return tuple(slice(lo, hi) for lo, hi in zip(self.mins, self.maxs))

    def shift(self, offset: Sequence[int]) -> "IndexSpace":
        """Translate the box by ``offset``."""
        if len(offset) != self.ndim:
            raise ConfigurationError("offset dimensionality mismatch")
        return IndexSpace(
            tuple(lo + o for lo, o in zip(self.mins, offset)),
            tuple(hi + o for hi, o in zip(self.maxs, offset)),
        )

    def intersect(self, other: "IndexSpace") -> Optional["IndexSpace"]:
        """The overlapping box, or None when disjoint (or ndim mismatch)."""
        if other.ndim != self.ndim:
            raise ConfigurationError("cannot intersect spaces of different ndim")
        mins = tuple(max(a, b) for a, b in zip(self.mins, other.mins))
        maxs = tuple(min(a, b) for a, b in zip(self.maxs, other.maxs))
        if any(hi <= lo for lo, hi in zip(mins, maxs)):
            return None
        return IndexSpace(mins, maxs)

    def relative_to(self, origin: Sequence[int]) -> "IndexSpace":
        """Re-express the box with ``origin`` mapped to index 0.

        Used to convert global-index boxes into local-array slices.
        """
        return self.shift(tuple(-o for o in origin))

    def __repr__(self) -> str:
        ranges = "×".join(f"[{lo},{hi})" for lo, hi in zip(self.mins, self.maxs))
        return f"IndexSpace({ranges})"
