"""Reduction operations for the simulated MPI layer.

Reductions are applied in rank order (0, 1, ..., P-1) so results are
bit-for-bit deterministic across runs, unlike real MPI where the
combination tree may vary.  Tests rely on this determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["Op", "SUM", "MAX"]


@dataclass(frozen=True)
class Op:
    """A named, associative reduction operation.

    ``fn`` combines two contributions (numpy arrays or scalars) and must
    not mutate its inputs.
    """

    name: str
    fn: Callable[[Any, Any], Any]

    def reduce_ordered(self, contributions: list[Any]) -> Any:
        """Fold contributions left-to-right (rank order)."""
        if not contributions:
            raise ValueError("cannot reduce zero contributions")
        acc = contributions[0]
        for item in contributions[1:]:
            acc = self.fn(acc, item)
        return acc


SUM = Op("sum", lambda a, b: np.add(a, b))
MAX = Op("max", lambda a, b: np.maximum(a, b))
