"""FFT communication configuration (heFFTe's three tuning flags).

The paper's Table 1 enumerates the eight combinations of heFFTe's
``AllToAll``, ``Pencils`` and ``Reorder`` parameters; Figure 9 weak-scales
the low-order solver over all of them.  :class:`FftConfig` reproduces
those flags with the same numbering:

=============  ========  =======  =======
Configuration  AllToAll  Pencils  Reorder
=============  ========  =======  =======
0              False     False    False
1              False     False    True
2              False     True     False
3              False     True     True
4              True      False    False
5              True      False    True
6              True      True     False
7              True      True     True
=============  ========  =======  =======

Meaning in this implementation (see :mod:`repro.fft.remap`):

* ``alltoall`` — redistributions use the ``Alltoallv``-style collective
  (True) or a mesh of point-to-point ``Send``/``Recv`` (False).
* ``pencils`` — intermediate layouts are pencils within row/column
  sub-communicators (True: the brick↔pencil hops stay inside a
  sub-communicator of ~√P ranks) or global slabs (False: every hop is a
  global exchange over all P ranks).
* ``reorder`` — how each peer's data is copied around its one message:
  packed into a contiguous buffer (True) or through strided copies
  (False).  The messages and bytes are the same either way: like
  heFFTe's flag, it trades local transpose cost, not message counts.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FftConfig", "ALL_CONFIGS"]


@dataclass(frozen=True)
class FftConfig:
    """heFFTe-style communication flags for the distributed FFT."""

    alltoall: bool = True
    pencils: bool = True
    reorder: bool = True

    @property
    def index(self) -> int:
        """Table 1 configuration number (0-7)."""
        return (int(self.alltoall) << 2) | (int(self.pencils) << 1) | int(self.reorder)

    @classmethod
    def from_index(cls, index: int) -> "FftConfig":
        if not 0 <= index <= 7:
            raise ValueError(f"configuration index must be 0-7, got {index}")
        return cls(
            alltoall=bool(index & 4),
            pencils=bool(index & 2),
            reorder=bool(index & 1),
        )

    def __str__(self) -> str:
        return (
            f"config {self.index} (AllToAll={self.alltoall}, "
            f"Pencils={self.pencils}, Reorder={self.reorder})"
        )


ALL_CONFIGS: tuple[FftConfig, ...] = tuple(
    FftConfig.from_index(i) for i in range(8)
)
