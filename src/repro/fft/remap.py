"""Layout redistribution (the communication heart of the distributed FFT).

A :class:`Remap` moves a global 2D array from one layout (one box per
rank) to another.  Each rank intersects its source box with every
destination box to find what it must send, and every source box with
its own destination box to find what it will receive.  How the pieces
travel is governed by :class:`~repro.fft.config.FftConfig`:

* ``alltoall=True`` — one ``exchange_arrays`` collective (recorded as an
  ``alltoallv`` with per-peer byte counts, exactly how heFFTe invokes
  ``MPI_Alltoallv``);
* ``alltoall=False`` — a mesh of buffered ``Send``/``Recv`` pairs,
  heFFTe's "custom communication" path;
* ``reorder`` — a copy flag, not a message count: either way each peer
  gets one message.  ``True`` packs each peer's piece into a contiguous
  buffer (``fft_pack`` compute events on both sides); ``False`` moves it
  through strided copies (``fft_strided`` events, which the machine
  model costs at reduced bandwidth), as heFFTe's flag does.

The functional result is identical for all configurations (tested);
only the communication/computation *structure* differs — which is
precisely what the paper's Figure 9 experiment measures.

Each byte moves once per side.  The rank's own block is copied
straight from its source box into its destination box; it never enters
a message (the collective's recorded counts still include it, as
``MPI_Alltoallv``'s do).  A peer's piece is packed straight from the
strided source — into the collective's send buffer, or by ``Send``'s
one buffered copy — and the receiver places it straight from that
buffer into its destination box.  The trace does not see the
difference: it records the logical pieces, so messages, bytes and the
``fft_pack`` / ``fft_strided`` events are those of a remap that staged
every piece.

Elision rule: a remap whose two layouts coincide on *every* rank moves
nothing.  Its ``apply`` returns the input array itself — no copy, no
rendezvous, no trace event.  Every rank sees all boxes, so all ranks
agree on the elision without communicating.  Any other remap writes a
new array and never its input.

Boxes index the two trailing axes of the local array, so one plan moves
a ``(B, ni, nj)`` stack of same-layout arrays in the messages that move
one ``(ni, nj)`` array.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.fft.config import FftConfig
from repro.grid.indexspace import IndexSpace
from repro.mpi.comm import Comm
from repro.util.errors import ConfigurationError

__all__ = ["Remap", "empty_lines"]


def empty_lines(shape: tuple[int, ...], dtype, axis: int) -> np.ndarray:
    """An uninitialized array of ``shape`` whose ``axis`` (−1 or −2) is
    contiguous; for −2 it is a ``swapaxes(-1, -2)`` view of a C-order
    buffer."""
    if axis == -1:
        return np.empty(shape, dtype=dtype)
    return np.empty(shape[:-2] + shape[:-3:-1], dtype=dtype).swapaxes(-1, -2)


class Remap:
    """A reusable redistribution plan between two layouts."""

    def __init__(
        self,
        comm: Comm,
        src_boxes: Sequence[IndexSpace],
        dst_boxes: Sequence[IndexSpace],
        config: FftConfig,
        tag_base: int,
        label: str = "remap",
        transposed: bool = False,
    ) -> None:
        if len(src_boxes) != comm.size or len(dst_boxes) != comm.size:
            raise ConfigurationError(
                "layouts must provide exactly one box per rank"
            )
        self.comm = comm
        self.config = config
        self.tag_base = tag_base
        self.label = label
        #: The destination is allocated with axis −2 contiguous.
        self.transposed = transposed
        self.src_box = src_boxes[comm.rank]
        self.dst_box = dst_boxes[comm.rank]
        #: Source and destination layouts coincide on every rank.
        self.identity = list(src_boxes) == list(dst_boxes)
        # What I send to each destination rank (global-index boxes).
        self.send_parts: list[Optional[IndexSpace]] = [
            self.src_box.intersect(dst_boxes[d]) for d in range(comm.size)
        ]
        # What I receive from each source rank.
        self.recv_parts: list[Optional[IndexSpace]] = [
            src_boxes[s].intersect(self.dst_box) for s in range(comm.size)
        ]

    # -- helpers --------------------------------------------------------------

    def _source(self, local: np.ndarray, part: IndexSpace) -> np.ndarray:
        """The piece ``part`` (global box) of my source array, as a view."""
        rel = part.relative_to(self.src_box.mins)
        return local[(Ellipsis, *rel.slices())]

    def _place(self, out: np.ndarray, part: IndexSpace, data: np.ndarray) -> None:
        rel = part.relative_to(self.dst_box.mins)
        out[(Ellipsis, *rel.slices())] = data.reshape(out.shape[:-2] + part.shape)

    def _record_copy(self, nbytes: int, packed: bool) -> None:
        kernel = "fft_pack" if packed else "fft_strided"
        self.comm.trace.record_compute(
            kernel, self.comm.rank, flops=0.0, bytes_moved=2.0 * nbytes
        )

    # -- application --------------------------------------------------------------

    def apply(self, local: np.ndarray) -> np.ndarray:
        """Redistribute ``local`` (my source box, or a ``(B, …)`` stack
        of them, in any memory order) into my destination box.

        An identity remap returns ``local`` itself; callers must not
        write into the result while they still need the input.  Any
        other remap returns a new array, never writing ``local``; with
        :attr:`transposed` its two trailing axes are a
        ``swapaxes(-1, -2)`` view of a C-order buffer, so axis −2 is
        contiguous.
        """
        if tuple(local.shape[-2:]) != self.src_box.shape:
            raise ConfigurationError(
                f"{self.label}: input shape {local.shape} != source box "
                f"{self.src_box.shape}"
            )
        if self.identity:
            return local
        out = empty_lines(local.shape[:-2] + self.dst_box.shape, local.dtype,
                          -2 if self.transposed else -1)
        if self.config.alltoall:
            self._apply_collective(local, out)
        else:
            self._apply_p2p(local, out)
        return out

    def _apply_collective(self, local: np.ndarray, out: np.ndarray) -> None:
        # ``exchange_arrays(into=)`` hands every piece, the own block
        # included, to ``place`` as a view it must copy out at once.
        packed = self.config.reorder
        per_dest: list[Optional[np.ndarray]] = []
        for part in self.send_parts:
            if part is None or part.empty:
                per_dest.append(None)
                continue
            piece = self._source(local, part)
            self._record_copy(piece.nbytes, packed)
            per_dest.append(piece)

        def place(src: int, data: np.ndarray) -> None:
            self._record_copy(data.nbytes, packed)
            self._place(out, self.recv_parts[src], data)

        self.comm.exchange_arrays(per_dest, into=place)

    def _apply_p2p(self, local: np.ndarray, out: np.ndarray) -> None:
        comm = self.comm
        rank = comm.rank
        # Self-copy avoids the mailbox entirely, like a real MPI shortcut.
        self_part = self.send_parts[rank]
        if self_part is not None and not self_part.empty:
            self._place(out, self_part, self._source(local, self_part))
        # Post all sends (buffered: ``Send`` makes the one C-order copy),
        # starting after self to stagger peers.
        for shift in range(1, comm.size):
            dest = (rank + shift) % comm.size
            part = self.send_parts[dest]
            if part is None or part.empty:
                continue
            piece = self._source(local, part)
            self._record_copy(piece.nbytes, packed=self.config.reorder)
            comm.Send(piece, dest, self.tag_base)
        # Receive from every peer that owes me a piece.
        for shift in range(1, comm.size):
            src = (rank - shift) % comm.size
            part = self.recv_parts[src]
            if part is None or part.empty:
                continue
            data = comm.Recv(None, src, self.tag_base)
            self._record_copy(data.nbytes, packed=self.config.reorder)
            self._place(out, part, data)
