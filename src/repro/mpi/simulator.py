"""SPMD program launcher for the simulated MPI layer.

:func:`run_spmd` is the ``mpiexec`` of this library: it runs one Python
callable on ``nranks`` simulated ranks (threads), hands each a
:class:`~repro.mpi.comm.Comm`, and returns the per-rank return values.

Numpy releases the GIL inside its kernels, so ranks overlap where it
matters; still, functional runs are intended for correctness and trace
collection at modest rank counts (tests use 1–36).  The paper-scale
experiments (up to 1024 GPUs) are reproduced by replaying analytically
generated traces on the machine model instead of launching 1024 threads.

A rank that raises aborts the whole run: every blocked peer is woken
with :class:`~repro.util.errors.RankAbortedError` and the original
exception is re-raised to the caller.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.mpi.comm import Comm
from repro.mpi.trace import CommTrace
from repro.mpi.world import World
from repro.util.errors import RankAbortedError

__all__ = ["run_spmd", "single_rank_comm"]


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    trace: Optional[CommTrace] = None,
    timeout: float = 120.0,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` simulated ranks.

    Parameters
    ----------
    nranks:
        Number of ranks.  ``nranks == 1`` runs inline on the calling
        thread (fast path used by serial examples and doctests).
    fn:
        The SPMD program.  Its first positional argument is the rank's
        :class:`~repro.mpi.comm.Comm`.
    trace:
        Optional :class:`~repro.mpi.trace.CommTrace` shared by all ranks.
    timeout:
        Deadline (seconds) for any *single* blocking communication
        call — deadlock detection, not a run-level budget; exceeded
        deadlines raise :class:`~repro.util.errors.DeadlockError`.
        Size it to the longest a rank may legitimately compute between
        two collectives (its peers sit in the collective for exactly
        that long), not to the expected wall time of the whole program.

    Returns
    -------
    list
        Per-rank return values of ``fn``, indexed by rank.
    """
    world = World(nranks, trace=trace, timeout=timeout)
    comm_id = world.alloc_comm_id()

    if nranks == 1:
        comm = Comm(world, comm_id, 0, 1)
        world.trace.bind_rank(0)
        return [fn(comm, *args, **kwargs)]

    results: list[Any] = [None] * nranks
    failures: list[tuple[int, BaseException]] = []
    failure_lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = Comm(world, comm_id, rank, nranks)
        world.trace.bind_rank(rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except RankAbortedError:
            # Secondary failure caused by another rank's abort; the
            # primary exception is re-raised by the caller.
            pass
        except BaseException as exc:  # noqa: BLE001 - must propagate everything
            with failure_lock:
                failures.append((rank, exc))
            world.abort(exc)

    threads = [
        threading.Thread(target=runner, args=(rank,), name=f"rank-{rank}", daemon=True)
        for rank in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if failures:
        rank, exc = min(failures, key=lambda item: item[0])
        raise exc
    return results


def single_rank_comm(
    trace: Optional[CommTrace] = None,
    timeout: float = 120.0,
) -> Comm:
    """A standalone size-1 communicator (the analogue of ``MPI_COMM_SELF``).

    Serial drivers and examples use this to run the full solver stack
    without threads; all collectives complete immediately.
    """
    world = World(1, trace=trace, timeout=timeout)
    world.trace.bind_rank(0)
    return Comm(world, world.alloc_comm_id(), 0, 1)
