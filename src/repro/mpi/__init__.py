"""In-process MPI substrate for the Beatnik reproduction.

This package simulates an MPI library inside one Python process: SPMD
rank threads, communicators, Cartesian topologies, deterministic
collectives, and full communication tracing.  It substitutes for
Spectrum MPI in the paper's software stack while preserving the
communication *patterns* the mini-application is designed to exercise,
and it offers exactly the calls those patterns make:

* buffer point-to-point — ``Send`` / ``Recv`` / ``Sendrecv`` on numpy
  arrays (halo exchange, the exact solver's ring, FFT remap meshes);
* vector collectives on numpy arrays — ``exchange_arrays`` (all-to-all
  remaps, particle migration, spatial halo) and ``Allgatherv`` (the
  tree's gather), packed into one pooled contiguous buffer per rank per
  round (:mod:`repro.mpi.collectives`), with the trace recording the
  logical payloads;
* object collectives on small Python values — ``allreduce`` (``SUM`` /
  ``MAX``), ``gather``, ``allgather`` — and ``Barrier``;
* ``Dup`` and :func:`create_cart` for fresh contexts and process grids.

Quick example::

    from repro import mpi

    def program(comm):
        import numpy as np
        local = np.full(4, comm.rank, dtype=np.float64)
        total = comm.allreduce(float(local.sum()))
        return total

    totals = mpi.run_spmd(4, program)   # [24.0, 24.0, 24.0, 24.0]
"""

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, PROC_NULL, Comm
from repro.mpi.cart import CartComm, create_cart
from repro.mpi.descriptor import MessageDescriptor, describe, payload_nbytes
from repro.mpi.ops import MAX, SUM, Op
from repro.mpi.simulator import run_spmd, single_rank_comm
from repro.mpi.trace import CommEvent, CommTrace, ComputeEvent, NullTrace
from repro.mpi.world import World

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "Comm",
    "CartComm",
    "create_cart",
    "Op",
    "SUM",
    "MAX",
    "MessageDescriptor",
    "describe",
    "payload_nbytes",
    "run_spmd",
    "single_rank_comm",
    "CommEvent",
    "ComputeEvent",
    "CommTrace",
    "NullTrace",
    "World",
]
