"""In-process MPI substrate for the Beatnik reproduction.

This package simulates an MPI library inside one Python process: SPMD
rank threads, mpi4py-style communicators (buffer and object APIs),
Cartesian topologies, deterministic collectives, and full communication
tracing.  It substitutes for Spectrum MPI in the paper's software
stack while preserving the communication *patterns* the
mini-application is designed to exercise.  There is one way to move a
vector collective's bytes: packed into one pooled contiguous buffer
per rank per round (:mod:`repro.mpi.collectives`), with the trace
recording the logical payloads.

Quick example::

    from repro import mpi

    def program(comm):
        import numpy as np
        local = np.full(4, comm.rank, dtype=np.float64)
        total = comm.allreduce(float(local.sum()))
        return total

    totals = mpi.run_spmd(4, program)   # [24.0, 24.0, 24.0, 24.0]
"""

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, PROC_NULL, Comm, Request, Status
from repro.mpi.cart import CartComm, create_cart
from repro.mpi.descriptor import MessageDescriptor, describe, payload_nbytes
from repro.mpi.ops import LAND, LOR, MAX, MAXLOC, MIN, MINLOC, PROD, SUM, Op
from repro.mpi.simulator import run_spmd, single_rank_comm
from repro.mpi.trace import CommEvent, CommTrace, ComputeEvent, NullTrace
from repro.mpi.world import World

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "Comm",
    "Request",
    "Status",
    "CartComm",
    "create_cart",
    "Op",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "MAXLOC",
    "MINLOC",
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
