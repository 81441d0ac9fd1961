"""Comm-heavy solver paths × compute backends, through the packed pool.

The two paths that lean hardest on the pooled vector collectives —
the cutoff solver's migrate/halo exchanges (fresh every evaluation)
and the tree solver's surface allgather — run on both compute engines on several ranks, twice.  Each
run must:

* match a one-rank run of the same configuration (partitioning moves
  bytes, it does not change the physics),
* repeat itself bit for bit, with the same trace signature (pooled send
  buffers are reused across rounds; a lease released early would show
  up as a corrupted or run-dependent result), and
* really go through the pool: packed bytes are counted and, once the
  first rounds have filled it, leases come back as hits.
"""

from collections import Counter

import numpy as np
import pytest

from repro import mpi
from repro.core import InitialCondition, Solver, SolverConfig, gather_global_state
from tests.conftest import ENGINES, spmd

IC = InitialCondition(kind="single_mode", magnitude=0.08, period=0.5)

#: The comm-heavy solver paths of the matrix.
PATHS = {
    # cutoff: fresh migrate + halo exchange every evaluation (the
    # Alltoallv/exchange_arrays-heavy path).
    "halo": dict(
        nranks=4, nsteps=2,
        config=dict(
            num_nodes=(12, 12), low=(-1, -1), high=(1, 1),
            periodic=(False, False), order="high",
            br_solver="cutoff", cutoff=0.6,
            dt=0.004, eps=0.05,
            spatial_low=(-2, -2, -1), spatial_high=(2, 2, 1),
        ),
    ),
    # tree solver: ring Allgatherv of every rank's surface block.
    "tree": dict(
        nranks=2, nsteps=2,
        config=dict(
            num_nodes=(12, 12), low=(-np.pi, -np.pi), high=(np.pi, np.pi),
            order="high", br_solver="tree", dt=0.005, eps=0.1,
        ),
    ),
}


def _run(path, backend, nranks, trace=None):
    spec = PATHS[path]
    cfg = SolverConfig(**spec["config"])

    def program(comm):
        solver = Solver(comm, cfg, IC, backend=backend)
        solver.run(spec["nsteps"])
        z, w = gather_global_state(solver.pm)
        diag = solver.diagnostics()
        return (z, w, diag) if comm.rank == 0 else None

    return spmd(nranks, program, trace=trace, timeout=120.0)[0]


def _event_signature(trace):
    kinds = Counter(e.kind for e in trace.events)
    nbytes = Counter()
    for e in trace.events:
        nbytes[e.kind] += e.nbytes
    return kinds, nbytes


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("path", sorted(PATHS))
class TestCommBackendMatrix:
    def test_partitioned_runs_repeat_and_match_one_rank(self, path, backend):
        nranks = PATHS[path]["nranks"]
        first_trace, second_trace = mpi.CommTrace(), mpi.CommTrace()
        z1, w1, diag1 = _run(path, backend, nranks, first_trace)
        z2, w2, diag2 = _run(path, backend, nranks, second_trace)

        ctx = f"{path}/{backend}"
        assert np.array_equal(z1, z2), f"{ctx}: surface z not reproducible"
        assert np.array_equal(w1, w2), f"{ctx}: vorticity not reproducible"
        for key in ("amplitude", "vorticity_norm", "time", "steps"):
            assert diag1[key] == diag2[key], f"{ctx}: diag {key!r}"
        assert _event_signature(first_trace) == _event_signature(second_trace)

        z_serial, w_serial, _ = _run(path, backend, 1)
        np.testing.assert_allclose(z1, z_serial, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(w1, w_serial, rtol=1e-9, atol=1e-12)

        snap = first_trace.metrics.snapshot()
        assert snap["comm.packed_bytes"] > 0, f"{ctx}: nothing was packed"
        assert snap["bufferpool.hits"] > 0, f"{ctx}: no lease was reused"
