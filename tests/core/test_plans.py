"""Plans built once per solver, pinned by bit and by count.

The grid halo entries, the boundary-condition faces and the one-block
spatial identities replace per-evaluation derivations that used to be
redone on every call.  Each is pinned here against that derivation,
kept in this file as the reference:

* ``_ref_gather`` / ``_ref_apply_*`` re-derive neighbours, slabs and
  boundary faces on every call — ghost frames must be ``array_equal``
  and the recorded comm events identical, and a boundary plan applied
  to a fleet's ``(B, …)`` stack must match it member by member;
* spies count the decomposition lookups an evaluation may no longer do;
* ``_ExchangingMigrator`` / ``_ref_halo_exchange`` push every spatial
  hop through ``exchange_arrays`` whatever the mesh — a one-block
  cutoff evaluation must return the same bits without a comm event,
  and two- and four-rank evaluations must record the same events.
"""

import numpy as np
import pytest

from repro import mpi
from repro.core import (
    InitialCondition,
    ProblemManager,
    Solver,
    SolverConfig,
    SurfaceMesh,
)
from repro.core import br_cutoff
from repro.grid import NodeArray
from repro.grid.halo import _TAG_BASE, HaloExchange
from repro.mpi.cart import CartComm
from repro.mpi.world import PROC_NULL
from repro.spatial import HaloResult, Migration
from repro.spatial.migrate import ParticleMigrator
from tests.conftest import spmd

PI = np.pi


# -- reference: the per-call derivations ----------------------------------------


def _ref_slabs(grid, axis, sign):
    h = grid.halo_width
    ni, nj = grid.owned_space.shape
    if axis == 0:
        cols = slice(h, h + nj)
        if sign == -1:
            return (slice(h, 2 * h), cols), (slice(0, h), cols)
        return (slice(ni, ni + h), cols), (slice(ni + h, ni + 2 * h), cols)
    rows = slice(0, ni + 2 * h)
    if sign == -1:
        return (rows, slice(h, 2 * h)), (rows, slice(0, h))
    return (rows, slice(nj, nj + h)), (rows, slice(nj + h, nj + 2 * h))


def _ref_gather(grid, arrays):
    cart = grid.cart
    for phase, axis in enumerate((0, 1)):
        for dir_index, sign in enumerate((-1, 1)):
            tag = _TAG_BASE + 2 * phase + dir_index
            _, recv_slab = _ref_slabs(grid, axis, sign)
            offset = [0, 0]
            offset[axis] = sign
            src = cart.rank_of([c + o for c, o in zip(cart.coords_of(cart.rank), offset)])
            offset[axis] = -sign
            dest = cart.rank_of([c + o for c, o in zip(cart.coords_of(cart.rank), offset)])
            send_slab, _ = _ref_slabs(grid, axis, -sign)
            if dest != PROC_NULL:
                cart.Send(
                    np.concatenate(
                        [np.ascontiguousarray(a[(..., *send_slab)]).ravel()
                         for a in arrays]
                    ),
                    dest, tag,
                )
            if src != PROC_NULL:
                incoming = cart.Recv(None, src, tag)
                at = 0
                for a in arrays:
                    region = a[(..., *recv_slab)]
                    region[...] = incoming[at: at + region.size].reshape(region.shape)
                    at += region.size


def _ref_extrapolate(grid, full, axis, side):
    h = grid.halo_width
    n_owned = grid.owned_space.shape[axis]

    def take(index):
        sel = [slice(None), slice(None)]
        sel[axis] = index
        return (..., *sel)

    if side == -1:
        edge, inner, targets = h, h + 1, range(h - 1, -1, -1)
    else:
        edge, inner = n_owned + h - 1, n_owned + h - 2
        targets = range(n_owned + h, n_owned + 2 * h)
    slope = full[take(edge)] - full[take(inner)]
    for g, target in enumerate(targets, start=1):
        full[take(target)] = full[take(edge)] + g * slope


def _ref_apply(mesh, full, position):
    cart = mesh.cart
    coords = cart.coords_of(cart.rank)
    h = mesh.halo_width
    for axis, periodic in enumerate(mesh.global_mesh.periodic):
        first = coords[axis] == 0
        last = coords[axis] == cart.dims[axis] - 1
        if periodic:
            if not position:
                continue
            period = mesh.global_mesh.extent[axis]
            n_owned = mesh.owned_space.shape[axis]
            sel = [slice(None), slice(None)]
            if first:
                sel[axis] = slice(0, h)
                full[(..., axis, *sel)] -= period
            if last:
                sel[axis] = slice(n_owned + h, n_owned + 2 * h)
                full[(..., axis, *sel)] += period
        else:
            if first:
                _ref_extrapolate(mesh, full, axis, -1)
            if last:
                _ref_extrapolate(mesh, full, axis, +1)


def _events(trace):
    return sorted(
        (e.rank, e.seq, e.kind, e.phase, e.tag, e.nbytes, e.peer)
        for e in trace.events
    )


# -- (a) halo entries and boundary faces, by bit ---------------------------------


@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize(
    "periodic", [(True, True), (False, False), (True, False), (False, True)]
)
def test_planned_ghost_frames_match_per_call_derivation(dims, periodic):
    def program(comm, planned):
        cart = mpi.create_cart(comm, dims=dims, periods=periodic)
        mesh = SurfaceMesh(cart, (0.0, -1.0), (2.0, 2.0), (12, 10), periodic)
        pm = ProblemManager(mesh)
        phi = NodeArray(mesh, 1)
        rng = np.random.default_rng(31 + comm.rank)
        for field in (pm.z, pm.w, phi):
            field.full[...] = -7.0  # ghosts nobody fills must stay put on both sides
            field.own[...] = rng.normal(size=field.own.shape)
        for _ in range(2):  # a plan is re-executed, not consumed
            if planned:
                pm.gather_state()
                pm.gather_field(phi.full)
            else:
                with cart.trace.phase("halo"):
                    _ref_gather(mesh, [pm.z.full, pm.w.full])
                _ref_apply(mesh, pm.z.full, position=True)
                _ref_apply(mesh, pm.w.full, position=False)
                with cart.trace.phase("halo"):
                    _ref_gather(mesh, [phi.full])
                _ref_apply(mesh, phi.full, position=False)
        return pm.z.full, pm.w.full, phi.full

    nranks = dims[0] * dims[1]
    got_trace, want_trace = mpi.CommTrace(), mpi.CommTrace()
    got = spmd(nranks, program, True, trace=got_trace)
    want = spmd(nranks, program, False, trace=want_trace)
    for rank in range(nranks):
        for g, w in zip(got[rank], want[rank]):  # 3-, 2- and 1-component
            assert np.array_equal(g, w), f"rank {rank}"
    assert _events(got_trace) == _events(want_trace)
    assert len(got_trace.events) > 0 or not any(periodic)


@pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
@pytest.mark.parametrize(
    "periodic", [(True, True), (False, False), (True, False), (False, True)]
)
def test_boundary_plan_applies_to_a_stack_member_by_member(dims, periodic):
    """The fleet's case: one block's plan applied to a ``(B, …)`` stack
    leaves each member as the per-call derivation leaves it alone."""

    def program(comm):
        cart = mpi.create_cart(comm, dims=dims, periods=periodic)
        mesh = SurfaceMesh(cart, (0.0, -1.0), (2.0, 2.0), (12, 10), periodic)
        bc = ProblemManager(mesh).bc
        rng = np.random.default_rng(17 + comm.rank)
        z = rng.normal(size=(5, 3) + mesh.local_shape)
        w = rng.normal(size=(5, 2) + mesh.local_shape)
        want_z, want_w = z.copy(), w.copy()
        for member in want_z:
            _ref_apply(mesh, member, position=True)
        for member in want_w:
            _ref_apply(mesh, member, position=False)
        bc.apply_position(z)
        bc.apply_field(w)
        return np.array_equal(z, want_z) and np.array_equal(w, want_w)

    assert all(spmd(dims[0] * dims[1], program))


# -- (b) no decomposition lookup left on the evaluation path ---------------------


def _cutoff_config(**overrides):
    base = dict(
        num_nodes=(16, 16), low=(-PI, -PI), high=(PI, PI),
        periodic=(False, False), order="high", br_solver="cutoff",
        cutoff=1.2, dt=0.004, eps=0.1,
    )
    base.update(overrides)
    return SolverConfig(**base)


IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)


@pytest.mark.parametrize("br_solver", ["exact", "cutoff"])
@pytest.mark.parametrize("periodic", [(True, True), (False, False)])
def test_evaluation_makes_no_decomposition_lookup(monkeypatch, br_solver, periodic):
    calls = []

    def spy(cls, name):
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    spy(CartComm, "coords_of")
    spy(CartComm, "rank_of")
    spy(HaloExchange, "_slabs")

    def program(comm):
        solver = Solver(
            comm, _cutoff_config(br_solver=br_solver, periodic=periodic), IC
        )
        built = len(calls)
        solver.zmodel.compute_derivatives()
        return built, len(calls)

    built, after = spmd(1, program)[0]
    assert built > 0          # the spies see the construction-time derivation
    assert after == built     # ... and nothing once the solver exists


# -- (c) one-block spatial hops are identities -----------------------------------


class _ExchangingMigrator(ParticleMigrator):
    """The five-step pipeline's migrate hops as they are on any mesh:
    owners looked up, records packed and sorted, ``exchange_arrays``."""

    def migrate(self, positions, payload):
        comm = self.comm
        n, k = positions.shape[0], payload.shape[1]
        with comm.trace.phase("migrate"):
            owners = self.mesh.owner_of(positions)
            order = np.argsort(owners, kind="stable")
            bounds = np.searchsorted(owners[order], np.arange(comm.size + 1))
            record = np.empty((n, 3 + k + 2))
            record[:, 0:3] = positions
            record[:, 3: 3 + k] = payload
            record[:, -2] = comm.rank
            record[:, -1] = np.arange(n, dtype=np.float64)
            merged = _exchange(comm, record[order], bounds)
        return Migration(
            positions=merged[:, 0:3].copy(),
            payload=merged[:, 3: 3 + k].copy(),
            src_rank=merged[:, -2].astype(np.int64),
            src_index=merged[:, -1].astype(np.int64),
            sent_count=n,
        )

    def migrate_back(self, migration, results):
        comm = self.comm
        with comm.trace.phase("migrate"):
            record = np.empty((migration.count, results.shape[1] + 1))
            record[:, 0] = migration.src_index
            record[:, 1:] = results
            order = np.argsort(migration.src_rank, kind="stable")
            bounds = np.searchsorted(
                migration.src_rank[order], np.arange(comm.size + 1)
            )
            merged = _exchange(comm, record[order], bounds)
        out = np.empty((migration.sent_count, results.shape[1]))
        out[merged[:, 0].astype(np.int64)] = merged[:, 1:]
        assert merged.shape[0] == migration.sent_count
        return out


def _exchange(comm, sorted_rec, bounds):
    per_dest = []
    for dest in range(comm.size):
        chunk = sorted_rec[bounds[dest]: bounds[dest + 1]]
        per_dest.append(chunk if chunk.size else None)
    width = sorted_rec.shape[1]
    arrived = [
        r.reshape(-1, width) for r in comm.exchange_arrays(per_dest) if r.size
    ]
    return np.concatenate(arrived) if arrived else np.empty((0, width))


def _ref_halo_exchange(comm, mesh, positions, payload, cutoff):
    with comm.trace.phase("spatial_halo"):
        point_idx, dest_rank = mesh.halo_targets(positions, cutoff)
        order = np.argsort(dest_rank, kind="stable")
        bounds = np.searchsorted(dest_rank[order], np.arange(comm.size + 1))
        sent = point_idx[order]
        sorted_rec = np.concatenate([positions[sent], payload[sent]], axis=1)
        merged = _exchange(comm, sorted_rec, bounds)
    return HaloResult(
        positions=merged[:, 0:3].copy(), payload=merged[:, 3:].copy(),
        sent_copies=int(sent.shape[0]),
    )


def _evaluations(nranks, config, reference, monkeypatch, trace):
    """Six cutoff evaluations along a drifting state: velocities and
    the solver's counters after each."""
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(br_cutoff, "ParticleMigrator", _ExchangingMigrator)
            patch.setattr(br_cutoff, "halo_exchange", _ref_halo_exchange)

        def program(comm):
            solver = Solver(comm, config, IC)
            br = solver.br_solver
            rng = np.random.default_rng(77 + comm.rank)
            omega = rng.normal(size=solver.pm.z.own.shape)
            z = solver.pm.z.own.copy()
            out = []
            # Small drifts and one big one that moves points across blocks.
            for drift in (0.0, 0.01, 0.01, 0.5, 0.01, 0.0):
                z = z + drift * rng.uniform(-1, 1, size=z.shape)
                velocity = br.compute_velocities(z, omega)
                out.append((
                    velocity, br.ownership_counts(), br.last_pair_count,
                    br.last_owned_count, br.last_ghost_count,
                ))
            return out

        return spmd(nranks, program, trace=trace)


def _assert_same_evaluations(got, want):
    for rank_got, rank_want in zip(got, want):
        for (v, own, *counts), (v_ref, own_ref, *counts_ref) in zip(
            rank_got, rank_want
        ):
            assert np.array_equal(v, v_ref)
            assert np.array_equal(own, own_ref)
            assert counts == counts_ref


def test_one_block_hops_are_identities(monkeypatch):
    config = _cutoff_config()
    trace, ref_trace = mpi.CommTrace(), mpi.CommTrace()
    got = _evaluations(1, config, False, monkeypatch, trace)
    want = _evaluations(1, config, True, monkeypatch, ref_trace)
    _assert_same_evaluations(got, want)
    # The reference rendezvoused three times per evaluation ...
    assert {"migrate", "spatial_halo"} <= set(ref_trace.phase_walls())
    assert sum(e.kind == "alltoallv" for e in ref_trace.events) == 3 * 6
    # ... the identities moved nothing and recorded nothing: no phase
    # span, no comm event (bar the diagnostics' allgather).
    assert not {"migrate", "spatial_halo"} & set(trace.phase_walls())
    kinds = {(e.kind, e.phase) for e in trace.events}
    assert kinds <= {("allgather", "unphased")}
    one_eval = mpi.CommTrace()

    def program(comm):
        solver = Solver(comm, _cutoff_config(), IC)
        one_eval.clear()
        solver.zmodel.compute_derivatives()

    spmd(1, program, trace=one_eval)
    assert one_eval.events == []


@pytest.mark.parametrize("nranks", [2, 4])
def test_multi_block_pipeline_unchanged(monkeypatch, nranks):
    config = _cutoff_config()
    trace, ref_trace = mpi.CommTrace(), mpi.CommTrace()
    got = _evaluations(nranks, config, False, monkeypatch, trace)
    want = _evaluations(nranks, config, True, monkeypatch, ref_trace)
    _assert_same_evaluations(got, want)
    assert _events(trace) == _events(ref_trace)
    assert sum(e.kind == "alltoallv" for e in trace.events) == 3 * 6 * nranks


def test_cutoff_r2_message_counts_pinned():
    """The e2e ``cutoff_r2`` workload's exact counts, on its own config."""
    config = SolverConfig(
        num_nodes=(64, 64), low=(-PI, -PI), high=(PI, PI),
        periodic=(False, False), order="high", br_solver="cutoff",
        cutoff=0.5, dt=0.002, eps=0.05,
    )
    ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=4, seed=11)
    trace = mpi.CommTrace()
    steps = 3

    def sent(rank=None):
        events = [
            e for e in trace.events
            if e.kind != "recv" and rank in (None, e.rank)
        ]
        return np.array([len(events), sum(e.nbytes for e in events)])

    def program(comm):
        solver = Solver(comm, config, ic)
        built = sent(comm.rank)  # this rank's construction-time traffic
        solver.run(steps)
        return built, solver.br_solver.last_pair_count

    results = spmd(2, program, trace=trace)
    count, nbytes = sent() - sum(built for built, _ in results)
    assert count == 30 * steps
    assert nbytes == 1_308_672 * steps
    assert all(pairs > 0 for _, pairs in results)
