"""The cutoff solver's evaluation: chunk-box search plus masked sum.

A :class:`~repro.core.br_cutoff.CutoffBRSolver` finds its pairs by the
bounding boxes of fixed-length point chunks and sums them with the
all-pairs kernel under a cutoff mask, forming only the listed chunk
sub-panels — on every rank count and cutoff.  It must be the CSR sum
over brute-force lists, read the same to every caller (pair count,
trace) and keep the pinned states at the bottom of this
file.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import mpi
from repro.core import InitialCondition, Solver, SolverConfig
from repro.core.diagnostics import gather_global_state
from repro.core.kernels import br_velocity_within
from repro.core.solver import arithmetic_canary, state_digest
from repro.spatial.neighbors import brute_force_lists, chunk_pairs
from tests.conftest import ENGINES, spmd

RTOL = 1e-12
IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=4)


def assert_matches(result, reference):
    scale = max(float(np.abs(reference).max()), 1e-30)
    np.testing.assert_allclose(result, reference, rtol=RTOL, atol=RTOL * scale)


def csr_sum(points, omega, ghosts, ghost_omega, cutoff, eps, dA, backend=None):
    """The oracle: the BR sum pair by pair over brute-force lists of every
    source, on no engine (``backend`` is ignored)."""
    sources = np.concatenate([points, ghosts])
    source_omega = np.concatenate([omega, ghost_omega])
    offsets, indices = brute_force_lists(points, sources, cutoff)
    rows = np.repeat(np.arange(len(points)), np.diff(offsets))
    d = points[rows] - sources[indices]
    weight = (np.einsum("ij,ij->i", d, d) + eps * eps) ** -1.5
    velocity = np.zeros(points.shape)
    np.add.at(velocity, rows,
              np.cross(source_omega[indices], d) * weight[:, None])
    return velocity * (dA / (4.0 * np.pi)), int(offsets[-1])


def chunk_sum(points, omega, ghosts, ghost_omega, cutoff, eps, dA, backend):
    """The solver's sum: one listed call over the points, then ghosts."""
    sources = np.concatenate([points, ghosts])
    return br_velocity_within(
        points, sources, np.concatenate([omega, ghost_omega]), cutoff, eps,
        dA, chunk_pairs(points, sources, cutoff, symmetric=True),
        backend=backend,
    )


def deck_config(**overrides):
    """One of the e2e campaign deck's cutoff runs: 16², cutoff 0.5 on
    the default [-1, 1]² domain (area ÷ cutoff² = 16)."""
    base = dict(
        num_nodes=(16, 16), order="high", periodic=(False, False),
        br_solver="cutoff", cutoff=0.5,
    )
    base.update(overrides)
    return SolverConfig(**base)


# -- the kernel: the CSR sum, over the listed sub-panels only ---------------


@pytest.mark.parametrize("backend", ENGINES)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 300),
    ghosts=st.integers(0, 40),
    cutoff=st.floats(0.05, 4.0),
    eps=st.floats(0.01, 0.3),
    sheet=st.booleans(),
)
def test_chunk_sum_matches_csr_sum(backend, seed, n, ghosts, cutoff, eps, sheet):
    """Up to 300 points (ragged chunks) and 40 ghosts, as a random cloud
    or a mesh-ordered sheet like the solver's, every pair at least 1e-9
    (relative) away from the cutoff."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(n + ghosts, 3))
    if sheet:                       # an interface in mesh order
        side = int(np.ceil(np.sqrt(n + ghosts)))
        i, j = np.divmod(np.arange(n + ghosts), side)
        points = np.stack(
            [2 * i / side - 1, 2 * j / side - 1, 0.05 * points[:, 2]], axis=1
        )
    omega = rng.normal(size=points.shape)
    diff = points[:n, None, :] - points[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    assume(np.all(np.abs(r - cutoff) >= 1e-9 * cutoff))
    args = (points[:n], omega[:n], points[n:], omega[n:], cutoff, eps, 0.3,
            backend)
    want, want_pairs = csr_sum(*args)
    got, pairs = chunk_sum(*args)
    assert pairs == want_pairs
    assert_matches(got, want)


@pytest.mark.parametrize("backend", ENGINES)
def test_boundary_is_inclusive(backend):
    """Dyadic geometry, so r² and the centred coordinates are exact:
    the pairs at exactly the cutoff count and are summed."""
    points = np.array([
        [0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [1.0, 0.0, 0.0],
    ])
    omega = np.array([
        [1.0, 2.0, -1.0], [0.5, -1.0, 2.0], [-2.0, 0.25, 1.0], [1.0, 1.0, 1.0],
    ])
    ghost = np.array([[0.0, -0.5, 0.0]])
    args = (points, omega, ghost, np.array([[0.5, 0.5, 0.5]]), 0.5, 0.1, 1.0,
            backend)
    want, want_pairs = csr_sum(*args)
    got, pairs = chunk_sum(*args)
    # Four self pairs, both directions of (0, 1), (0, 2) and (1, 3), and
    # point 0 with the ghost.
    assert pairs == want_pairs == 11
    assert_matches(got, want)
    assert np.any(got != 0.0)


# -- the solver: one path, the CSR sum, the same readings --------------------


def _solver_state(config, steps, ranks=1, backend=None):
    def program(comm):
        solver = Solver(comm, config, IC, backend=backend)
        solver.run(steps)
        return gather_global_state(solver.pm), solver.br_solver

    return spmd(ranks, program)[0]


@pytest.mark.parametrize("backend", ENGINES)
def test_cutoff_past_the_diagonal_is_the_exact_solver(backend):
    """Every pair within the cutoff: the dense path is the exact
    solver's own-block call, bit for bit."""
    exact, _ = _solver_state(deck_config(br_solver="exact"), 2, backend=backend)
    (z, w), br = _solver_state(deck_config(cutoff=3.0), 2, backend=backend)
    assert np.array_equal(z, exact[0]) and np.array_equal(w, exact[1])


@pytest.mark.parametrize("ranks", [1, 2])
@pytest.mark.parametrize("backend", ENGINES)
def test_evaluation_is_the_csr_sum(backend, ranks):
    """One evaluation of a perturbed deck state: every rank's owned
    velocities are the CSR sum over all points within the cutoff."""

    def program(comm):
        solver = Solver(comm, deck_config(), IC, backend=backend)
        z = solver.pm.z.own.copy()
        z[..., 2] += 0.1 * np.sin(3.0 * z[..., 0]) * np.cos(2.0 * z[..., 1])
        omega = np.cos(7.0 * z + 1.0)
        br = solver.br_solver
        velocity = br.compute_velocities(z, omega)
        return (z.reshape(-1, 3), omega.reshape(-1, 3), velocity.reshape(-1, 3),
                (br.cutoff, br.eps, br.mesh.cell_area))

    parts = spmd(ranks, program)
    z, omega, got = (np.concatenate([p[k] for p in parts]) for k in range(3))
    cutoff, eps, dA = parts[0][3]
    want, _ = csr_sum(z, omega, np.empty((0, 3)), np.empty((0, 3)), cutoff,
                      eps, dA)
    assert_matches(got, want)


def test_evaluation_reads_like_the_pipeline():
    """Pair count and trace of a one-block evaluation:
    one ``neighbor_search`` in a ``neighbor`` span per evaluation, then
    one ``br_neighbors`` event over the in-cutoff pairs."""
    trace = mpi.CommTrace()
    evaluations = 4

    def program(comm):
        solver = Solver(comm, deck_config(), IC)
        br = solver.br_solver
        rng = np.random.default_rng(5)
        omega = rng.normal(size=solver.pm.z.own.shape)
        z = solver.pm.z.own.copy()
        pairs = []
        trace.clear()
        for _ in range(evaluations):
            z = z + 0.02 * rng.uniform(-1, 1, size=z.shape)
            br.compute_velocities(z, omega)
            points = z.reshape(-1, 3)
            offsets, _ = brute_force_lists(points, points, br.cutoff)
            pairs.append((br.last_pair_count, int(offsets[-1])))
        return pairs

    pairs = spmd(1, program, trace=trace)[0]
    for got, csr in pairs:
        assert got == csr > 0
    kernels = [e for e in trace.compute_events if e.kernel.startswith("br_")]
    assert [(e.kernel, e.phase, e.items) for e in kernels] == [
        ("br_neighbors", "br_compute", got) for got, _ in pairs
    ]
    assert all(e.t_wall is not None for e in kernels)
    searches = [e for e in trace.compute_events if e.phase == "neighbor"]
    assert [e.kernel for e in searches] == ["neighbor_search"] * evaluations
    assert all(e.items >= got for e, (got, _) in zip(searches, pairs))
    assert "neighbor" in {span.phase for span in trace.spans}


#: Digest of the final global ``z`` / ``w`` of a campaign-deck cutoff
#: run (one rank, blocked engine) after 20 steps: two steps leave the BR
#: kernel's last bits invisible.  A change here is a numerics change:
#: see ``NUMERICS_VERSION``.
DECK_CUTOFF_STATES = {
    ("high", "blocked", 16): "334ec38dae93d258",
}

#: The same digest for the pipeline across ranks: a 24² high-order run
#: on [-π, π]², cutoff 1.2, blocked engine, 20 steps.  Keyed
#: ``(ranks, skin)`` as recorded; the solver has one path, skin 0.
CUTOFF_STATES = {
    (1, 0.0): "2b11bf4a17a40679",
    (2, 0.0): "0891538d1f761b02",
    (4, 0.0): "c2753bd7961871ba",
}

#: The arithmetic canary of the host the digests were recorded on.
ARITHMETIC_CANARY = "9ead8a9764082226"

PIN_STEPS = 20


def _pinned_host():
    if arithmetic_canary() != ARITHMETIC_CANARY:
        pytest.skip("snapshot recorded on a host with other BLAS/SIMD rounding")


@pytest.mark.parametrize("key", list(DECK_CUTOFF_STATES), ids=str)
def test_deck_state_pinned(key):
    _pinned_host()
    order, backend, nodes = key
    (z, w), _ = _solver_state(
        deck_config(order=order, num_nodes=(nodes, nodes), atwood=0.4,
                    dt=0.002), PIN_STEPS, backend=backend,
    )
    assert state_digest(z, w) == DECK_CUTOFF_STATES[key]


def pipeline_config():
    return SolverConfig(
        num_nodes=(24, 24), low=(-np.pi, -np.pi), high=(np.pi, np.pi),
        order="high", br_solver="cutoff", cutoff=1.2,
        dt=0.004, eps=0.1,
    )


@pytest.mark.parametrize("key", list(CUTOFF_STATES), ids=str)
def test_pipeline_state_pinned(key):
    _pinned_host()
    ranks, _ = key
    (z, w), _ = _solver_state(pipeline_config(), PIN_STEPS, ranks)
    assert state_digest(z, w) == CUTOFF_STATES[key]
