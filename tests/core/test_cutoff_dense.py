"""The cutoff solver's dense evaluation.

A :class:`~repro.core.br_cutoff.CutoffBRSolver` on one block with
``skin = 0`` whose spatial domain area is at most
``_DENSE_AREA_FACTOR · cutoff²`` sums its pairs with the all-pairs
kernel under a cutoff mask instead of a cell-list search and the CSR
kernel.  It must be the same sum, read the same to every caller (pair
count, cache counters, trace) and be taken by exactly the shipped
configs pinned at the bottom of this file.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import mpi
from repro.backend import available_backends
from repro.campaign.deck import CampaignDeck, build_config
from repro.core import InitialCondition, Solver, SolverConfig
from repro.core.diagnostics import gather_global_state
from repro.core.kernels import br_velocity_neighbors, br_velocity_within
from repro.core.solver import arithmetic_canary, state_digest
from repro.spatial.neighbors import neighbor_lists
from tests.conftest import spmd

REPO = Path(__file__).resolve().parents[2]
BACKENDS = available_backends()
RTOL = 1e-12
IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=4)


def assert_matches(result, reference):
    scale = max(float(np.abs(reference).max()), 1e-30)
    np.testing.assert_allclose(result, reference, rtol=RTOL, atol=RTOL * scale)


def csr_sum(points, omega, cutoff, eps, dA, backend):
    lists = neighbor_lists(points, points, cutoff)
    velocity = br_velocity_neighbors(
        points, points, omega, lists.offsets, lists.indices, eps, dA,
        backend=backend,
    )
    return velocity, lists.total_neighbors


def deck_config(**overrides):
    """One of the e2e campaign deck's cutoff runs: 16², cutoff 0.5 on
    the default [-1, 1]² domain (area ÷ cutoff² = 16)."""
    base = dict(
        num_nodes=(16, 16), order="high", periodic=(False, False),
        br_solver="cutoff", cutoff=0.5, backend="blocked",
    )
    base.update(overrides)
    return SolverConfig(**base)


# -- the kernel: the CSR sum without the search ------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 300),
    cutoff=st.floats(0.05, 4.0),
    eps=st.floats(0.01, 0.3),
    flat=st.booleans(),
)
def test_dense_sum_matches_csr_sum(backend, seed, n, cutoff, eps, flat):
    """Up to 300 points (two blocked panels, the second ragged), every
    pair at least 1e-9 (relative) away from the cutoff."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(n, 3))
    if flat:                        # an interface, like the solver's
        points[:, 2] *= 0.05
    omega = rng.normal(size=(n, 3))
    diff = points[:, None, :] - points[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    assume(np.all(np.abs(r - cutoff) >= 1e-9 * cutoff))
    want, want_pairs = csr_sum(points, omega, cutoff, eps, 0.3, backend)
    got, pairs = br_velocity_within(points, omega, cutoff, eps, 0.3,
                                    backend=backend)
    assert pairs == want_pairs
    assert_matches(got, want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_boundary_is_inclusive(backend):
    """Dyadic geometry, so r² and the centred coordinates are exact:
    the pairs at exactly the cutoff count and are summed."""
    points = np.array([
        [0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [1.0, 0.0, 0.0],
    ])
    omega = np.array([
        [1.0, 2.0, -1.0], [0.5, -1.0, 2.0], [-2.0, 0.25, 1.0], [1.0, 1.0, 1.0],
    ])
    want, want_pairs = csr_sum(points, omega, 0.5, 0.1, 1.0, backend)
    got, pairs = br_velocity_within(points, omega, 0.5, 0.1, 1.0,
                                    backend=backend)
    # Four self pairs and both directions of (0, 1), (0, 2) and (1, 3).
    assert pairs == want_pairs == 10
    assert_matches(got, want)
    assert np.any(got != 0.0)


# -- the solver: one path for life, same sum, same readings ------------------


def _solver_state(config, steps):
    def program(comm):
        solver = Solver(comm, config, IC)
        solver.run(steps)
        return gather_global_state(solver.pm), solver.br_solver

    return spmd(1, program)[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_cutoff_past_the_diagonal_is_the_exact_solver(backend):
    """Every pair within the cutoff: the dense path is the exact
    solver's own-block call, bit for bit."""
    exact, _ = _solver_state(deck_config(br_solver="exact", backend=backend), 2)
    (z, w), br = _solver_state(deck_config(cutoff=3.0, backend=backend), 2)
    assert br.dense
    assert np.array_equal(z, exact[0]) and np.array_equal(w, exact[1])


@pytest.mark.parametrize("backend", BACKENDS)
def test_dense_solver_matches_the_pipeline(monkeypatch, backend):
    """Two steps of a deck run, dense vs forced onto the cell list."""
    (z, w), br = _solver_state(deck_config(backend=backend), 2)
    monkeypatch.setattr("repro.core.br_cutoff._DENSE_AREA_FACTOR", 0.0)
    (z_csr, w_csr), br_csr = _solver_state(deck_config(backend=backend), 2)
    assert br.dense and not br_csr.dense
    assert_matches(z, z_csr)
    assert_matches(w, w_csr)


def test_dense_path_reads_like_the_pipeline():
    """Pair count, cache counters and trace of a dense evaluation are
    what a caller and the ledger read on the CSR path."""
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
        built = trace.metrics.counter("neighbor_cache.rebuilds").value
        for _ in range(evaluations):
            z = z + 0.02 * rng.uniform(-1, 1, size=z.shape)
            br.compute_velocities(z, omega)
            points = z.reshape(-1, 3)
            csr = neighbor_lists(points, points, br.cutoff).total_neighbors
            pairs.append((br.last_pair_count, csr))
        rebuilds = trace.metrics.counter("neighbor_cache.rebuilds").value
        return br.dense, br.cache_stats(), rebuilds - built, pairs

    dense, stats, rebuilds, pairs = spmd(1, program, trace=trace)[0]
    assert dense
    for got, csr in pairs:
        assert got == csr > 0
    assert stats == {"rebuilds": evaluations, "reuses": 0}
    assert rebuilds == evaluations
    kernels = [e for e in trace.compute_events if e.kernel.startswith("br_")]
    assert [(e.kernel, e.phase, e.items) for e in kernels] == [
        ("br_neighbors", "br_compute", got) for got, _ in pairs
    ]
    assert all(e.t_wall is not None for e in kernels)
    assert "neighbor" not in {span.phase for span in trace.spans}
    assert not [e for e in trace.compute_events if e.phase == "neighbor"]


#: Digest of the final global ``z`` / ``w`` of a deck run on the dense
#: path after two steps (one rank, blocked engine).  A change here is a
#: numerics change: see ``NUMERICS_VERSION``.
DENSE_CUTOFF_STATES = {
    ("high", "blocked", 16): "8acc27e55dc19104",
}

#: The arithmetic canary of the host the digests were recorded on.
ARITHMETIC_CANARY = "9ead8a9764082226"


@pytest.mark.parametrize("key", list(DENSE_CUTOFF_STATES), ids=str)
def test_dense_state_pinned(key):
    if arithmetic_canary() != ARITHMETIC_CANARY:
        pytest.skip("snapshot recorded on a host with other BLAS/SIMD rounding")
    order, backend, nodes = key
    (z, w), br = _solver_state(
        deck_config(order=order, backend=backend, num_nodes=(nodes, nodes),
                    atwood=0.4, dt=0.002), 2,
    )
    assert br.dense
    assert state_digest(z, w) == DENSE_CUTOFF_STATES[key]


# -- which path each shipped cutoff config takes -----------------------------


def _dense(config, ranks):
    """The path flag of every rank's cutoff solver, built and not run."""
    def program(comm):
        return Solver(comm, config, IC).br_solver.dense

    return spmd(ranks, program)


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cutoff_r2_takes_the_pipeline():
    workloads = _load(REPO / "benchmarks/e2e/workloads.py", "e2e_workloads")
    workload = workloads.SOLVER_WORKLOADS["cutoff_r2"]
    config = build_config(workload["config"])
    assert _dense(config, workload["ranks"]) == [False] * workload["ranks"]


def test_campaign_deck_cutoff_runs_are_dense():
    workloads = _load(REPO / "benchmarks/e2e/workloads.py", "e2e_workloads")
    specs = [
        spec for spec in CampaignDeck.from_file(workloads.DECK_TEMPLATE).expand()
        if spec.config.br_solver == "cutoff"
    ]
    assert len(specs) == 128
    # The path depends on ranks, skin, cutoff and the spatial domain
    # only: build one solver per distinct combination.
    shapes = {
        (s.ranks, s.config.skin, s.config.cutoff, s.config.spatial_bounds()): s
        for s in specs
    }
    for spec in shapes.values():
        assert _dense(spec.config, spec.ranks) == [True] * spec.ranks


def test_cutoff_cache_baseline_takes_the_pipeline(monkeypatch):
    """``bench_cutoff_cache``'s ``skin = 0`` run sits at area ÷ cutoff²
    ≈ 61.7, which its gate compares against the cached run."""
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    bench = _load(REPO / "benchmarks/bench_cutoff_cache.py", "bench_cutoff_cache")
    assert _dense(bench._config(0.0), bench.RANKS) == [False] * bench.RANKS


def test_singlemode_rollup_takes_the_pipeline():
    (spec,) = CampaignDeck.from_file(
        REPO / "scenarios/singlemode-rollup.json"
    ).expand()
    assert spec.ranks == 4
    assert _dense(spec.config, spec.ranks) == [False] * 4
