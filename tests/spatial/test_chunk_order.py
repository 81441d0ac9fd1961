"""Cutoff chunks in spatial order, and one listed call per evaluation.

The cutoff solver sorts its owned points and its ghosts by
:func:`~repro.spatial.neighbors.spatial_order` (Morton code of the x, y
cell) before chunking, where that lists fewer candidate pairs than the
arrival order on the rank's owned block of the reference mesh; the
mesh decides, once, when the solver is built.  The owned × owned and
owned × ghost pairs then go through one ``br_allpairs(blocks=)`` call
over the owned points followed by the ghosts.  The order may change
bits, never the pairs kept.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.core import InitialCondition, Solver, SolverConfig
from repro.core import br_cutoff
from repro.spatial.neighbors import (
    _CHUNK,
    brute_force_lists,
    chunk_pairs,
    spatial_order,
)
from tests.conftest import ENGINES, spmd

RTOL = 1e-12
IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=4)
EPS2, PREF = 0.05 ** 2, 0.2


def assert_matches(got, want):
    scale = max(float(np.abs(want).max()), 1e-30)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


def mesh_block(nx, ny, h=0.1):
    """An ``nx × ny`` block of a gently wavy sheet, in mesh order."""
    i, j = np.divmod(np.arange(nx * ny), ny)
    x, y = h * i, h * j
    return np.stack([x, y, 0.1 * np.cos(x) * np.cos(y)], axis=1)


def deck_config(**overrides):
    """The e2e campaign deck's cutoff run: 16², cutoff 0.5 on [-1, 1]²."""
    base = dict(
        num_nodes=(16, 16), order="high", periodic=(False, False),
        br_solver="cutoff", cutoff=0.5,
    )
    base.update(overrides)
    return SolverConfig(**base)


def cutoff_r2_config(**overrides):
    """The ``cutoff_r2`` workload's sheet: 64² on [-π, π]², cutoff 0.5."""
    base = dict(
        num_nodes=(64, 64), low=(-np.pi, -np.pi), high=(np.pi, np.pi),
        periodic=(False, False), order="high", br_solver="cutoff",
        cutoff=0.5, dt=0.002, eps=0.05,
    )
    base.update(overrides)
    return SolverConfig(**base)


# -- the key ---------------------------------------------------------------


#: The grid of :func:`mesh_block`: its corner and half its spacing.
GRID = ((0.0, 0.0), (0.05, 0.05))


class TestSpatialOrder:
    def test_runs_of_a_mesh_block_are_tiles(self):
        """On a 32 × 64 block every run of 16 spans 4 × 4 mesh points."""
        order = spatial_order(mesh_block(32, 64), *GRID)
        assert np.array_equal(np.sort(order), np.arange(32 * 64))
        i, j = np.divmod(order.reshape(-1, _CHUNK), 64)
        assert np.all(np.ptp(i, axis=1) == 3) and np.all(np.ptp(j, axis=1) == 3)

    def test_tiles_list_fewer_candidates_than_strips(self):
        pts = mesh_block(32, 64)
        tiles = pts[spatial_order(pts, *GRID)]
        strips = chunk_pairs(pts, pts, 0.5, symmetric=True)
        tiled = chunk_pairs(tiles, tiles, 0.5, symmetric=True)
        assert tiled.candidates() < 0.5 * strips.candidates()

    def test_partial_tiles_go_last(self, rng):
        """Points from a neighbour's column and a block of odd width: the
        whole tiles still come first, as tiles, and owned points stay
        before ghosts."""
        pts = mesh_block(14, 64)                  # the last 2 columns ragged
        extra = mesh_block(1, 64)[rng.choice(64, 11, replace=False)]
        extra[:, 0] = 1.4                         # column 14, migrated in
        ghosts = mesh_block(2, 64) + [[-0.2, 0.0, 0.0]]
        points = np.concatenate([extra, pts, ghosts])
        owned = len(extra) + len(pts)
        order = spatial_order(points, *GRID, split=owned)
        assert np.array_equal(np.sort(order[:owned]), np.arange(owned))
        whole = order[:12 * 64].reshape(-1, _CHUNK)
        x, y = points[whole, 0], points[whole, 1]
        assert np.all(np.ptp(x, axis=1) < 0.31) and np.all(np.ptp(y, axis=1) < 0.31)
        assert np.all(points[order[:12 * 64], 0] < 1.15)

    @pytest.mark.parametrize("points", [
        np.empty((0, 3)), np.zeros((5, 3)), np.ones((1, 3)),
    ], ids=["empty", "coincident", "one"])
    def test_a_set_in_one_cell_keeps_its_order(self, points):
        assert np.array_equal(spatial_order(points, *GRID),
                              np.arange(len(points)))

    def test_points_below_the_grid_keep_their_tiles(self):
        """A block starting 3 tiles below the origin is still tiled."""
        pts = mesh_block(16, 16) - 1.2
        order = spatial_order(pts, *GRID)
        i, j = np.divmod(order.reshape(-1, _CHUNK), 16)
        assert np.all(np.ptp(i, axis=1) == 3) and np.all(np.ptp(j, axis=1) == 3)


# -- one listed call over owned points, then ghosts ------------------------


def pair_by_pair(points, sources, omega, cutoff):
    """The masked sum one pair at a time, in numpy: the oracle."""
    out = np.zeros(points.shape)
    kept = 0
    for t, p in enumerate(points):
        d = p - sources
        r2 = np.einsum("ij,ij->i", d, d)
        near = r2 <= cutoff ** 2
        kept += int(np.count_nonzero(near))
        w = (r2[near] + EPS2) ** -1.5
        out[t] = PREF * (np.cross(omega[near], d[near]) * w[:, None]).sum(0)
    return out, kept


def listed(backend, points, sources, omega, cutoff, blocks):
    out = np.zeros((1,) + points.shape)
    kept = get_backend(backend).br_allpairs(
        points[None], sources[None], omega[None], np.array([EPS2]),
        np.array([PREF]), out, cutoff2=np.array([cutoff ** 2]), blocks=blocks,
    )
    return out[0], int(kept[0])


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("owned,ghosts", [(1000, 300), (37, 5), (64, 0)])
def test_owned_and_ghosts_in_one_listed_call(backend, owned, ghosts, rng):
    """A symmetric list over the owned points followed by ragged ghost
    chunks (a partial list, or a complete one on the dense path): one
    call is the pair-by-pair sum and keeps its count."""
    pts = mesh_block(40, 40)
    pts[:, 2] += 0.02 * rng.normal(size=1600)
    sources = pts[:owned + ghosts]
    omega = rng.normal(size=sources.shape)
    blocks = chunk_pairs(sources[:owned], sources, 0.35, symmetric=True)
    assert 0 < len(blocks.pairs) < blocks.every() or owned < 100
    got, kept = listed(backend, sources[:owned], sources, omega, 0.35, blocks)
    want, want_kept = pair_by_pair(sources[:owned], sources, omega, 0.35)
    assert kept == want_kept
    assert_matches(got, want)


def test_a_symmetric_list_with_ghosts_lists_every_pair(rng):
    """Every pair within the cutoff has its chunk pair listed: among the
    owned chunks as ``I <= J``, against a ghost chunk as it is."""
    pts = rng.uniform(-1, 1, size=(230, 3))
    owned = 150
    blocks = chunk_pairs(pts[:owned], pts, 0.4, symmetric=True)
    offsets, indices = brute_force_lists(pts[:owned], pts, 0.4)
    rows = np.repeat(np.arange(owned), np.diff(offsets))
    cols = np.where(indices < owned, indices // _CHUNK,
                    -(-owned // _CHUNK) + (indices - owned) // _CHUNK)
    needed = np.stack([rows // _CHUNK, cols], axis=1)
    own = cols < -(-owned // _CHUNK)
    needed[own] = np.sort(needed[own], axis=1)
    assert {tuple(p) for p in needed.tolist()} <= {
        tuple(p) for p in blocks.pairs.tolist()}
    assert blocks.candidates() >= len(indices)


# -- the solver: the order changes no pair, and the mesh decides it ------


def _evaluate(config, ranks, tiled, shuffle, backend):
    """One evaluation per rank, on a rank-locally shuffled perturbed
    state, with the order forced: owned velocities and pair counts."""

    def program(comm):
        solver = Solver(comm, config, IC, backend=backend)
        br = solver.br_solver
        rng = np.random.default_rng(comm.rank)
        z = solver.pm.z.own.copy()
        z[..., 2] += 0.1 * np.sin(3.0 * z[..., 0]) * np.cos(2.0 * z[..., 1])
        shape = z.shape
        if shuffle:
            z = z.reshape(-1, 3)[rng.permutation(shape[0] * shape[1])]
        z = z.reshape(shape)
        omega = np.cos(7.0 * z + 1.0)
        br.tiled = tiled
        velocity = br.compute_velocities(z, omega)
        return velocity.reshape(-1, 3), br.last_pair_count

    return spmd(ranks, program)


@pytest.mark.parametrize("ranks", [1, 2, 4])
@pytest.mark.parametrize("backend", ENGINES)
def test_spatial_order_keeps_every_pair(backend, ranks):
    """A shuffled point set: the tiles keep exactly the arrival order's
    pairs, and the velocities agree to round-off."""
    config = cutoff_r2_config(num_nodes=(32, 32))
    arrival = _evaluate(config, ranks, False, shuffle=True, backend=backend)
    tiles = _evaluate(config, ranks, True, shuffle=True, backend=backend)
    for (v_a, pairs_a), (v_t, pairs_t) in zip(arrival, tiles):
        assert pairs_a == pairs_t > 0
        assert_matches(v_t, v_a)


def _tiled(config, ranks):
    return spmd(ranks, lambda comm: Solver(comm, config, IC).br_solver.tiled)


def test_deck_keeps_the_arrival_order():
    """The deck's 16² sheet on one rank: a strip is a whole mesh row,
    and tiles list no fewer candidates."""
    assert _tiled(deck_config(), 1) == [False]


def test_cutoff_r2_ranks_take_the_spatial_order():
    """``cutoff_r2``'s 2-rank blocks, 32 × 64 each, as tiles."""
    assert _tiled(cutoff_r2_config(), 2) == [True, True]


def test_a_cutoff_past_the_diagonal_keeps_the_arrival_order():
    """Every chunk pair is listed in either order: a tie."""
    assert _tiled(cutoff_r2_config(cutoff=20.0), 2) == [False, False]


@pytest.mark.parametrize("ranks", [1, 2])
def test_one_search_and_one_sum_per_evaluation(monkeypatch, ranks):
    """Two ``chunk_pairs`` calls per owned block for the decision (once
    per process), then one per evaluation; one ``br_allpairs`` call per
    evaluation."""
    br_cutoff._tiles_list_fewer.cache_clear()
    searches, sums = [], []
    real_search = br_cutoff.chunk_pairs
    monkeypatch.setattr(br_cutoff, "chunk_pairs",
                        lambda *a, **k: searches.append(1) or real_search(*a, **k))
    backend = get_backend("blocked")
    real_sum = type(backend).br_allpairs
    monkeypatch.setattr(type(backend), "br_allpairs",
                        lambda self, *a, **k: sums.append(1) or real_sum(self, *a, **k))
    evaluations = 3

    def program(comm):
        solver = Solver(comm, cutoff_r2_config(num_nodes=(32, 32)), IC)
        z = solver.pm.z.own
        omega = np.cos(7.0 * z + 1.0)
        for _ in range(evaluations):
            solver.br_solver.compute_velocities(z, omega)

    spmd(ranks, program)
    spmd(ranks, program)
    assert len(searches) == ranks * (2 + 2 * evaluations)
    assert len(sums) == ranks * 2 * evaluations


def test_a_resumed_run_replays_the_run(tmp_path):
    """The order depends on the mesh alone, so a run resumed from a
    checkpoint is bitwise the uninterrupted run."""
    config = cutoff_r2_config(num_nodes=(32, 32))
    path = str(tmp_path / "ck.npz")

    def program(comm, resume):
        solver = Solver(comm, config, IC)
        if resume:
            solver.run(2)
            solver.save_checkpoint(path)
            comm.barrier()
            solver = Solver.from_checkpoint(comm, config, path, IC)
        solver.run(4 - solver.step_count)
        return solver.pm.z.own.copy(), solver.br_solver.tiled

    straight = spmd(2, program, False)
    resumed = spmd(2, program, True)
    for (z, tiled), (z_resumed, tiled_resumed) in zip(straight, resumed):
        assert tiled and tiled_resumed
        assert np.array_equal(z, z_resumed)
