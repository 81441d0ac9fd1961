"""Figures 6/7 — particles owned by each of 256 ranks, early vs late.

The paper runs the single-mode, non-periodic, high-order problem
(512² mesh, cutoff 0.5) and plots the spatial-ownership distribution
over 256 ranks at timestep 80 (flat: every rank ≈ 0.4 % of points) and
timestep 340 (skewed by rollup: 0.2 %–0.65 %).

Reproduction: the physics runs at laptop scale (48² mesh, exact BR
solver for speed — the ownership distribution depends only on the
evolved *positions*), and the evolved surface is decomposed over a
16×16 = 256-block spatial mesh exactly as the cutoff solver would.
Claims checked:

* early distribution ≈ uniform (every rank near 1/256 ≈ 0.39 %);
* late distribution visibly skewed: spread and imbalance strictly
  larger, fraction range widening toward the paper's [0.2 %, 0.65 %].

The measured late imbalance is saved and consumed by the Figure 8
strong-scaling model (bench_fig8_cutoff_strong.py).
"""

import numpy as np

from repro import mpi
from repro.core import InitialCondition, Solver, SolverConfig, ownership_stats
from repro.spatial import SpatialMesh

from common import print_series, save_results

MESH_N = 48
RANKS_PLOTTED = 256          # paper plots 256 ranks
EARLY_STEPS = 8
LATE_STEPS = 60


def _run_physics():
    """Evolve the single-mode rocket rig to rollup; return snapshots."""
    cfg = SolverConfig(
        num_nodes=(MESH_N, MESH_N), low=(-1, -1), high=(1, 1),
        periodic=(False, False), order="high", br_solver="exact",
        atwood=0.5, gravity=25.0, dt=0.01, eps=0.08,
        bernoulli=1.0, mu=0.0,
    )
    ic = InitialCondition(kind="single_mode", magnitude=0.12, period=0.5)

    def program(comm):
        solver = Solver(comm, cfg, ic)
        solver.run(EARLY_STEPS)
        early = solver.pm.z.own.reshape(-1, 3).copy()
        solver.run(LATE_STEPS - EARLY_STEPS)
        late = solver.pm.z.own.reshape(-1, 3).copy()
        return early, late, solver.diagnostics()["amplitude"]

    return mpi.run_spmd(1, program, timeout=600.0)[0]


def _ownership(positions: np.ndarray) -> np.ndarray:
    # The spatial mesh covers exactly the surface's horizontal footprint,
    # as the paper's input decks do; 256 blocks ≙ the paper's 256 ranks.
    mesh = SpatialMesh((-1.0, -1.0, -1.5), (1.0, 1.0, 1.5), (16, 16))
    owners = mesh.owner_of(positions)
    return np.bincount(owners, minlength=RANKS_PLOTTED)


def test_fig6_fig7_ownership_distributions(benchmark):
    early_pos, late_pos, amplitude = _run_physics()
    early = ownership_stats(_ownership(early_pos))
    late = ownership_stats(_ownership(late_pos))

    rows = [
        ["fig6 (early)", EARLY_STEPS, f"{early.fractions.min():.4%}",
         f"{early.fractions.max():.4%}", f"{early.imbalance:.3f}"],
        ["fig7 (late)", LATE_STEPS, f"{late.fractions.min():.4%}",
         f"{late.fractions.max():.4%}", f"{late.imbalance:.3f}"],
    ]
    print_series(
        "Figures 6/7: spatial ownership over 256 blocks (single-mode rollup)",
        ["figure", "step", "min fraction", "max fraction", "max/mean"],
        rows,
    )
    print(f"interface amplitude at late time: {amplitude:.4f}")
    save_results(
        "fig67_load_imbalance",
        {
            "early_counts": early.counts.tolist(),
            "late_counts": late.counts.tolist(),
            "early_imbalance": early.imbalance,
            "late_imbalance": late.imbalance,
            "early_spread": early.spread,
            "late_spread": late.spread,
            "mesh": MESH_N,
            "steps": [EARLY_STEPS, LATE_STEPS],
        },
    )

    # Paper claims: early is near-uniform, late is visibly skewed.
    assert early.total == late.total == MESH_N * MESH_N
    assert late.spread > early.spread
    assert late.imbalance > early.imbalance
    assert late.imbalance > 1.15          # visible rollup skew
    # Late max fraction exceeds the uniform share substantially
    uniform = 1.0 / RANKS_PLOTTED
    assert late.fractions.max() > 1.2 * uniform

    benchmark.extra_info["early_imbalance"] = early.imbalance
    benchmark.extra_info["late_imbalance"] = late.imbalance
    benchmark(lambda: _ownership(late_pos))


def test_rollup_grows_monotonically(benchmark):
    """Ownership spread increases through the run (not just at the ends)."""
    cfg = SolverConfig(
        num_nodes=(32, 32), low=(-1, -1), high=(1, 1),
        periodic=(False, False), order="high", br_solver="exact",
        atwood=0.5, gravity=25.0, dt=0.015, eps=0.08,
    )
    ic = InitialCondition(kind="single_mode", magnitude=0.12, period=0.5)

    def program(comm):
        solver = Solver(comm, cfg, ic)
        spreads = []
        for _ in range(4):
            solver.run(15)
            counts = _ownership(solver.pm.z.own.reshape(-1, 3))
            spreads.append(ownership_stats(counts).spread)
        return spreads

    spreads = mpi.run_spmd(1, program, timeout=600.0)[0]
    print("\nownership spread over time:", [f"{s:.5f}" for s in spreads])
    assert spreads == sorted(spreads)      # monotone skew growth
    assert spreads[-1] > spreads[0]
    benchmark(lambda: ownership_stats(_ownership(np.random.default_rng(0).uniform(-1, 1, (1024, 3)))))
