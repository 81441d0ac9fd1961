"""Dense blocked panels take r² from one GEMM on panel-centred points.

``BlockedBackend.br_allpairs`` puts each scenario's targets in compact
Morton panels and forms r² as ``[t′ |t′|² 1]·[−2s′; 1; |s′|²]`` with
both sides centred on the target panel's centroid (point 1 of the
:mod:`repro.backend.blocked` docstring).  Its rounding error grows with
``|t′|² + |s′|²`` against ``r² + ε²``, so these tests probe where that
is largest — near pairs far below ε, a whole sheet, points far from the
origin — against the numpy engine, which keeps the difference form.
Thread-count and stack independence stay bitwise.
"""

import os

import numpy as np
import pytest

from repro import mpi
from repro.backend import get_backend
from repro.core import InitialCondition, ProblemManager, SurfaceMesh
from repro.core import apply_initial_condition
from repro.core.kernels import br_velocity_allpairs


def max_normalised(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def planted_cloud(seed, n=600):
    """``n`` points in [−1.5, 1.5]³ with five pairs planted 1e-6 to 1e-2
    apart (points 0-1, 2-3, ...), and their vorticity."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(n, 3))
    for k, gap in enumerate(np.geomspace(1e-6, 1e-2, 5)):
        step = rng.normal(size=3)
        pts[2 * k + 1] = pts[2 * k] + step * (gap / np.linalg.norm(step))
    return pts, rng.normal(size=(n, 3))


def sheet(n=64):
    """A multi-mode ``n × n`` sheet on [−π, π]² as ``(n², 3)`` points and a
    smooth vorticity field."""

    def program(comm):
        mesh = SurfaceMesh(comm, (-np.pi, -np.pi), (np.pi, np.pi), (n, n),
                           (True, True))
        pm = ProblemManager(mesh)
        apply_initial_condition(
            pm, InitialCondition(kind="multi_mode", magnitude=0.05, period=3)
        )
        x, y = np.broadcast_arrays(*mesh.owned_coordinates())
        om = np.stack([np.cos(x) * np.sin(y), -np.sin(x) * np.cos(y),
                       0.1 * np.cos(x)], axis=-1)
        return pm.z.own.reshape(-1, 3).copy(), om.reshape(-1, 3)

    return mpi.run_spmd(1, program)[0]


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("seed", range(20))
def test_planted_near_pairs_match_numpy(seed, symmetric):
    """Pairs far inside ε (ε = 0.05) are where the expansion's absolute
    error weighs most; each draw stays within 1e-12 of the reference."""
    pts, om = planted_cloud(seed)
    ref = br_velocity_allpairs(pts, pts, om, 0.05, 0.2, backend="numpy")
    got = br_velocity_allpairs(pts, pts, om, 0.05, 0.2, backend="blocked",
                               symmetric=symmetric)
    assert max_normalised(got, ref) <= 1e-12


def test_sheet_matches_the_difference_form():
    """The exact solver's own-block call on a 64² sheet (16 panels)."""
    pts, om = sheet()
    ref = br_velocity_allpairs(pts, pts, om, 0.05, 0.1, backend="numpy")
    got = br_velocity_allpairs(pts, pts, om, 0.05, 0.1, backend="blocked",
                               symmetric=True)
    assert max_normalised(got, ref) <= 1e-13


@pytest.mark.parametrize("symmetric", [True, False])
def test_translation_moves_the_result_by_round_off(symmetric):
    """Panel centring makes r² independent of where the sheet sits: a
    shift by (1e3, −1e3, 0) changes the velocities by round-off only."""
    pts, om = sheet(48)
    here = br_velocity_allpairs(pts, pts, om, 0.05, 0.1, backend="blocked",
                                symmetric=symmetric)
    moved = pts + np.array([1e3, -1e3, 0.0])
    there = br_velocity_allpairs(moved, moved, om, 0.05, 0.1,
                                 backend="blocked", symmetric=symmetric)
    assert max_normalised(there, here) <= 1e-12


def test_centring_is_per_panel_not_per_call():
    """Two sheets 30 apart in one call: each panel lies in one of them
    (48² = 9 panels each), so r² is measured next to its points.  Centred
    on the call's centroid, half-way between the sheets, the expansion
    would round to ``ε_mach·|x|²`` with ``|x|² ≈ 225`` — 2.4e-12 here."""
    pts, om = sheet(48)
    both = np.concatenate([pts, pts + np.array([30.0, 0.0, 0.0])])
    om = np.concatenate([om, -om])
    ref = br_velocity_allpairs(both, both, om, 0.02, 0.1, backend="numpy")
    got = br_velocity_allpairs(both, both, om, 0.02, 0.1, backend="blocked",
                               symmetric=True)
    assert max_normalised(got, ref) <= 1e-12


def test_coincident_pairs_inside_the_band_weigh_zero():
    """Duplicates the call is not told about (distinct indices of a
    non-symmetric call) are measured again from differences and
    dropped: finite at ε = 0, and the reference's sum at ε = 0.05."""
    pts, om = planted_cloud(3, 700)
    tgt = np.concatenate([pts[::3], pts[1::3]])
    bare = br_velocity_allpairs(tgt, pts, om, 0.0, 0.2, backend="blocked")
    assert np.all(np.isfinite(bare))
    ref = br_velocity_allpairs(tgt, pts, om, 0.05, 0.2, backend="numpy")
    got = br_velocity_allpairs(tgt, pts, om, 0.05, 0.2, backend="blocked")
    assert max_normalised(got, ref) <= 1e-12


@pytest.fixture
def cpus():
    """``cpus(n)``: run this thread on the first ``n`` CPUs of its
    affinity mask (the blocked kernel sizes its panel pool from it);
    the mask is restored afterwards."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity API on this OS")
    mask = sorted(os.sched_getaffinity(0))

    def pin(n):
        if len(mask) < n:
            pytest.skip(f"needs {n} CPUs, has {len(mask)}")
        os.sched_setaffinity(0, mask[:n])

    yield pin
    os.sched_setaffinity(0, mask)


def stacked_and_alone(cpus, n):
    """On ``n`` CPUs: a stack of five 600-point scenarios (own ε each),
    symmetric then against shifted sources, and each scenario alone."""
    cpus(n)
    bk = get_backend("blocked")
    clouds = [planted_cloud(seed) for seed in range(5)]
    pts = np.stack([c[0] for c in clouds])
    om = np.stack([c[1] for c in clouds])
    eps2 = np.array([0.0025, 0.0004, 0.01, 0.0025, 0.0009])
    pref = np.full(5, 0.2)
    shifted = pts + np.array([6.28, 0.0, 0.0])
    stacked = np.zeros_like(pts)
    bk.br_allpairs(pts, pts, om, eps2, pref, stacked, symmetric=True)
    bk.br_allpairs(pts, shifted, om, eps2, pref, stacked)
    alone = np.zeros_like(pts)
    for k in range(5):
        one = slice(k, k + 1)
        bk.br_allpairs(pts[one], pts[one], om[one], eps2[one], pref[one],
                       alone[one], symmetric=True)
        bk.br_allpairs(pts[one], shifted[one], om[one], eps2[one],
                       pref[one], alone[one])
    return stacked, alone


@pytest.mark.parametrize("n", [1, 2])
def test_solo_and_stacked_bits_at_one_and_two_cpus(cpus, n):
    """A stack equals each scenario alone, bit for bit, and on two CPUs
    (a panel pool) the bits are the one-CPU bits."""
    stacked, alone = stacked_and_alone(cpus, n)
    assert np.array_equal(stacked, alone)
    if n > 1:
        assert np.array_equal(stacked, stacked_and_alone(cpus, 1)[0])
