"""The cutoff solver's Verlet-skin spatial-structure cache.

Pins the two properties the cache lives or dies by:

* **parity** — a run with ``skin > 0`` produces the same trajectory as
  the rebuild-every-evaluation baseline, on every registered backend:
  narrowing the inflated chunk lists against the current boxes
  recovers exactly the lists a fresh search builds while no point has
  moved more than ``skin / 2``, so on one rank the two runs are equal
  bit for bit, and on more (where the cache ships ghosts at
  ``cutoff + skin``, so the chunks differ) to 1e-12;
* **amortization** — structures actually get reused (and collectively
  rebuilt when the displacement invariant breaks or ``rebuild_freq``
  forces it), visible both in the solver's counters and as the
  ``neighbor_cache`` trace phase.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import mpi
from repro.backend import available_backends
from repro.core import InitialCondition, Solver, SolverConfig
from repro.core.br_cutoff import _BOX_SKINS
from repro.core.diagnostics import gather_global_state
from repro.spatial.neighbors import brute_force_lists, chunk_pairs, narrow_pairs
from repro.util.errors import ConfigurationError
from tests.conftest import spmd

RTOL = 1e-12


def _config(**overrides):
    base = dict(
        num_nodes=(16, 16),
        low=(-np.pi, -np.pi), high=(np.pi, np.pi),
        order="high", br_solver="cutoff",
        cutoff=1.5, dt=0.004, eps=0.1,
    )
    base.update(overrides)
    return SolverConfig(**base)


IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)


def _run(config, steps=4, ranks=2, ic=IC, trace=None):
    def program(comm):
        solver = Solver(comm, config, ic)
        solver.run(steps)
        return solver.diagnostics(), solver.neighbor_cache_stats()

    return spmd(ranks, program, trace=trace)[0]


def assert_diag_match(got, want, context=""):
    for key in ("amplitude", "vorticity_norm", "time", "steps"):
        assert got[key] == pytest.approx(want[key], rel=RTOL), (
            f"{context}: {key}"
        )


class TestNarrowPairs:
    """narrow_pairs recovers a fresh search's chunk list after small motion."""

    def _moved(self, rng, pts, skin):
        # Every point moves strictly less than skin/2.
        step = rng.uniform(-1, 1, size=pts.shape) * (0.45 * skin / 2) / np.sqrt(3)
        return pts + step

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_matches_fresh_search_within_skin(self, rng, symmetric):
        pts = rng.uniform(-1.0, 1.0, size=(300, 3))
        src = pts if symmetric else rng.uniform(-1.0, 1.0, size=(170, 3))
        cutoff, skin = 0.4, 0.1
        built = chunk_pairs(pts, src, cutoff + _BOX_SKINS * skin,
                            symmetric=symmetric)
        moved = self._moved(rng, pts, skin)
        moved_src = moved if symmetric else self._moved(rng, src, skin)
        fresh = chunk_pairs(moved, moved_src, cutoff, symmetric=symmetric)
        narrowed = narrow_pairs(built, moved, moved_src, cutoff)
        assert np.array_equal(narrowed.pairs, fresh.pairs)
        assert narrowed.candidates() == fresh.candidates()

    def test_keeps_every_pair_within_the_cutoff(self, rng):
        # A mesh-ordered sheet, so chunk boxes are strips and narrowing
        # drops pairs (the boxes of a random cloud all overlap).
        i, j = np.divmod(np.arange(200), 20)
        pts = np.stack([0.1 * i, 0.1 * j, 0.02 * rng.normal(size=200)], axis=1)
        built = chunk_pairs(pts, pts, 0.7, symmetric=True)
        narrowed = narrow_pairs(built, pts, pts, 0.3)
        offsets, indices = brute_force_lists(pts, pts, 0.3)
        targets = np.repeat(np.arange(200), np.diff(offsets))
        needed = np.sort(np.stack([targets, indices], axis=1) // 16, axis=1)
        assert {tuple(p) for p in needed.tolist()} <= {
            tuple(p) for p in narrowed.pairs.tolist()
        }
        assert len(narrowed.pairs) < len(built.pairs)

    def test_narrow_at_build_radius_is_identity(self, rng):
        pts = rng.uniform(-1.0, 1.0, size=(80, 3))
        lists = chunk_pairs(pts, pts, 0.6, symmetric=True)
        assert np.array_equal(narrow_pairs(lists, pts, pts, 0.6).pairs,
                              lists.pairs)


class TestCacheParity:
    """skin > 0 matches skin = 0 across backends: bitwise on one rank,
    to 1e-12 on more."""

    @pytest.mark.parametrize("backend", available_backends())
    def test_one_rank_cached_run_is_bitwise_uncached(self, backend):
        def state(skin):
            def program(comm):
                solver = Solver(comm, _config(backend=backend, skin=skin), IC)
                solver.run(4)
                return gather_global_state(solver.pm), solver.neighbor_cache_stats()

            return spmd(1, program)[0]

        (z, w), _ = state(0.0)
        (z_cached, w_cached), stats = state(0.4)
        assert stats["reuses"] > 0
        assert np.array_equal(z_cached, z) and np.array_equal(w_cached, w)

    @pytest.mark.parametrize("backend", available_backends())
    def test_solver_trajectory_matches_uncached(self, backend):
        base, _ = _run(_config(backend=backend))
        cached, stats = _run(_config(backend=backend, skin=0.4))
        assert stats["reuses"] > 0, "cache never reused — test is vacuous"
        assert_diag_match(cached, base, f"{backend}: skin=0.4 vs skin=0")

    def test_rollup_run_parity(self):
        """A deforming single-mode run (the paper's load-imbalance
        workload) crosses the displacement threshold: the cache must
        rebuild mid-run and still track the baseline."""
        ic = InitialCondition(kind="single_mode", magnitude=0.2)
        cfg = _config(dt=0.02, cutoff=1.2)
        base, _ = _run(cfg, steps=8, ic=ic)
        cached, stats = _run(replace(cfg, skin=0.005), steps=8, ic=ic)
        assert stats["rebuilds"] > 1, "displacement never forced a rebuild"
        assert stats["reuses"] > 0
        assert_diag_match(cached, base, "rollup")

    def test_parity_on_more_ranks(self):
        base, _ = _run(_config(), ranks=4)
        cached, stats = _run(_config(skin=0.4), ranks=4)
        assert stats["reuses"] > 0
        assert_diag_match(cached, base, "4 ranks")


class TestCachePolicy:
    def test_skin_zero_disables_caching(self):
        _, stats = _run(_config(), steps=3)
        # Every evaluation (3 per RK3 step) is a build, none a reuse.
        assert stats == {"rebuilds": 9, "reuses": 0}

    def test_small_skin_rebuilds_on_displacement(self):
        _, stats = _run(_config(skin=1e-9), steps=3)
        assert stats["rebuilds"] > 1
        assert stats["rebuilds"] + stats["reuses"] == 9

    def test_rebuild_freq_forces_periodic_rebuilds(self):
        # Huge skin: displacement never triggers; rebuild_freq=2 gives
        # the exact build/reuse/reuse cadence.
        _, stats = _run(_config(skin=5.0, rebuild_freq=2), steps=4)
        assert stats == {"rebuilds": 4, "reuses": 8}

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="skin"):
            _config(skin=-0.1)
        with pytest.raises(ConfigurationError, match="rebuild_freq"):
            _config(rebuild_freq=-1)

    def test_stats_absent_without_cutoff_solver(self):
        def program(comm):
            solver = Solver(
                comm, SolverConfig(num_nodes=(8, 8), order="low", dt=0.002),
                InitialCondition(kind="flat"),
            )
            return solver.neighbor_cache_stats()

        assert spmd(1, program)[0] is None


class TestCacheTrace:
    def test_neighbor_cache_phase_recorded(self):
        trace = mpi.CommTrace()
        _, stats = _run(_config(skin=0.4), steps=2, trace=trace)
        assert "neighbor_cache" in trace.phases()
        totals = trace.compute_totals(phase="neighbor_cache")
        # Every evaluation checks displacement and narrows the lists.
        assert "max_displacement" in totals
        assert "neighbor_filter" in totals
        # Search events only on rebuild evaluations.
        searches = trace.compute_totals(phase="neighbor")["neighbor_search"]
        assert searches["count"] == 2 * stats["rebuilds"]  # 2 ranks

    def test_uncached_run_has_no_cache_phase(self):
        trace = mpi.CommTrace()
        _run(_config(), steps=1, trace=trace)
        assert "neighbor_cache" not in trace.phases()


class TestCampaignSkinAxis:
    def test_deck_sweeps_skin(self, tmp_path):
        from repro.campaign import CampaignDeck, CampaignExecutor, CampaignStore

        deck = CampaignDeck.from_dict({
            "name": "skin_axis",
            "mode": "functional",
            "steps": 2,
            "base": {
                "num_nodes": [12, 12], "order": "high", "br_solver": "cutoff",
                "cutoff": 1.5, "dt": 0.004, "eps": 0.1,
            },
            "ic": {"kind": "multi_mode", "magnitude": 0.05, "period": 3},
            "grid": {"skin": [0.0, 0.4]},
        })
        specs = deck.expand()
        assert [s.config.skin for s in specs] == [0.0, 0.4]
        assert len({s.run_hash() for s in specs}) == 2

        store = CampaignStore(deck.name, root=str(tmp_path))
        outcomes = CampaignExecutor(store, max_workers=2).submit(specs)
        assert all(o.status == "completed" for o in outcomes)
        amps = [o.result["diagnostics"]["amplitude"] for o in outcomes]
        assert amps[0] == pytest.approx(amps[1], rel=1e-10)

    def test_skin_lowers_modeled_cutoff_cost(self):
        """The machine model sees the amortization: a cached cutoff run
        costs less than the rebuild-every-evaluation baseline."""
        from repro.campaign import RunSpec, estimate_cost

        def spec(skin):
            return RunSpec(
                config=_config(num_nodes=(512, 512), skin=skin),
                ic=IC, ranks=64, steps=10,
            )

        cached, uncached = estimate_cost(spec(0.3)), estimate_cost(spec(0.0))
        assert cached < uncached
        from repro.campaign.scheduler import evaluation_model

        model = evaluation_model(spec(0.3))
        assert "neighbor_cache" in model.phases
        assert evaluation_model(spec(0.0)).phases.keys().isdisjoint(
            {"neighbor_cache"}
        )
