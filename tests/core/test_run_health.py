"""Run-health guard: a diverged run fails loudly and is never memoized.

``Solver.step`` checks each rank's owned state after every step (finite
``z`` and ``w``, ``max|z₃|`` under :meth:`SolverConfig.amplitude_bound`)
and raises :class:`RunDivergedError` naming step, field and rank.  A
fleet checks each member and fails only that member; the campaign
records the run ``failed`` and a resubmission runs it again.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import mpi
from repro.batch import ScenarioFleet
from repro.campaign import CampaignDeck, CampaignExecutor, CampaignStore
from repro.cli.rocketrig import main
from repro.core import InitialCondition, Solver, SolverConfig
from repro.core import solver as solver_module
from repro.core.solver import check_health
from repro.util.errors import RunDivergedError

IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)
#: 16×16 low order on [-π, π]² at dt = 5: max|z₃| passes the bound
#: 10 · 2π ≈ 62.8 within a few steps.
DIVERGING = SolverConfig(
    num_nodes=(16, 16), low=(-np.pi, -np.pi), high=(np.pi, np.pi), dt=5.0
)


def solo_divergence(config):
    """(error, steps the solver had taken) of a one-rank solo run."""
    solvers = []

    def program(comm):
        solvers.append(Solver(comm, config, IC))
        solvers[0].run(300)

    with pytest.raises(RunDivergedError) as info:
        mpi.run_spmd(1, program)
    return info.value, solvers[0].step_count


class TestCheckHealth:
    def test_bound_is_ten_lateral_extents(self):
        assert SolverConfig().amplitude_bound() == 20.0
        config = SolverConfig(low=(0.0, -1.0), high=(3.0, 1.0))
        assert config.amplitude_bound() == 30.0

    @pytest.mark.parametrize("field", ["z", "w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_named(self, field, bad):
        z, w = np.zeros((4, 4, 3)), np.zeros((4, 4, 2))
        (z if field == "z" else w)[1, 2, 0] = bad
        err, = check_health(z, w, 1.0, step=7, rank=3)
        assert isinstance(err, RunDivergedError)
        assert (err.step, err.field, err.rank) == (7, field, 3)
        assert "step 7" in str(err) and "not finite" in str(err)

    def test_amplitude_bound(self):
        z, w = np.zeros((4, 4, 3)), np.zeros((4, 4, 2))
        z[..., 2] = 0.99
        assert check_health(z, w, 1.0, step=1) == [None]
        z[0, 0, 2] = -1.0
        err, = check_health(z, w, 1.0, step=1)
        assert "amplitude 1 >= bound 1" in str(err)

    def test_stack_reports_each_member(self):
        z, w = np.zeros((3, 4, 4, 3)), np.zeros((3, 4, 4, 2))
        w[1, 0, 0, 1] = np.nan
        z[2, ..., 2] = 2.0
        ok, bad_w, high = check_health(z, w, 1.0, step=np.array([4, 5, 6]))
        assert ok is None
        assert (bad_w.step, bad_w.field) == (5, "w")
        assert (high.step, high.field) == (6, "z") and "amplitude 2" in str(high)


class TestSolver:
    def test_diverging_run_raises_after_the_step(self):
        err, taken = solo_divergence(DIVERGING)
        assert err.field == "z" and err.rank == 0
        assert 1 <= err.step == taken < 300

    def test_one_rank_raising_aborts_the_others(self):
        """Only the rank that sees the blow-up raises; the SPMD abort
        path tears its peer down and re-raises the original error."""
        def program(comm):
            solver = Solver(comm, SolverConfig(num_nodes=(16, 16), order="low"), IC)
            if comm.rank == 1:
                solver.pm.w.own[0, 0, 0] = np.nan
            solver.run(3)

        with pytest.raises(RunDivergedError) as info:
            mpi.run_spmd(2, program, timeout=30.0)
        assert info.value.rank in (0, 1) and info.value.step == 1

    def test_check_adds_no_communication(self, monkeypatch):
        config = SolverConfig(num_nodes=(16, 16), order="high", eps=0.1,
                              br_solver="cutoff", dt=0.002)

        def events(check):
            monkeypatch.setattr(solver_module, "check_health", check)
            trace = mpi.CommTrace()
            mpi.run_spmd(2, lambda comm: Solver(comm, config, IC).run(2),
                         trace=trace)
            return sorted((e.rank, e.kind, e.nbytes) for e in trace.events)

        assert events(check_health) == events(lambda *a, **k: [None])


class TestFleet:
    def test_only_the_diverged_member_fails(self):
        healthy = replace(DIVERGING, dt=0.002)
        fleet = ScenarioFleet(healthy)
        ok = fleet.add_many([(healthy, IC, 3), (replace(healthy, atwood=0.3), IC, 3)])
        bad = fleet.add(DIVERGING, IC, 3)
        results = fleet.run()
        err = results[bad]["error"]
        assert isinstance(err, RunDivergedError)
        solo, _ = solo_divergence(DIVERGING)
        assert (err.step, err.field) == (solo.step, solo.field)
        for sid in ok:
            assert results[sid]["diagnostics"]["steps"] == 3.0


def deck(**base):
    return CampaignDeck.from_dict({
        "name": "health", "mode": "functional", "steps": 3,
        "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002,
                 "low": [-np.pi, -np.pi], "high": [np.pi, np.pi], **base},
        "ic": {"kind": "multi_mode", "magnitude": 0.05, "period": 3},
        "grid": {"atwood": [0.1, 0.3, 0.5, 0.7]},
    }).expand()


class TestCampaign:
    @pytest.mark.parametrize(
        "healthy", [{}, {"num_nodes": [12, 12]}],
        ids=["fleet", "solo"],     # four runs share a fleet, or 3 + 1
    )
    def test_diverged_run_recorded_failed_and_retried(self, tmp_path, healthy):
        specs = deck(**healthy)[:3] + deck(dt=5.0)[:1]
        store = CampaignStore("health", root=str(tmp_path))

        def submit():
            return CampaignExecutor(
                store, max_workers=1, telemetry=False,
                status_interval=0.0,
            ).submit(specs)

        outcomes = {o.run_hash: o for o in submit()}
        bad = outcomes[specs[-1].run_hash()]
        assert bad.status == "failed"
        assert "RunDivergedError: run diverged at step" in bad.error
        assert "z amplitude" in bad.error
        assert store.latest_records()[bad.run_hash].status == "failed"
        assert sum(o.status == "completed" for o in outcomes.values()) == 3
        again = {o.run_hash: o for o in submit()}
        assert again[bad.run_hash].status == "failed"
        assert not again[bad.run_hash].skipped

    def test_cli_exits_non_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--nodes", "16", "--steps", "300", "--dt", "5"])
        assert "run diverged at step 1: z amplitude" in str(info.value.code)
        assert capsys.readouterr().out == ""
