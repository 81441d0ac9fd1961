"""ScenarioFleet: solo-vs-fleet parity, lifecycle, eligibility, metrics."""

import numpy as np
import pytest

from repro.batch import ScenarioFleet, fleet_key
from repro.core import InitialCondition, Solver, SolverConfig
from repro.mpi.trace import CommTrace
from repro.util.errors import ConfigurationError
from tests.conftest import ENGINES, spmd

TOL = 1e-12

#: Every order/boundary/BR combination the fleet claims to support,
#: exercised at 16x16 so the suite stays fast.
CASES = {
    "low": dict(order="low"),
    "medium": dict(order="medium"),
    "high": dict(order="high"),
    "high_images": dict(order="high", br_images=True),
    "high_free": dict(order="high", periodic=(False, False)),
    "high_mixed": dict(order="high", periodic=(True, False)),
    "low_viscous": dict(order="low", mu=0.01),
}


def config(**overrides):
    base = dict(num_nodes=(16, 16), dt=0.002, eps=0.1)
    base.update(overrides)
    return SolverConfig(**base)


def ic(seed=7):
    return InitialCondition(kind="multi_mode", magnitude=0.05, period=3,
                            seed=seed)


def solo_run(cfg, initial, steps, backend=None):
    """(diagnostics, z_own, w_own) after a solo single-rank Solver run."""

    def program(comm):
        solver = Solver(comm, cfg, initial, backend=backend)
        solver.run(steps)
        return (
            solver.diagnostics(),
            solver.pm.z.own.copy(),
            solver.pm.w.own.copy(),
        )

    return spmd(1, program)[0]


class TestSoloFleetParity:
    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_probe_matches_solo(self, backend, case):
        """A fleet-stepped scenario matches its solo run to 1e-12, even
        sharing the batch with decoys of different physics."""
        cfg = config(**CASES[case])
        fleet = ScenarioFleet(cfg, retain_state=True, backend=backend)
        sid = fleet.add(cfg, ic(), 3)
        # Decoys: different Atwood/dt/IC so cross-scenario leakage
        # through the stacked arrays would show up in the probe.
        fleet.add(config(atwood=0.8, **CASES[case]), ic(seed=11), 3)
        fleet.add(config(dt=0.001, **CASES[case]), ic(seed=13), 5)
        results = fleet.run()

        diag, z_solo, w_solo = solo_run(cfg, ic(), 3, backend)
        got = results[sid]
        assert np.max(np.abs(got["z"] - z_solo)) <= TOL
        assert np.max(np.abs(got["w"] - w_solo)) <= TOL
        for key, val in diag.items():
            assert abs(got["diagnostics"][key] - val) <= TOL

    def test_decoys_match_their_own_solo_runs(self):
        """Every member of a mixed fleet is correct, not just the probe."""
        cfgs = [config(atwood=a, order="medium") for a in (0.2, 0.5, 0.9)]
        fleet = ScenarioFleet(cfgs[0], retain_state=True)
        sids = fleet.add_many([(c, ic(seed=i), 3) for i, c in enumerate(cfgs)])
        results = fleet.run()
        for i, (c, sid) in enumerate(zip(cfgs, sids)):
            _, z_solo, w_solo = solo_run(c, ic(seed=i), 3)
            assert np.max(np.abs(results[sid]["z"] - z_solo)) <= TOL
            assert np.max(np.abs(results[sid]["w"] - w_solo)) <= TOL


class TestLifecycle:
    def test_mixed_step_targets_compact_out(self):
        """Short scenarios finish and compact out while the straggler
        keeps stepping; everyone still matches its solo run."""
        fleet = ScenarioFleet(config(), retain_state=True)
        targets = [2, 6, 4, 0]
        sids = fleet.add_many(
            [(config(), ic(seed=i), t) for i, t in enumerate(targets)]
        )
        finished_order = []
        fleet.run(on_finish=lambda sid, _res: finished_order.append(sid))
        assert sorted(finished_order) == sorted(sids)
        # Zero-step scenario finishes before any stepping happens.
        assert finished_order[0] == sids[3]
        assert fleet.size == 0
        assert fleet.fleet_steps == max(targets)
        for i, (sid, t) in enumerate(zip(sids, targets)):
            diag = fleet.results[sid]["diagnostics"]
            assert diag["steps"] == float(t)
            _, z_solo, w_solo = solo_run(config(), ic(seed=i), t)
            assert np.max(np.abs(fleet.results[sid]["z"] - z_solo)) <= TOL
            assert np.max(np.abs(fleet.results[sid]["w"] - w_solo)) <= TOL

    def test_empty_fleet_cannot_step(self):
        fleet = ScenarioFleet(config())
        with pytest.raises(ConfigurationError, match="empty"):
            fleet.step()
        assert fleet.run() == {}

    def test_add_rejects_key_mismatch_and_negative_steps(self):
        fleet = ScenarioFleet(config())
        with pytest.raises(ConfigurationError, match="fleet key"):
            fleet.add(config(num_nodes=(32, 32)), ic(), 2)
        with pytest.raises(ConfigurationError, match="fleet key"):
            fleet.add(config(order="high"), ic(), 2)
        with pytest.raises(ConfigurationError, match="steps"):
            fleet.add(config(), ic(), -1)
        assert fleet.size == 0  # failed adds leave no partial state


class TestFleetKey:
    def test_groups_by_geometry_not_physics(self):
        base = config()
        assert fleet_key(base) is not None
        # Physics/numerics knobs do not split fleets...
        for overrides in (
            dict(atwood=0.9), dict(gravity=5.0), dict(mu=0.02),
            dict(dt=0.0005), dict(eps=0.2), dict(fft_config=7),
        ):
            assert fleet_key(config(**overrides)) == fleet_key(base)
        # ...geometry/order do.
        for overrides in (
            dict(num_nodes=(32, 32)), dict(order="high"),
            dict(high=(12.0, 12.0)),
        ):
            assert fleet_key(config(**overrides)) != fleet_key(base)

    def test_ineligible_configs_return_none(self):
        # Approximate BR solvers are not batched.
        assert fleet_key(config(order="high", br_solver="tree")) is None
        assert fleet_key(config(order="high", br_solver="cutoff")) is None
        # Order/boundary combinations the solver itself rejects.
        assert fleet_key(config(order="low", periodic=(False, True))) is None
        assert fleet_key(config(order="medium", periodic=(False, False))) is None
        # Periodic images need periodicity.
        assert fleet_key(
            config(order="high", br_images=True, periodic=(False, False))
        ) is None

    def test_fleet_constructor_rejects_ineligible_template(self):
        with pytest.raises(ConfigurationError, match="fleet-eligible"):
            ScenarioFleet(config(order="high", br_solver="tree"))


class TestTelemetry:
    def test_counters_spans_and_gauge(self):
        trace = CommTrace()
        fleet = ScenarioFleet(config(order="medium"), trace=trace)
        fleet.add_many([(config(order="medium"), ic(seed=i), 3)
                        for i in range(4)])
        snap = trace.metrics.snapshot()
        assert snap["batch.scenarios_active"] == 4.0
        fleet.run()
        snap = trace.metrics.snapshot()
        assert snap["batch.steps"] == 3.0
        assert snap["batch.scenario_steps"] == 12.0
        assert snap["batch.scenarios_completed"] == 4.0
        assert snap["batch.scenarios_active"] == 0.0
        # The solver's own phase spans: every lockstep phase left timed
        # spans behind (medium order exercises halo, stencil, FFT, BR and
        # integrate).
        span_phases = {span.phase for span in fleet.trace.spans}
        for expected in ("halo", "stencil", "fft", "br_ring", "integrate"):
            assert expected in span_phases, (expected, sorted(span_phases))
