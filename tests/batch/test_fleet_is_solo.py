"""Every fleet member is bitwise its own solo run.

A :class:`~repro.batch.ScenarioFleet` steps its members with the solver's
own halo, FFT, Birkhoff-Rott, Z-Model and RK3 code, and every backend
kernel computes a member of a stack exactly as a stack of one.  So each
member's final owned ``z`` / ``w`` must be ``np.array_equal`` — not
merely close — to the same scenario run alone through a one-rank
:class:`~repro.core.solver.Solver`, whatever its siblings' physics.
"""

import numpy as np
import pytest

from repro.batch import ScenarioFleet
from repro.core import InitialCondition, Solver, SolverConfig
from tests.conftest import spmd

#: One case per engine x order x boundary x viscosity x images corner;
#: ``backend`` is the engine the fleet and the solo run are built on.
CASES = {
    "high_periodic_blocked": dict(order="high", backend="blocked"),
    "high_free_blocked": dict(order="high", backend="blocked",
                              periodic=(False, False)),
    "high_xperiodic_numpy": dict(order="high", backend="numpy",
                                 periodic=(True, False)),
    "high_free_viscous_numpy": dict(order="high", backend="numpy",
                                    periodic=(False, False), mu=0.01),
    "high_images_blocked": dict(order="high", backend="blocked",
                                br_images=True),
    "low_blocked": dict(order="low", backend="blocked"),
    "low_viscous_blocked": dict(order="low", backend="blocked", mu=0.02),
    "medium_numpy": dict(order="medium", backend="numpy"),
}

MEMBERS = 5
STEPS = 3


def member(k, nodes, case):
    """Member ``k``: its own Atwood number, ε factor (so ε and dt
    differ too) and initial perturbation."""
    overrides = {f: v for f, v in CASES[case].items() if f != "backend"}
    config = SolverConfig(num_nodes=(nodes, nodes), atwood=0.3 + 0.05 * k,
                          eps_factor=0.5 + 0.25 * k, **overrides)
    ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=3, seed=k)
    return config, ic


def solo(config, ic, backend):
    def program(comm):
        solver = Solver(comm, config, ic, backend=backend)
        solver.run(STEPS)
        return solver.pm.z.own.copy(), solver.pm.w.own.copy()

    return spmd(1, program)[0]


@pytest.mark.parametrize("nodes", [8, 16])
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_member_equals_its_solo_run(case, nodes):
    backend = CASES[case]["backend"]
    members = [member(k, nodes, case) for k in range(MEMBERS)]
    fleet = ScenarioFleet(members[0][0], retain_state=True, backend=backend)
    ids = fleet.add_many([(c, ic, STEPS) for c, ic in members])
    results = fleet.run()
    for k, (sid, (config, ic)) in enumerate(zip(ids, members)):
        z, w = solo(config, ic, backend)
        assert np.array_equal(results[sid]["z"], z), k
        assert np.array_equal(results[sid]["w"], w), k
