"""Scenario library as data: validated packs + a workload registry.

The paper's benchmark cases (single-mode rollup, multi-mode spectra,
localized sech²/gaussian bumps, Atwood/CFL families) live here as
*data*, not code: each file under the repo's ``scenarios/`` directory
is a JSON/TOML *scenario pack* — geometry + SolverConfig fields +
InitialCondition + provenance citing its source figure/section —
validated by :mod:`repro.scenarios.loader` and enumerated by
:mod:`repro.scenarios.registry`.

Every surface that names a workload resolves it here:

* ``rocketrig --scenario <name>`` / ``--list-scenarios``,
* the campaign deck's ``scenario`` axis (packs sweep like backends;
  expansion resolves them into ordinary content-hashed RunSpecs, so
  store dedup and LJF scheduling are untouched),
* the campaign fast path's fleets (eligibility is
  :func:`repro.batch.fleet_key` of the resolved pack),
* the ``examples/`` scripts and the generated docs gallery.

Typical use::

    from repro.scenarios import get_scenario, iter_scenarios

    print([s.name for s in iter_scenarios(family="multi_mode")])
    scenario = get_scenario("singlemode-rollup")
    config, ic = scenario.solver_config(), scenario.initial_condition()

Authoring guide: ``docs/scenarios.md``.  Validation CLI:
``python -m repro.scenarios.validate``; gallery generator:
``python -m repro.scenarios.gallery``.
"""

from repro.scenarios.loader import (
    PACK_SUFFIXES,
    Scenario,
    ScenarioPackError,
    load_pack,
)
from repro.scenarios.registry import (
    get_scenario,
    iter_scenarios,
    load_registry,
    pack_roots,
    scenario_families,
)

__all__ = [
    "PACK_SUFFIXES",
    "Scenario",
    "ScenarioPackError",
    "get_scenario",
    "iter_scenarios",
    "load_pack",
    "load_registry",
    "pack_roots",
    "scenario_families",
]
