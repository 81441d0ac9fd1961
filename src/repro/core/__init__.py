"""Beatnik core: the Z-Model solver stack (the paper's contribution).

Module map (paper §2/§3 names → here):

* ``Solver`` / ``SolverConfig`` — driver-facing entry point.
* ``SurfaceMesh`` — distributed 2D interface mesh.
* ``ProblemManager`` — shared z/γ state + halo management.
* ``BoundaryCondition`` — periodic ghost correction / free extrapolation.
* ``ZModel`` (+ ``Order``, ``ZModelParameters``) — low/medium/high-order
  derivatives.
* ``ExactBRSolver`` / ``CutoffBRSolver`` / ``TreeBRSolver`` —
  Birkhoff-Rott far-field solvers (ring pass / migrate-halo-neighbor
  pipeline / Barnes-Hut tree code).
* ``TimeIntegrator`` — TVD-RK3.
* ``SiloWriter`` — visualization dumps.
* ``InitialCondition`` — rocket-rig problem setups.

Every piece indexes the grid axes from the right: a rank's block is one
``(ni, nj, c)`` array, and on one rank the same objects step a
``(B, ni, nj, c)`` stack of same-grid scenarios (per-scenario Z-Model
parameters, ε and dt as arrays) — which is all
:class:`repro.batch.ScenarioFleet` does, through
:func:`repro.core.solver.build_integrator`.
"""

from repro.core.boundary import BoundaryCondition, BoundaryType
from repro.core.br_cutoff import CutoffBRSolver
from repro.core.br_exact import ExactBRSolver
from repro.core.br_tree import TreeBRSolver
from repro.core.diagnostics import (
    OwnershipStats,
    fit_growth_rate,
    gather_global_state,
    ownership_stats,
    rt_dispersion_sigma,
    vorticity_magnitude,
)
from repro.core.initial_conditions import (
    InitialCondition,
    apply_initial_condition,
    available_ic_kinds,
)
from repro.core.problem_manager import ProblemManager
from repro.core.silo_writer import SiloWriter
from repro.core.solver import Solver, SolverConfig, available_br_solvers
from repro.core.surface_mesh import SurfaceMesh
from repro.core.time_integrator import TimeIntegrator
from repro.core.zmodel import Order, ZModel, ZModelParameters

__all__ = [
    "BoundaryCondition",
    "BoundaryType",
    "CutoffBRSolver",
    "ExactBRSolver",
    "TreeBRSolver",
    "available_br_solvers",
    "OwnershipStats",
    "fit_growth_rate",
    "gather_global_state",
    "ownership_stats",
    "rt_dispersion_sigma",
    "vorticity_magnitude",
    "InitialCondition",
    "apply_initial_condition",
    "available_ic_kinds",
    "ProblemManager",
    "SiloWriter",
    "Solver",
    "SolverConfig",
    "SurfaceMesh",
    "TimeIntegrator",
    "Order",
    "ZModel",
    "ZModelParameters",
]
