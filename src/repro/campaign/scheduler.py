"""Cost-aware campaign scheduling (longest-job-first / LPT).

Every run's wall time is estimated from the same machine model the
benchmark harness uses (:mod:`repro.machine.patterns`): the modeled
time of one timestep at the run's order/solver/scale, times the step
count.  For functional runs at laptop scale the absolute number is not
the wall clock, but the *relative* ordering it induces (exact ≫ cutoff ≫
low; big meshes ≫ small) is what longest-job-first needs to keep the
worker pool from ending on one long straggler — the classic LPT
approximation to minimum makespan.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.campaign.deck import RunSpec
from repro.machine.model import LASSEN, MachineSpec
from repro.machine.patterns import (
    DEFAULT_REUSE_INTERVAL,
    cutoff_evaluation,
    exact_evaluation,
    low_order_evaluation,
    step_time,
    tree_evaluation,
)
from repro.util.errors import ConfigurationError

__all__ = [
    "evaluation_model",
    "estimate_cost",
    "longest_job_first",
    "modeled_costs",
    "lpt_makespan",
    "makespan_estimate",
]


def evaluation_model(spec: RunSpec, machine: MachineSpec = LASSEN):
    """The analytic :class:`EvaluationModel` matching a spec's solver.

    Single source of the order/BR-solver → pattern dispatch: both the
    scheduler's cost estimates and the executor's model-mode runs use
    this, so scheduling order always reflects what model runs compute.
    """
    cfg = spec.config
    shape = tuple(cfg.num_nodes)
    if cfg.order == "low":
        return low_order_evaluation(spec.ranks, shape, machine, cfg.fft_config)
    if cfg.br_solver == "cutoff":
        extent = (cfg.high[0] - cfg.low[0], cfg.high[1] - cfg.low[1])
        # A deck's rebuild_freq caps how long cached structures may be
        # reused, so it also caps the modeled amortization.
        interval = DEFAULT_REUSE_INTERVAL
        if cfg.rebuild_freq > 0:
            interval = min(interval, float(cfg.rebuild_freq + 1))
        return cutoff_evaluation(
            spec.ranks, shape, machine, cutoff=cfg.cutoff, domain_extent=extent,
            skin=cfg.skin, reuse_interval=interval,
        )
    if cfg.br_solver == "tree":
        return tree_evaluation(
            spec.ranks, shape, machine,
            theta=cfg.theta, leaf_size=cfg.leaf_size,
        )
    return exact_evaluation(spec.ranks, shape, machine)


def estimate_cost(spec: RunSpec, machine: MachineSpec = LASSEN) -> float:
    """Modeled seconds for one run (step model × steps)."""
    return spec.steps * step_time(evaluation_model(spec, machine))


def longest_job_first(
    specs: Sequence[RunSpec], machine: MachineSpec = LASSEN
) -> list[RunSpec]:
    """Stable longest-job-first ordering (ties keep submission order)."""
    indexed = list(enumerate(specs))
    indexed.sort(key=lambda item: (-estimate_cost(item[1], machine), item[0]))
    return [spec for _, spec in indexed]


def modeled_costs(
    specs: Mapping[str, RunSpec], machine: MachineSpec = LASSEN
) -> dict[str, float]:
    """Run hash → modeled seconds for a batch keyed by run hash, in
    longest-job-first order (ties keep batch order).

    One model evaluation per run: the dispatchers call this once per
    batch, iterate it for the queue order and keep it for every later
    ETA, so a campaign costs O(n) evaluations however often its status
    is rendered.
    """
    costs = {h: estimate_cost(spec, machine) for h, spec in specs.items()}
    return {h: costs[h] for h in sorted(costs, key=costs.get, reverse=True)}


def lpt_makespan(costs: Iterable[float], workers: int) -> float:
    """Greedy-LPT makespan of jobs with the given costs: longest first,
    each to the least-loaded worker."""
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    loads = [0.0] * workers
    for cost in sorted(costs, reverse=True):
        loads[loads.index(min(loads))] += cost
    return max(loads)


def makespan_estimate(
    specs: Sequence[RunSpec],
    workers: int,
    machine: MachineSpec = LASSEN,
) -> float:
    """Greedy-LPT makespan of ``specs`` on the machine model."""
    return lpt_makespan(
        [estimate_cost(spec, machine) for spec in specs], workers
    )
