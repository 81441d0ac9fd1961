"""Cost-aware campaign scheduling (longest-job-first / LPT).

Every run's wall time is estimated from the same machine model the
benchmark harness uses (:mod:`repro.machine.patterns`): the modeled
time of one timestep at the run's order/solver/scale, times the step
count.  For functional runs at laptop scale the absolute number is not
the wall clock, but the *relative* ordering it induces (exact ≫ cutoff ≫
low; big meshes ≫ small) is what longest-job-first needs to keep the
worker pool from ending on one long straggler — the classic LPT
approximation to minimum makespan.  :func:`plan_runs` turns a batch
into the items a dispatcher runs in that order: one run, or one fleet.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.batch import fleet_key
from repro.campaign.deck import RunSpec
from repro.campaign.store import COMPLETED, RunRecord
from repro.core.solver import NUMERICS_VERSION
from repro.machine.model import LASSEN, MachineSpec
from repro.machine.patterns import (
    cutoff_evaluation,
    exact_evaluation,
    low_order_evaluation,
    step_time,
    tree_evaluation,
)
from repro.util.errors import ConfigurationError

__all__ = [
    "RunPlan",
    "evaluation_model",
    "estimate_cost",
    "lease_id",
    "longest_job_first",
    "modeled_costs",
    "lpt_makespan",
    "makespan_estimate",
    "plan_runs",
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
        return cutoff_evaluation(
            spec.ranks, shape, machine, cutoff=cfg.cutoff, domain_extent=extent,
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


@dataclass
class RunPlan:
    """A batch resolved against its store by :func:`plan_runs`."""

    unique: dict[str, RunSpec]          # every distinct spec, by hash
    hits: dict[str, RunRecord]          # store hits: hash → completed record
    stale: dict[str, int]               # re-runs: hash → old numerics stamp
    costs: dict[str, float]             # runs to execute, longest first
    items: list[tuple[RunSpec, ...]]    # one run or one fleet, LJF order


#: Same-shape serial functional runs that make a fleet item.
FLEET_MIN = 4


def plan_runs(
    specs: Sequence[RunSpec],
    store,
    machine: MachineSpec = LASSEN,
    *,
    checkpoint_freq: int = 0,
) -> RunPlan:
    """Dedup, store hits, longest-job-first order and fleets of a batch.

    A hash whose latest record is completed is a hit (a model result
    only for the machine it was costed on); one stamped with another
    :data:`~repro.core.solver.NUMERICS_VERSION` is *stale* and runs
    again.  Serial functional runs
    sharing a :func:`repro.batch.fleet_key` — with no checkpointing and
    no checkpoint on disk — become one item once :data:`FLEET_MIN` of
    them group, ordered by their summed cost.  One model evaluation per
    run.
    """
    unique: dict[str, RunSpec] = {}
    for spec in specs:
        unique.setdefault(spec.run_hash(), spec)
    latest = store.latest_records() if unique else {}
    hits: dict[str, RunRecord] = {}
    stale: dict[str, int] = {}
    to_run: dict[str, RunSpec] = {}
    for run_hash, spec in unique.items():
        record = latest.get(run_hash)
        if record is not None and record.status == COMPLETED:
            if record.numerics != NUMERICS_VERSION:
                stale[run_hash] = record.numerics
            elif spec.mode != "model" or record.result.get("machine") in (
                None, machine.name
            ):
                hits[run_hash] = record
                continue
        to_run[run_hash] = spec
    costs = modeled_costs(to_run, machine)
    groups: dict[Any, list[RunSpec]] = {}
    for run_hash, spec in ((h, to_run[h]) for h in costs):
        key = (
            spec.mode == "functional" and spec.ranks == 1
            and checkpoint_freq == 0
            and not os.path.exists(store.checkpoint_path(run_hash))
            and fleet_key(spec.config)
        )
        groups.setdefault(key or run_hash, []).append(spec)
    items: list[tuple[RunSpec, ...]] = []
    for group in groups.values():
        if len(group) >= FLEET_MIN:
            items.append(tuple(group))
        else:
            items.extend((spec,) for spec in group)
    slot = {run_hash: i for i, run_hash in enumerate(costs)}
    items.sort(key=lambda item: (
        -sum(costs[spec.run_hash()] for spec in item), slot[item[0].run_hash()]
    ))
    return RunPlan(unique, hits, stale, costs, items)


def lease_id(item: Sequence[RunSpec]) -> str:
    """The ``run_hash`` a lease item travels under: the run's own hash,
    or for a fleet a digest of its members' hashes."""
    if len(item) == 1:
        return item[0].run_hash()
    joined = ",".join(spec.run_hash() for spec in item)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]
