"""Child process of the e2e benchmark: one pass of one workload.

``bench.py`` starts this script in a fresh interpreter per pass so that
``ru_maxrss`` is the workload's own and nothing leaks between passes::

    python child.py <mode> <inputs.json> <out.json>

Modes: ``setup`` (do the workload's set-up, stamp "ready", exit),
``timed`` (end-to-end pass, tracing off), ``traced`` (per-layer pass:
an untraced and a traced half plus outside probes), ``reference``
(plain 1-rank runs that produce ``reference.json`` entries).

Everything is measured from outside the program: this file only times
calls into public functions of ``repro`` and reads what its public
telemetry exposes.  All clocks are ``time.perf_counter`` (CLOCK_MONOTONIC
on Linux, shared with the parent, which is how ``setup_s`` spans the
process boundary).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Optional

import numpy as np

from repro import mpi
from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    Coordinator,
    SocketEndpoint,
    longest_job_first,
)
from repro.campaign.deck import build_config
from repro.core import InitialCondition, Solver

import probes
from workloads import reap, tail

WORKER_EXIT_GRACE = 15.0


def plain(value: Any) -> Any:
    """JSON-able copy (numpy scalars -> Python numbers)."""
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def low_quartile(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=4)[0]


def versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


# -- solver workloads ---------------------------------------------------------


def solver_objects(inp: dict[str, Any]):
    return build_config(inp["config"]), InitialCondition(**inp["ic"])


def solver_pass(
    inp: dict[str, Any],
    steps: int,
    *,
    ranks: Optional[int] = None,
    trace: Optional[mpi.CommTrace] = None,
    rank_probe=None,
) -> dict[str, Any]:
    """Build, warm up, then time ``steps`` steps on every rank.

    ``wall_s`` runs from the first rank leaving the start barrier to the
    last rank finishing its last step; a step's latency is its slowest
    rank (the ranks synchronize inside every step).
    """
    config, ic = solver_objects(inp)

    def program(comm):
        t0 = time.perf_counter()
        solver = Solver(comm, config, ic)
        build_s = time.perf_counter() - t0
        for _ in range(inp["warmup"]):
            solver.step()
        comm.barrier()
        stamps = [time.perf_counter()]
        for _ in range(steps):
            solver.step()
            stamps.append(time.perf_counter())
        probe = rank_probe(solver, ic) if rank_probe is not None else None
        return {
            "build_s": build_s, "stamps": stamps, "probe": probe,
            "diagnostics": plain(solver.diagnostics()),
        }

    per_rank = mpi.run_spmd(
        ranks or inp["ranks"], program, trace=trace, timeout=600.0
    )
    stamps = np.array([r["stamps"] for r in per_rank])
    return {
        "wall_s": float(stamps[:, -1].max() - stamps[:, 0].min()),
        "unit_ms": (1e3 * np.diff(stamps, axis=1).max(axis=0)).tolist(),
        "build_ms": 1e3 * max(r["build_s"] for r in per_rank),
        "step_stamps": stamps.tolist(),
        "probes": [r["probe"] for r in per_rank],
        "diagnostics": per_rank[0]["diagnostics"],
        "steps_total": steps + inp["warmup"],
    }


def solver_setup(inp: dict[str, Any], workdir: str) -> None:
    config, ic = solver_objects(inp)
    mpi.run_spmd(inp["ranks"], lambda comm: Solver(comm, config, ic) and None)


def solver_timed(inp: dict[str, Any], workdir: str) -> dict[str, Any]:
    run = solver_pass(inp, inp["steps"])
    return {
        "wall_s": run["wall_s"], "unit_ms": run["unit_ms"],
        "attempted": inp["steps"], "failed": 0,
        "checks": {"workload": {
            "steps": run["steps_total"], "diagnostics": run["diagnostics"],
        }},
        "rss_children_mb": [],
    }


def solver_traced(inp: dict[str, Any], workdir: str) -> dict[str, Any]:
    half = max(2, inp["steps"] // 2)
    untraced = solver_pass(inp, half)
    trace = mpi.CommTrace()
    traced = solver_pass(inp, half, trace=trace, rank_probe=probes.in_rank)
    layer, spans = probes.solver_ledger(trace, traced, half)
    # Lower quartiles, not walls: the two halves run seconds apart and
    # the host's slow spells would otherwise swamp a few-percent effect.
    layer["telemetry.overhead_frac"] = (
        low_quartile(traced["unit_ms"]) / low_quartile(untraced["unit_ms"]) - 1.0
    )
    layer["core.solver_build_ms"] = untraced["build_ms"]
    step_tail, pct = tail(untraced["unit_ms"])
    layer["core.step_ms_tail"] = step_tail
    layer.update(probes.merge_rank_probes(traced["probes"]))
    layer["scenarios.registry_load_ms"] = probes.registry_load_ms()
    if inp["ranks"] > 1:
        layer.update(probes.mpi_probes(traced["probes"][0]["owned_bytes"]))
        one = solver_pass(dict(inp, warmup=1), 10, ranks=1)
        layer["mpi.strong_eff_r2"] = low_quartile(one["unit_ms"]) / (
            inp["ranks"] * low_quartile(untraced["unit_ms"])
        )
    allpairs = traced["probes"][0].get("allpairs")
    if allpairs is not None:
        layer["backend.numpy_over_blocked"] = probes.numpy_over_blocked(**allpairs)
    return {
        "layer": layer, "spans": spans,
        "notes": {
            "timed_steps": half, "tail_percentile": pct,
            "unit_samples": len(untraced["unit_ms"]),
            "untraced_wall_s": untraced["wall_s"],
            "traced_wall_s": traced["wall_s"],
        },
        "attempted": 2 * half, "failed": 0,
        # Tracing must not change the physics: both halves ran the same
        # steps, so their diagnostics must agree.
        "checks": {"workload": {
            "steps": traced["steps_total"],
            "diagnostics": traced["diagnostics"],
            "twin": untraced["diagnostics"],
        }},
        "rss_children_mb": [],
    }


def solver_reference(inp: dict[str, Any], workdir: str) -> dict[str, Any]:
    run = solver_pass(inp, inp["steps"], ranks=1)
    return {"items": {"workload": {
        "steps": run["steps_total"], "diagnostics": run["diagnostics"],
    }}}


# -- campaign workloads -------------------------------------------------------


def campaign_setup(inp: dict[str, Any], workdir: str):
    """Load + expand the deck, open the (empty) store, order the queue
    and build the dispatcher; for the service also bind the endpoint."""
    deck = CampaignDeck.from_file(os.path.join(workdir, "deck.json"))
    specs = deck.expand()
    # A store of this process's own: set-ups that run after the timed
    # pass must open an empty store too.
    store = CampaignStore(
        deck.name, root=os.path.join(workdir, f"store.{os.getpid()}")
    )
    store.completed_hashes()
    if inp["dispatch"] == "service":
        endpoint = SocketEndpoint()
        return specs, store, Coordinator(store, specs, endpoint)
    longest_job_first(specs)
    return specs, store, CampaignExecutor(store, max_workers=inp["workers"])


def serve_with_workers(inp, store, coordinator) -> tuple[dict, list[float]]:
    """``Coordinator.serve()`` plus N ``rocketrig campaign --worker``
    subprocesses; returns (summary, per-worker peak RSS in MB)."""
    host, port = coordinator.endpoint.address
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli.rocketrig", "--quiet",
             "campaign", "--worker", "--connect", f"{host}:{port}",
             "--results-dir", store.base_root, "--worker-id", f"w{i}"],
            stdout=subprocess.DEVNULL,
        )
        for i in range(inp["workers"])
    ]
    rss: list[float] = []
    reapers = [
        threading.Thread(target=lambda w=w: rss.append(reap(w))) for w in workers
    ]
    for reaper in reapers:
        reaper.start()
    box: dict[str, Any] = {}
    server = threading.Thread(
        target=lambda: box.update(summary=coordinator.serve()), daemon=True
    )
    server.start()
    try:
        # serve() never returns once every worker has died: watch for that.
        while server.is_alive():
            server.join(0.25)
            if not any(r.is_alive() for r in reapers):
                server.join(WORKER_EXIT_GRACE)
                break
    finally:
        for worker, reaper in zip(workers, reapers):
            reaper.join(WORKER_EXIT_GRACE)
            if reaper.is_alive():
                worker.kill()
                reaper.join()
    if "summary" not in box:
        raise RuntimeError(
            "service workers exited before the coordinator finished "
            f"(exit codes {[w.returncode for w in workers]})"
        )
    return box["summary"], rss


def warm_up(specs, inp, workdir: str) -> None:
    """Run the first exact and first cutoff spec serially on a scratch
    store, so the main store is still empty when the clock starts."""
    scratch = CampaignStore("warmup", root=os.path.join(workdir, "scratch"))
    kinds: dict[str, Any] = {}
    for spec in specs:
        kinds.setdefault(spec.config.br_solver, spec)
    CampaignExecutor(scratch, worker_type="serial").submit(
        list(kinds.values())[: inp["warmup"]]
    )


def campaign_pass(inp: dict[str, Any], workdir: str) -> dict[str, Any]:
    specs, store, dispatcher = campaign_setup(inp, workdir)
    warm_up(specs, inp, workdir)
    requeued, worker_rss = 0, []
    t0 = time.perf_counter()
    if inp["dispatch"] == "service":
        summary, worker_rss = serve_with_workers(inp, store, dispatcher)
        requeued = summary["requeued"]
    else:
        dispatcher.submit(specs)
    wall = time.perf_counter() - t0
    t_end_epoch = time.time()

    latest = store.latest_records()
    runs, docs, pool_ms = {}, {}, []
    for spec in specs:
        run_hash = spec.run_hash()
        record = latest.get(run_hash)
        telemetry = docs[run_hash] = store.load_telemetry(run_hash) or {}
        in_fleet = "fleet_size" in telemetry
        result = store.load_result(run_hash) or {}
        runs[run_hash] = {
            "status": record.status if record else "missing",
            "elapsed": record.elapsed if record else 0.0,
            "ended_epoch": record.timestamp if record else 0.0,
            "fleet": in_fleet,
            "steps": spec.steps,
            "diagnostics": result.get("diagnostics"),
        }
        if record is not None and record.status == "completed" and not in_fleet:
            # Fleet-absorbed runs carry the fleet's elapsed, not their own.
            pool_ms.append(1e3 * record.elapsed)
    failed = sum(r["status"] != "completed" for r in runs.values()) + requeued
    return {
        "wall_s": wall, "unit_ms": pool_ms, "runs": runs, "requeued": requeued,
        "attempted": len(specs), "failed": failed,
        "rss_children_mb": worker_rss, "t0": t0, "t_end_epoch": t_end_epoch,
        "specs": specs, "store": store, "dispatcher": dispatcher,
        "telemetry": docs,
    }


def campaign_timed(inp: dict[str, Any], workdir: str) -> dict[str, Any]:
    run = campaign_pass(inp, workdir)
    return {
        "wall_s": run["wall_s"], "unit_ms": run["unit_ms"],
        "attempted": run["attempted"], "failed": run["failed"],
        "checks": run["runs"], "rss_children_mb": run["rss_children_mb"],
    }


def campaign_traced(inp: dict[str, Any], workdir: str) -> dict[str, Any]:
    # `CampaignExecutor(telemetry=True)` is the program's default, so the
    # traced pass *is* the timed pass; the layer numbers are read back
    # from the store, telemetry.json and the executor's metrics registry.
    run = campaign_pass(inp, workdir)
    layer, spans = probes.campaign_ledger(inp, run)
    layer.update(probes.campaign_probes(inp, run, workdir))
    layer["scenarios.registry_load_ms"] = probes.registry_load_ms()
    run_tail, pct = tail(run["unit_ms"])
    layer["campaign.run_ms_tail"] = run_tail
    return {
        "layer": layer, "spans": spans,
        "notes": {"tail_percentile": pct, "unit_samples": len(run["unit_ms"]),
                  "traced_wall_s": run["wall_s"]},
        "attempted": run["attempted"], "failed": run["failed"],
        "checks": run["runs"], "rss_children_mb": run["rss_children_mb"],
    }


def campaign_reference(inp: dict[str, Any], workdir: str) -> dict[str, Any]:
    """Every deck point as a plain 1-rank `Solver` run: no executor, no
    fleet, no store — the reference the dispatch paths are checked against."""
    deck = CampaignDeck.from_file(os.path.join(workdir, "deck.json"))
    items = {}
    for spec in deck.expand():
        def program(comm, spec=spec):
            solver = Solver(comm, spec.config, spec.ic)
            solver.run(spec.steps)
            return plain(solver.diagnostics())
        items[spec.run_hash()] = {
            "steps": spec.steps, "diagnostics": mpi.run_spmd(1, program)[0],
        }
    return {"items": items}


# -- entry --------------------------------------------------------------------

MODES = {
    ("solver", "setup"): solver_setup,
    ("solver", "timed"): solver_timed,
    ("solver", "traced"): solver_traced,
    ("solver", "reference"): solver_reference,
    ("campaign", "setup"): campaign_setup,
    ("campaign", "timed"): campaign_timed,
    ("campaign", "traced"): campaign_traced,
    ("campaign", "reference"): campaign_reference,
}


def main(argv: list[str]) -> int:
    mode, inputs_path, out_path = argv
    with open(inputs_path, "r", encoding="utf-8") as fh:
        inp = json.load(fh)
    workdir = os.path.dirname(os.path.abspath(inputs_path))
    result = MODES[(inp["kind"], mode)](inp, workdir)
    ready = time.perf_counter()
    if mode == "setup":
        result = {"ready": ready}
    result["versions"] = versions()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(plain(result), fh)
    return 0


# The service workers and the process pool are spawn-context: without
# this guard an imported copy of the script would re-run the workload.
if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
