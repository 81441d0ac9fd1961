"""The rocket-rig driver program (paper §4).

The command-line analogue of Beatnik's ``rocketrig`` driver: builds a
:class:`~repro.core.SolverConfig` from flags mirroring the C++ driver's
options (initial condition, magnitude, period, model order, BR solver,
cutoff, boundary conditions, ...), runs the simulation on N simulated
ranks, and optionally writes VTK dumps and a communication-trace
summary.

Examples::

    rocketrig --nodes 64 --order low --ic multi_mode --steps 20
    rocketrig --nodes 32 --order high --br-solver cutoff --cutoff 0.8 \\
              --free-boundaries --ic single_mode --magnitude 0.12 \\
              --steps 30 --ranks 4 --outdir results/rig
    rocketrig --nodes 128 --order high --br-solver tree --theta 0.5 \\
              --free-boundaries --steps 10 --trace

Named workloads come from the scenario registry (:mod:`repro.scenarios`):
``--scenario <name>`` loads a validated pack — paper-sourced geometry,
solver parameters and initial condition — and any explicitly-passed
flag still overrides the pack field it names, also when it repeats the
flag's default.  ``--list-scenarios`` prints the registry with
provenance::

    rocketrig --scenario singlemode-rollup --outdir results/rig
    rocketrig --scenario multimode-periodic --steps 5
    rocketrig --list-scenarios

Batch campaigns (``rocketrig campaign``) run a whole sweep deck through
the :mod:`repro.campaign` subsystem: runs are leased in
longest-job-first order to ``--workers`` local worker processes (true
CPU parallelism; a worker that dies has its run requeued on a
replacement — ``--workers 1`` runs everything in this process instead),
results land in the persistent store under
``results/campaigns/<name>/`` (``REPRO_RESULTS_DIR`` overrides the
root), re-invocations skip every already-completed run ("store hit"
lines), and interrupted runs resume from their checkpoint::

    rocketrig campaign decks/fig9.json --workers 4 --checkpoint-freq 5
    rocketrig campaign decks/fig9.json --workers 1
    rocketrig campaign decks/fig9.json --report config.fft_config ranks \\
              result.step_time

Service mode detaches the campaign from a single process tree: a
coordinator (``--serve``) owns the queue and leases runs to pull-based
workers (``--worker``) that others start, over the same protocol a
local campaign speaks to its own workers, reclaiming and requeueing
the runs of any worker that vanishes mid-job (see
:mod:`repro.campaign.service` and ``docs/service.md``)::

    rocketrig campaign decks/fig9.json --serve --port 7777
    rocketrig campaign --worker --connect 127.0.0.1:7777
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from repro import mpi
from repro.core import (
    InitialCondition,
    SiloWriter,
    Solver,
    SolverConfig,
    available_br_solvers,
    available_ic_kinds,
    ownership_stats,
)
from repro.machine import LASSEN, replay_trace
from repro.util.errors import ReproError, RunDivergedError

__all__ = [
    "main",
    "build_parser",
    "run_from_args",
    "run_campaign_from_args",
    "run_service_from_args",
]

#: Initial-condition kinds, shared by the parser choices and the help
#: epilog so the two cannot drift apart.
IC_CHOICES = tuple(available_ic_kinds())

#: Every flag a scenario pack can also set, with the value a run without
#: ``--scenario`` takes when the flag is not passed.  These flags parse
#: to None when absent, so a passed flag is one that is not None — also
#: when it repeats the value here — and it overrides the pack field it
#: names.
_FLAG_DEFAULTS = {
    "nodes": 64,
    "extent": 2 * np.pi,
    "free_boundaries": False,
    "order": "low",
    "br_solver": "exact",
    "cutoff": 0.5,
    "theta": 0.5,
    "leaf_size": 32,
    "atwood": 0.5,
    "gravity": 10.0,
    "mu": 0.0,
    "epsilon": None,
    "dt": None,
    "br_images": False,
    "fft_config": 7,
    "ic": "multi_mode",
    "magnitude": 0.05,
    "period": 4.0,
    "seed": 12345,
    "steps": 10,
    "ranks": 1,
}

#: Flag dest → SolverConfig field, for flags that map one-to-one.
_CONFIG_FLAG_FIELDS = {
    "order": "order",
    "br_solver": "br_solver",
    "cutoff": "cutoff",
    "theta": "theta",
    "leaf_size": "leaf_size",
    "atwood": "atwood",
    "gravity": "gravity",
    "mu": "mu",
    "epsilon": "eps",
    "dt": "dt",
    "br_images": "br_images",
    "fft_config": "fft_config",
}

#: Flag dest → InitialCondition field.
_IC_FLAG_FIELDS = {
    "ic": "kind",
    "magnitude": "magnitude",
    "period": "period",
    "seed": "seed",
}


def _epilog() -> str:
    """Worked examples for ``--help``, generated from the registries.

    Every flag below exists in the parser (the CLI test suite runs
    these exact lines through ``parse_args``), and the solver list
    comes from the same registry that drives dispatch.
    """
    return f"""\
examples:
  rocketrig --nodes 64 --order low --ic multi_mode --steps 20
  rocketrig --nodes 32 --order high --br-solver cutoff --cutoff 0.8 \\
            --free-boundaries --ic single_mode --magnitude 0.12 \\
            --steps 30 --ranks 4 --outdir results/rig
  rocketrig --nodes 128 --order high --br-solver tree --theta 0.5 \\
            --free-boundaries --ic multi_mode --steps 10 --trace
  rocketrig --nodes 64 --ranks 4 --steps 5 --profile run.trace.json
  rocketrig --scenario singlemode-rollup --outdir results/rig
  rocketrig --scenario multimode-periodic --steps 5
  rocketrig campaign examples/decks/smoke.json --workers 4
  rocketrig campaign examples/decks/smoke.json --workers 1 \\
            --timeout 3600 --collective-timeout 600
  rocketrig campaign examples/decks/scenario_sweep.json --workers 2
  rocketrig campaign examples/decks/service_smoke.json --serve --port 7777 \\
            --lease-timeout 120
  rocketrig campaign --worker --connect 127.0.0.1:7777 --worker-id drone-1
  rocketrig inspect smoke
  rocketrig inspect smoke 908701

initial conditions (--ic): {", ".join(IC_CHOICES)} (default multi_mode)
BR solvers (--br-solver):  {", ".join(available_br_solvers())} (default exact)

Run --list-solvers / --list-scenarios to print the registries and exit.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rocketrig",
        description="Beatnik rocket-rig benchmark driver (Python reproduction)",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--list-solvers", action="store_true",
                        help="print the registered BR solvers and exit")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="print the scenario-pack registry (name, "
                             "family, tags, provenance) and exit")
    parser.add_argument("--scenario", "-s", default=None, metavar="NAME",
                        help="load geometry, solver parameters and initial "
                             "condition from this scenario pack (see "
                             "--list-scenarios); explicitly passed flags "
                             "override the pack fields they name")
    mesh = parser.add_argument_group("mesh")
    mesh.add_argument("--nodes", "-n", type=int,
                      help="surface mesh nodes per dimension (default 64)")
    mesh.add_argument("--extent", type=float,
                      help="domain edge length (default 2π)")
    mesh.add_argument("--free-boundaries", action="store_true", default=None,
                      help="non-periodic boundaries (requires --order high)")

    model = parser.add_argument_group("model")
    model.add_argument("--order", "-o", choices=("low", "medium", "high"),
                       help="Z-Model order (default low)")
    model.add_argument("--br-solver", choices=tuple(available_br_solvers()),
                       help="Birkhoff-Rott solver")
    model.add_argument("--cutoff", "-c", type=float,
                       help="cutoff distance for the cutoff solver")
    model.add_argument("--theta", type=float,
                       help="tree solver multipole-acceptance criterion "
                            "in [0, 1): a node is evaluated through its "
                            "moments when size <= theta * distance "
                            "(0 = exact pair sums; default 0.5)")
    model.add_argument("--leaf-size", type=int,
                       help="tree solver points per quadtree leaf "
                            "(near-field granularity, default 32)")
    model.add_argument("--atwood", "-a", type=float)
    model.add_argument("--gravity", "-g", type=float)
    model.add_argument("--mu", type=float,
                       help="artificial viscosity coefficient")
    model.add_argument("--epsilon", type=float,
                       help="Krasny desingularization length")
    model.add_argument("--dt", type=float,
                       help="timestep (default: CFL-stable)")
    model.add_argument("--br-images", action="store_true", default=None,
                       help="include 3x3 periodic images in the exact solver")

    ic = parser.add_argument_group("initial condition")
    ic.add_argument("--ic", "-I", choices=IC_CHOICES)
    ic.add_argument("--magnitude", "-m", type=float)
    ic.add_argument("--period", "-p", type=float)
    ic.add_argument("--seed", type=int)

    fft = parser.add_argument_group("FFT communication (heFFTe flags)")
    fft.add_argument("--fft-config", type=int, choices=range(8),
                     help="Table-1 configuration index (default 7)")

    run = parser.add_argument_group("run")
    run.add_argument("--steps", "-t", type=int)
    run.add_argument("--ranks", "-r", type=int,
                     help="simulated MPI ranks (default 1)")
    run.add_argument("--outdir", default=None,
                     help="write VTK dumps into this directory")
    run.add_argument("--write-freq", type=int, default=10)
    run.add_argument("--trace", action="store_true",
                     help="print a communication summary and modeled cost")
    run.add_argument("--profile", metavar="PATH", default=None,
                     help="export a Chrome-trace-event (Perfetto) profile "
                          "of the run to PATH (one track per rank, phase "
                          "spans, send/recv flow arrows; open at "
                          "ui.perfetto.dev) and print a model-vs-measured "
                          "per-phase drift table")

    logging_group = parser.add_argument_group("logging")
    logging_group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="campaign logging at DEBUG (repeatable; overrides $REPRO_LOG)")
    logging_group.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="campaign logging at WARNING only (overrides $REPRO_LOG)")

    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    camp = sub.add_parser(
        "campaign",
        help="run a batch sweep deck through the campaign subsystem",
        description="Expand a JSON sweep deck, run it concurrently with "
                    "store-level dedup and checkpoint/resume, and print a "
                    "summary report.",
    )
    camp.add_argument("deck", nargs="?", default=None,
                      help="path to the JSON campaign deck (required except "
                           "in --worker mode)")
    camp.add_argument("--workers", "-w", type=int, default=4,
                      help="concurrent runs: runs are leased to this many "
                           "local worker processes (a worker that dies "
                           "has its run requeued on a replacement); 1 "
                           "runs everything in this process (default 4)")
    camp.add_argument("--results-dir", default=None,
                      help="results tree root (default: $REPRO_RESULTS_DIR "
                           "or ./results)")
    camp.add_argument("--timeout", type=float, default=3600.0,
                      help="per-run wall-clock budget in seconds; an "
                           "over-budget run is recorded as failed (default "
                           "3600, matching the single-run driver). Distinct "
                           "from --collective-timeout, which bounds one "
                           "blocking collective inside a run")
    camp.add_argument("--collective-timeout", type=float, default=None,
                      help="deadline (s) for a single blocking collective in "
                           "the simulated-MPI layer; exceeding it raises "
                           "DeadlockError. Defaults to the --timeout budget, "
                           "so a slow-but-progressing rank whose peers wait "
                           "in a gather is never misdiagnosed as deadlocked")
    camp.add_argument("--checkpoint-freq", type=int, default=0,
                      help="checkpoint functional runs every N steps "
                           "(0 = off)")
    camp.add_argument("--report", nargs="+", default=None, metavar="FIELD",
                      help="dotted record fields to tabulate, e.g. "
                           "config.fft_config ranks result.step_time "
                           "telemetry.phase.fft.wall")
    camp.add_argument("--fsck", type=int, nargs="?", const=0, default=None,
                      metavar="K",
                      help="audit the deck's store instead of running it: "
                           "print its record counts, and with K > 0 re-run "
                           "K completed runs (a fixed-seed draw) and "
                           "compare their state digests; writes nothing "
                           "and exits non-zero on a mismatch")
    camp.add_argument("--status-interval", type=float, default=5.0,
                      metavar="SECONDS",
                      help="heartbeat period for live status: a one-line "
                           "progress summary is logged and status.json is "
                           "rewritten atomically in the campaign root every "
                           "N seconds (0 disables the heartbeat; default 5)")

    service = camp.add_argument_group(
        "service mode (coordinator/worker job protocol)")
    service.add_argument("--serve", action="store_true",
                         help="coordinate instead of executing: own the "
                              "deck's run queue, lease runs to pull-based "
                              "--worker processes over local TCP, and "
                              "reclaim/requeue the runs of workers that "
                              "vanish mid-job (lease expiry)")
    service.add_argument("--worker", action="store_true",
                         help="execute instead of coordinating: connect to "
                              "a --serve coordinator (see --connect), pull "
                              "jobs until none are left, and record results "
                              "into the coordinator's store (no deck "
                              "argument)")
    service.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                         help="--serve: interface to bind "
                              "(default 127.0.0.1)")
    service.add_argument("--port", type=int, default=0,
                         help="--serve: TCP port to bind (default 0 = "
                              "ephemeral; the bound address is printed and "
                              "published as service.address in the "
                              "campaign's status.json)")
    service.add_argument("--connect", default=None, metavar="HOST:PORT",
                         help="--worker: coordinator address, e.g. "
                              "127.0.0.1:7777 (see the coordinator's "
                              "startup line or service.address in its "
                              "status.json)")
    service.add_argument("--lease-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="--serve: wall-clock lease on each granted "
                              "run; a worker silent for this long (3 missed "
                              "heartbeats) is presumed dead and its run is "
                              "requeued (default 60)")
    service.add_argument("--worker-id", default=None,
                         help="--worker: stable identity reported to the "
                              "coordinator (default host-pid)")
    service.add_argument("--idle-timeout", type=float, default=120.0,
                         metavar="SECONDS",
                         help="--worker: exit after waiting this long for a "
                              "coordinator reply (default 120)")

    insp = sub.add_parser(
        "inspect",
        help="explain a campaign, or one of its runs, from its index",
        description="Print a campaign's store audit, slowest runs, repeated "
                    "claims and phase totals, or with a run-hash prefix that "
                    "run's lineage. Reads index.jsonl only.",
    )
    insp.add_argument("campaign", help="campaign (deck) name")
    insp.add_argument("run", nargs="?", default=None, metavar="HASH-PREFIX",
                      help="a unique prefix of one run's hash")
    insp.add_argument("--results-dir", default=None,
                      help="results tree root (default: $REPRO_RESULTS_DIR "
                           "or ./results)")

    return parser


def _overlay(flags: dict, config: dict, ic: dict, run: dict) -> None:
    """Write the config / IC / run fields the given flag values name."""
    for dest, value in flags.items():
        if dest == "nodes":
            config["num_nodes"] = (value, value)
        elif dest == "extent":
            half = value / 2.0
            config["low"] = (-half, -half)
            config["high"] = (half, half)
        elif dest == "free_boundaries":
            config["periodic"] = (not value, not value)
        elif dest in _CONFIG_FLAG_FIELDS:
            config[_CONFIG_FLAG_FIELDS[dest]] = value
        elif dest in _IC_FLAG_FIELDS:
            ic[_IC_FLAG_FIELDS[dest]] = value
        else:
            run[dest] = value


def _run_params(
    args: argparse.Namespace,
) -> tuple[SolverConfig, InitialCondition, int, int]:
    """``(config, ic, steps, ranks)`` of a single run.

    The base is the ``--scenario`` pack's fields, or without one the
    values in :data:`_FLAG_DEFAULTS`; every flag the user passed
    overrides the field it names.  The config is built by
    :func:`~repro.campaign.deck.build_config`, as a deck's is.
    """
    from repro.campaign.deck import build_config

    config: dict = {}
    ic: dict = {}
    run: dict = {}
    if args.scenario:
        from repro.scenarios import get_scenario

        pack = get_scenario(args.scenario)
        config, ic = dict(pack.base), dict(pack.ic)
        run = {"steps": pack.steps, "ranks": pack.ranks}
    else:
        _overlay(_FLAG_DEFAULTS, config, ic, run)
    _overlay(
        {dest: getattr(args, dest) for dest in _FLAG_DEFAULTS
         if getattr(args, dest) is not None},
        config, ic, run,
    )
    return (build_config(config), InitialCondition(**ic), run["steps"],
            run["ranks"])


def run_from_args(args: argparse.Namespace) -> dict:
    try:
        config, ic, steps, ranks = _run_params(args)
    except ReproError as exc:
        raise SystemExit(f"rocketrig: {exc}")
    profile_path = getattr(args, "profile", None)
    trace = mpi.CommTrace() if (args.trace or profile_path) else None
    writer = SiloWriter(args.outdir, "rocketrig") if args.outdir else None

    def program(comm):
        solver = Solver(comm, config, ic)
        solver.run(
            steps,
            writer=writer,
            write_freq=args.write_freq if writer else 0,
        )
        counts = None
        if solver.br_solver is not None and hasattr(
            solver.br_solver, "ownership_counts"
        ):
            counts = solver.br_solver.ownership_counts()
        tree_stats = None
        if solver.br_solver is not None and hasattr(
            solver.br_solver, "interaction_stats"
        ):
            tree_stats = solver.br_solver.interaction_stats()
        return solver.diagnostics(), counts, tree_stats

    try:
        results = mpi.run_spmd(ranks, program, trace=trace, timeout=3600.0)
    except RunDivergedError as exc:
        raise SystemExit(f"rocketrig: {exc}")
    diag, counts, tree_stats = results[0]

    scenario_tag = f"scenario {args.scenario!r}, " if args.scenario else ""
    print(f"rocketrig: {scenario_tag}{config.order}-order, {ranks} ranks, "
          f"{config.num_nodes[0]}x{config.num_nodes[1]} mesh, {steps} steps")
    for key, value in diag.items():
        print(f"  {key:>16}: {value:.6g}")
    if counts is not None:
        stats = ownership_stats(np.asarray(counts))
        print(f"  spatial ownership: {stats.describe()}")
    if tree_stats is not None:
        print(f"  tree (theta {config.theta:g}): "
              f"{tree_stats['far_pairs']} far + "
              f"{tree_stats['near_pairs']} near pairs/rank, "
              f"{tree_stats['nodes']} nodes, depth {tree_stats['depth']}")
    if writer is not None and writer.written:
        print(f"  wrote {len(writer.written)} VTK dumps to {args.outdir}")
    if trace is not None and args.trace:
        replay = replay_trace(trace, LASSEN)
        print(f"  trace: {len(trace.events)} comm events, "
              f"{trace.total_bytes()} bytes shipped")
        for phase, cost in replay.phases.items():
            print(f"    modeled {phase:>12}: comm {cost.comm*1e3:9.3f} ms  "
                  f"compute {cost.compute*1e3:9.3f} ms")
        print(f"    modeled total: {replay.total*1e3:.2f} ms")
    if trace is not None and profile_path:
        from repro.telemetry import write_chrome_trace
        from repro.telemetry.drift import drift_report, format_drift_table

        payload = write_chrome_trace(
            profile_path, trace,
            process_name=(
                f"rocketrig {config.order} "
                f"{config.num_nodes[0]}x{config.num_nodes[1]}"
            ),
        )
        print(f"  profile: {len(payload['traceEvents'])} trace events "
              f"-> {profile_path} (open at https://ui.perfetto.dev)")
        report = drift_report(trace, LASSEN)
        for line in format_drift_table(report).splitlines():
            print(f"  {line}")
    return diag


def run_service_from_args(args: argparse.Namespace) -> dict:
    """Execute ``rocketrig campaign --serve`` / ``--worker``.

    ``--serve`` expands the deck, binds a local TCP endpoint, prints
    (and publishes in ``status.json``) the address, and coordinates
    until every run is terminal.  ``--worker`` connects to a
    coordinator and pulls jobs until ``no-work-left``.  Both return a
    summary dict carrying ``batch_failed`` for the exit code.
    """
    from repro.campaign import (
        CampaignDeck,
        CampaignStore,
        Coordinator,
        SocketEndpoint,
        SocketWorkerChannel,
        Worker,
        configure_logging,
    )
    from repro.campaign.service import DEFAULT_LEASE_TIMEOUT

    configure_logging(
        getattr(args, "verbose", 0) - getattr(args, "quiet", 0)
    )
    if args.serve and args.worker:
        raise SystemExit(
            "rocketrig campaign: --serve and --worker are mutually "
            "exclusive (one process coordinates, others execute)"
        )

    if args.worker:
        if args.deck is not None:
            raise SystemExit(
                "rocketrig campaign: --worker takes no deck (the "
                "coordinator owns the queue); drop the positional "
                "argument"
            )
        if not args.connect:
            raise SystemExit(
                "rocketrig campaign: --worker needs --connect HOST:PORT "
                "(see the coordinator's startup line or its status.json)"
            )
        host, sep, port = args.connect.rpartition(":")
        if not sep or not port.isdigit():
            raise SystemExit(
                f"rocketrig campaign: bad --connect {args.connect!r}; "
                f"expected HOST:PORT"
            )
        try:
            channel = SocketWorkerChannel(host or "127.0.0.1", int(port))
        except ReproError as exc:
            raise SystemExit(f"rocketrig campaign: {exc}")
        worker = Worker(
            channel,
            worker_id=args.worker_id,
            results_dir=args.results_dir,
            idle_timeout=args.idle_timeout,
        )
        stats = worker.run()
        print(f"worker {stats['worker']!r}: {stats['completed']} completed, "
              f"{stats['failed']} failed ({stats['reason']})")
        stats["batch_failed"] = stats["failed"]
        return stats

    try:
        deck = CampaignDeck.from_file(args.deck)
        specs = deck.expand()
    except (OSError, TypeError, ValueError, ReproError) as exc:
        raise SystemExit(f"rocketrig campaign: bad deck {args.deck!r}: {exc}")
    store = CampaignStore(deck.name, root=args.results_dir)
    try:
        endpoint = SocketEndpoint(host=args.host, port=args.port)
    except OSError as exc:
        raise SystemExit(
            f"rocketrig campaign: cannot bind {args.host}:{args.port}: {exc}"
        )
    coordinator = Coordinator(
        store,
        specs,
        endpoint,
        lease_timeout=(
            args.lease_timeout if args.lease_timeout is not None
            else DEFAULT_LEASE_TIMEOUT
        ),
        run_timeout=args.timeout,
        collective_timeout=args.collective_timeout,
        checkpoint_freq=args.checkpoint_freq,
        status_interval=getattr(args, "status_interval", 0.0),
    )
    host, port = endpoint.address
    print(f"campaign {deck.name!r}: serving {len(specs)} runs on "
          f"{host}:{port} — start workers with\n"
          f"  rocketrig campaign --worker --connect {host}:{port}")
    summary = coordinator.serve()
    print(f"campaign {deck.name!r}: {summary['completed']} completed, "
          f"{summary['skipped']} store hits, {summary['failed']} failed, "
          f"{summary['requeued']} requeued across "
          f"{len(summary['workers'])} workers; store at {store.root}")
    summary["batch_failed"] = summary["failed"]
    return summary


def run_campaign_from_args(args: argparse.Namespace) -> dict:
    """Execute ``rocketrig campaign <deck.json>`` and print the outcome."""
    if getattr(args, "serve", False) or getattr(args, "worker", False):
        if getattr(args, "fsck", None) is not None:
            raise SystemExit(
                "rocketrig campaign: --fsck audits a deck's store; it "
                "takes no --serve or --worker"
            )
        return run_service_from_args(args)
    from repro.campaign import (
        CampaignDeck,
        CampaignExecutor,
        CampaignStore,
        campaign_summary,
        campaign_table,
        configure_logging,
        format_table,
        makespan_estimate,
    )

    configure_logging(
        getattr(args, "verbose", 0) - getattr(args, "quiet", 0)
    )

    if args.deck is None:
        raise SystemExit(
            "rocketrig campaign: a deck is required (only --worker mode "
            "runs without one)"
        )
    try:
        deck = CampaignDeck.from_file(args.deck)
        specs = deck.expand()
    except (OSError, TypeError, ValueError, ReproError) as exc:
        raise SystemExit(f"rocketrig campaign: bad deck {args.deck!r}: {exc}")
    store = CampaignStore(deck.name, root=args.results_dir)
    if args.fsck is not None:
        return _fsck(store, args.fsck)
    try:
        executor = CampaignExecutor(
            store,
            max_workers=args.workers,
            timeout=args.timeout,
            collective_timeout=args.collective_timeout,
            checkpoint_freq=args.checkpoint_freq,
            status_interval=getattr(args, "status_interval", 0.0),
        )
    except ReproError as exc:
        raise SystemExit(f"rocketrig campaign: {exc}")
    print(f"campaign {deck.name!r}: {len(specs)} runs "
          f"({deck.mode} mode), {args.workers} workers, modeled makespan "
          f"{makespan_estimate(specs, args.workers):.3g}s")
    outcomes = executor.submit(specs)

    ran = sum(1 for o in outcomes if o.status == "completed")
    skipped = sum(1 for o in outcomes if o.skipped)
    failed = sum(1 for o in outcomes if o.status == "failed")
    print(f"campaign {deck.name!r}: {ran} ran, {skipped} store hits, "
          f"{failed} failed; store at {store.root}")

    if args.report:
        table = campaign_table(store, args.report, sort_by=args.report[0])
        print(format_table(table["header"], table["rows"]))
    if failed:
        for outcome in outcomes:
            if outcome.status == "failed":
                last_line = outcome.error.strip().splitlines()[-1]
                print(f"  failed {outcome.run_hash}: {last_line}")
    summary = campaign_summary(store)
    audit = [f"{summary[key]} {key.replace('_', ' ')}"
             for key in ("interrupted", "torn", "no_result", "stale")
             if summary[key]]
    if audit:
        print("store audit: " + ", ".join(audit))
    # Exit status reflects THIS batch: stale failed records from earlier
    # invocations (e.g. a deck point since removed) don't poison it.
    summary["batch_failed"] = failed
    return summary


def _fsck(store, replay: int) -> dict:
    """``rocketrig campaign <deck> --fsck [K]``: the store audit, and
    with ``K > 0`` the replay of K completed runs.  Nothing is planned,
    run for the store or written."""
    from repro.campaign import campaign_summary, replay_records
    from repro.campaign.report import audit_line

    if replay < 0:
        raise SystemExit(
            f"rocketrig campaign: --fsck K must be >= 0, got {replay}"
        )
    summary = campaign_summary(store)
    print(audit_line(summary, store.root))
    summary["batch_failed"] = 0
    if replay:
        report = replay_records(store, replay)
        for reason, count in report["skipped"].items():
            print(f"replay: skipped {count} ({reason})")
        for run_hash, stored, replayed in report["mismatched"]:
            print(f"replay: MISMATCH {run_hash}: stored digest {stored}, "
                  f"replayed {replayed}")
        drawn = report["replayed"]
        short = (f" ({replay} asked, {report['eligible']} eligible)"
                 if drawn < replay else "")
        print(f"replay: {drawn - len(report['mismatched'])}/{drawn} "
              f"identical{short}")
        summary["batch_failed"] = len(report["mismatched"])
    return summary


def inspect_from_args(args: argparse.Namespace) -> int:
    """``rocketrig inspect <campaign> [<hash-prefix>]``: explain a campaign
    or one run from its index alone; writes, plans and runs nothing."""
    from repro.campaign import CampaignStore
    from repro.campaign.report import inspect_lines

    try:
        store = CampaignStore(args.campaign, root=args.results_dir)
        if not os.path.exists(store.index_path):
            raise FileNotFoundError(f"no campaign index at {store.index_path}")
        print("\n".join(inspect_lines(store, args.run)))
    except (OSError, ReproError) as exc:
        print(f"rocketrig inspect: {exc}", file=sys.stderr)
        return 1
    return 0


def _print_scenarios() -> None:
    """The ``--list-scenarios`` table: registry with provenance."""
    from repro.scenarios import load_registry

    try:
        scenarios = sorted(
            load_registry().values(), key=lambda s: (s.family, s.name)
        )
    except ReproError as exc:
        raise SystemExit(f"rocketrig: scenario registry error: {exc}")
    if not scenarios:
        print("scenario packs: none found (set REPRO_SCENARIO_PATH or add "
              "packs under scenarios/)")
        return
    rows = [
        (s.name, s.family, ",".join(s.tags) or "-", s.citation())
        for s in scenarios
    ]
    header = ("scenario", "family", "tags", "provenance")
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows))
        for i in range(len(header))
    ]
    print(f"scenario packs ({len(rows)}):")
    print("  " + "  ".join(
        header[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    for row in rows:
        print("  " + "  ".join(
            row[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    print("run one with: rocketrig --scenario <name>")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_scenarios:
        try:
            _print_scenarios()
        except BrokenPipeError:
            # `rocketrig --list-scenarios | head` closes the pipe early;
            # swallow stdout so the interpreter's exit flush stays quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    if args.list_solvers:
        print("registered BR solvers:", ", ".join(available_br_solvers()))
        return 0
    if getattr(args, "command", None) == "inspect":
        return inspect_from_args(args)
    if getattr(args, "command", None) == "campaign":
        summary = run_campaign_from_args(args)
        return 0 if summary["batch_failed"] == 0 else 1
    run_from_args(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
