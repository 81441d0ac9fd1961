"""Layer probes and ledgers for the traced pass (runs in the child).

Two kinds of numbers, both taken from outside the program:

* *ledgers* read what public telemetry already exposes — the events,
  compute events and phase spans of a `CommTrace`, or the per-run
  ``telemetry.json`` / store records of a campaign — restricted to the
  timed window, and turn them into per-layer seconds, counts and shares;
* *probes* time a call into one layer's public function, on the
  workload's own arrays where the layer needs data.

A metric that does not exist on a workload (``fft.phase_s`` on a
high-order run) is simply absent from the returned dict; the driver
prints it as ``-`` and emits 0 in the JSON line.

Layer attribution of the timed window (shares sum to 1): every phase
span's self time goes to the layer that owns the phase, except the
wall time of the pure backend kernels inside it, which goes to
``backend``.  The 1-D FFTs stay with ``fft`` (the phase is "1-D FFTs +
remaps"; ``backend.fft1d_ms`` shows the kernel part) and the stencil
events stay with ``core`` because they wrap core arithmetic too.  Time
inside the simulated MPI layer cannot be told apart from its host
phase from outside, so ``mpi`` has probes and counts but no share.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Any

import numpy as np

from repro import mpi
from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    SocketEndpoint,
    SocketWorkerChannel,
    longest_job_first,
)
from repro.campaign.protocol import (
    JobRequest,
    NewJob,
    NoWorkLeft,
    decode_message,
    encode_message,
)
from repro.core import Solver
from repro.core.initial_conditions import initial_state
from repro.core.kernels import br_velocity_allpairs

PHASE_LAYER = {
    "halo": "grid",
    "fft": "fft",
    "migrate": "spatial",
    "spatial_halo": "spatial",
    "neighbor": "spatial",
    "neighbor_cache": "spatial",
}  # every other phase (br_ring, br_compute, stencil, integrate) is core's
BACKEND_KERNELS = ("br_allpairs", "br_neighbors", "rk3_axpy")

#: Phase self-times reported under a layer's own metric name.
PHASE_METRICS = (
    ("core.br_ring_s", "br_ring"), ("core.br_compute_s", "br_compute"),
    ("core.stencil_s", "stencil"), ("core.integrate_s", "integrate"),
    ("fft.phase_s", "fft"), ("grid.halo_s", "halo"),
    ("spatial.neighbor_s", "neighbor"), ("spatial.migrate_s", "migrate"),
    ("spatial.halo_s", "spatial_halo"),
)


def timed_ms(fn, repeats: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return 1e3 * (time.perf_counter() - t0) / repeats


def layer_shares(
    phase_s: dict[str, float], backend_s: dict[str, float], total: float
) -> dict[str, float]:
    """Seconds per layer from phase seconds; ``backend_s`` is the part
    of each phase spent inside pure backend kernels."""
    layers = {"backend": 0.0, "core": 0.0, "fft": 0.0, "grid": 0.0,
              "spatial": 0.0}
    for phase, seconds in phase_s.items():
        kernels = backend_s.get(phase, 0.0)
        layers[PHASE_LAYER.get(phase, "core")] += seconds - kernels
        layers["backend"] += kernels
    layers["core"] += total - sum(phase_s.values())  # unphased remainder
    return layers


# -- solver workloads ---------------------------------------------------------


def in_rank(solver: Solver, ic) -> dict[str, Any]:
    """Probes that need the live solver; every rank runs them together
    right after the timed steps (they do not advance the state)."""
    comm, pm, mesh = solver.comm, solver.pm, solver.mesh
    out: dict[str, Any] = {}
    comm.barrier()
    out["core.zmodel_eval_ms"] = timed_ms(solver.zmodel.compute_derivatives, 3)
    out["grid.halo_gather_ms"] = timed_ms(pm.gather_state, 10)
    fft = solver.zmodel.fft
    if fft is not None:
        field = pm.w.own[..., 0]
        spectrum = fft.forward(field)
        out["fft.forward_ms"] = timed_ms(lambda: fft.forward(field), 3)
        out["fft.backward_ms"] = timed_ms(lambda: fft.backward(spectrum), 3)
    X, Y = mesh.owned_coordinates()
    gm = mesh.global_mesh
    out["core.ic_build_ms"] = timed_ms(
        lambda: initial_state(ic, X, Y, np.asarray(gm.low), np.asarray(gm.extent)), 1
    )
    out["core.diagnostics_ms"] = timed_ms(solver.diagnostics, 3)
    br = solver.br_solver
    if hasattr(br, "ownership_counts"):
        counts = br.ownership_counts()
        out["spatial.imbalance"] = float(counts.max() / counts.mean())
    out["owned_bytes"] = pm.z.own.nbytes + pm.w.own.nbytes
    if comm.size == 1 and solver.config.br_solver == "exact" and br is not None:
        points = np.ascontiguousarray(pm.z.own.reshape(-1, 3))
        out["allpairs"] = {
            "points": points,
            "omega": np.pad(pm.w.own.reshape(-1, 2), ((0, 0), (0, 1))),
            "eps": br.eps, "dA": mesh.cell_area,
        }
    return out


def merge_rank_probes(per_rank: list[dict[str, Any]]) -> dict[str, float]:
    """Slowest rank per probe (the ranks ran them in lockstep)."""
    return {
        name: max(rank[name] for rank in per_rank)
        for name, value in per_rank[0].items()
        if "." in name and isinstance(value, float)
    }


def solver_ledger(trace: mpi.CommTrace, run: dict[str, Any], steps: int):
    """Per-layer numbers of the timed window of a traced `solver_pass`."""
    windows = [(stamps[0], stamps[-1]) for stamps in run["step_stamps"]]
    nranks = len(windows)

    def inside(rank: int, stamp: float) -> bool:
        return windows[rank][0] <= stamp <= windows[rank][1]

    spans = [s for s in trace.spans
             if inside(s.rank, s.t_start) and inside(s.rank, s.t_end)]
    events = [e for e in trace.events
              if e.kind != "recv" and inside(e.rank, e.t_stamp)]
    kernels = [c for c in trace.compute_events if inside(c.rank, c.t_stamp)]

    def per_rank_sum(items, key, value):
        table: dict[str, list[float]] = {}
        for item in items:
            table.setdefault(key(item), [0.0] * nranks)[item.rank] += value(item)
        return table

    phase_rank = per_rank_sum(spans, lambda s: s.phase, lambda s: s.self_time)
    kernel_rank = per_rank_sum(kernels, lambda c: c.kernel, lambda c: c.t_wall or 0.0)
    backend_rank = per_rank_sum(
        [c for c in kernels if c.kernel in BACKEND_KERNELS],
        lambda c: c.phase, lambda c: c.t_wall or 0.0,
    )
    slowest = {phase: max(v) for phase, v in phase_rank.items()}
    wall = run["wall_s"]
    layer: dict[str, float] = {
        metric: slowest[phase] for metric, phase in PHASE_METRICS if phase in slowest
    }

    def kernel_stats(*names: str) -> tuple[float, float, int]:
        chosen = [c for c in kernels if c.kernel in names]
        return (sum(c.t_wall or 0.0 for c in chosen),
                float(sum(c.items for c in chosen)), len(chosen))

    t, pairs, n = kernel_stats("br_allpairs")
    if n:
        layer["backend.br_allpairs_ns_per_pair"] = 1e9 * t / pairs
        layer["backend.br_allpairs_share"] = max(kernel_rank["br_allpairs"]) / wall
    t, pairs, n = kernel_stats("br_neighbors")
    if n:
        layer["backend.br_neighbors_ns_per_pair"] = 1e9 * t / pairs
        layer["spatial.pairs_per_eval"] = pairs / (3 * steps)
    t, pairs, n = kernel_stats("neighbor_search")
    if n:
        layer["spatial.neighbor_ns_per_pair"] = 1e9 * t / pairs
    for metric, names in (
        ("backend.fft1d_ms", ("fft1d", "ifft1d")),
        ("backend.stencil_ms", ("geometry", "vorticity_update")),
        ("backend.rk3_axpy_ms", ("rk3_axpy",)),
    ):
        t, _, n = kernel_stats(*names)
        if n:
            layer[metric] = 1e3 * t / n

    layer["mpi.msgs_per_step"] = len(events) / steps
    layer["mpi.bytes_per_step"] = sum(e.nbytes for e in events) / steps
    fft_events = [e for e in events if e.phase == "fft"]
    if fft_events:
        layer["fft.alltoall_msgs_per_step"] = len(fft_events) / steps
        layer["fft.alltoall_bytes_per_step"] = (
            sum(e.nbytes for e in fft_events) / steps
        )

    # Shares: rank-mean seconds per layer over the rank-mean window.
    mean_window = statistics.fmean(hi - lo for lo, hi in windows)
    seconds = layer_shares(
        {p: statistics.fmean(v) for p, v in phase_rank.items()},
        {p: statistics.fmean(v) for p, v in backend_rank.items()},
        mean_window,
    )
    for name, value in seconds.items():
        layer[f"{name}.share"] = value / mean_window

    out_spans = []
    for rank, stamps in enumerate(run["step_stamps"]):
        out_spans += [
            {"name": f"step[{i}]", "rank": rank, "start": a, "end": b}
            for i, (a, b) in enumerate(zip(stamps, stamps[1:]))
        ]
    out_spans += [
        {"name": s.phase, "rank": s.rank, "start": s.t_start, "end": s.t_end}
        for s in spans
    ]
    return layer, nest(out_spans)


def nest(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Give every span an id and its enclosing span on the same rank as
    parent (spans on one rank nest properly: they come from one thread)."""
    spans.sort(key=lambda s: (s["rank"], s["start"], -s["end"]))
    stack: list[dict[str, Any]] = []
    for i, span in enumerate(spans):
        span["id"] = i
        while stack and (
            stack[-1]["rank"] != span["rank"] or stack[-1]["end"] < span["end"]
        ):
            stack.pop()
        span["parent"] = stack[-1]["id"] if stack else None
        stack.append(span)
    return spans


def mpi_probes(payload_bytes: int) -> dict[str, float]:
    """2-rank microbenchmarks of the simulated MPI layer: an 8-byte
    `Sendrecv` exchange, an object `allreduce`, and `exchange_arrays`
    with the workload's per-rank state as payload (half to each rank)."""
    rounds, bulk_rounds = 1000, 10
    half = np.zeros(max(1, payload_bytes // 16))

    def program(comm):
        peer = 1 - comm.rank
        token = np.zeros(1)
        comm.barrier()
        sendrecv = timed_ms(lambda: comm.Sendrecv(token, peer, 0, None, peer, 0), rounds)
        allreduce = timed_ms(lambda: comm.allreduce(1.0), rounds)
        bulk = timed_ms(lambda: comm.exchange_arrays([half, half]), bulk_rounds)
        return sendrecv, allreduce, bulk

    sendrecv, allreduce, bulk = (max(v) for v in zip(*mpi.run_spmd(2, program)))
    return {
        "mpi.sendrecv_us": 1e3 * sendrecv,
        "mpi.allreduce_us": 1e3 * allreduce,
        "mpi.alltoallv_mb_s": 2 * half.nbytes / 1e6 / (bulk / 1e3),
    }


def numpy_over_blocked(points, omega, eps: float, dA: float) -> float:
    """The workload's own all-pairs call on both engines (numpy ÷ blocked)."""
    def call(engine: str) -> float:
        return timed_ms(
            lambda: br_velocity_allpairs(points, points, omega, eps, dA, backend=engine),
            1,
        )
    call("blocked")  # warm the engine's scratch buffers
    return call("numpy") / call("blocked")


def registry_load_ms() -> float:
    from repro.scenarios import load_registry

    return timed_ms(load_registry, 1)


# -- campaign workloads -------------------------------------------------------


def campaign_ledger(inp: dict[str, Any], run: dict[str, Any]):
    """Per-layer numbers of a campaign pass, read back from the store
    records, the per-run ``telemetry.json`` and the metrics registry.

    The budget is worker-seconds: ``wall_s x workers``.  The in-process
    fleet occupies every slot while it runs; a pool/service run's
    ``telemetry.elapsed`` (its `run_spmd` wall) is solver time, the rest
    of its recorded ``elapsed`` is telemetry building/writing, and what
    no run accounts for is dispatch, store writes, leases and idling.
    """
    runs, telemetry = run["runs"], run["telemetry"]
    workers, wall = inp["workers"], run["wall_s"]
    steps = inp["deck"]["steps"]
    total = wall * workers
    fleet = [h for h, r in runs.items() if r["fleet"]]
    pool = [h for h, r in runs.items() if not r["fleet"] and r["status"] == "completed"]
    fleet_s = max((runs[h]["elapsed"] for h in fleet), default=0.0)
    run_s = sum(runs[h]["elapsed"] for h in pool)
    solver_s = sum(telemetry[h].get("elapsed", 0.0) for h in pool)

    phase_s: dict[str, float] = {}
    backend_s: dict[str, float] = {}
    for h in pool:
        for phase, doc in telemetry[h].get("phase", {}).items():
            phase_s[phase] = phase_s.get(phase, 0.0) + doc["wall"]
    # telemetry.json keeps kernel walls per kernel, not per phase; each
    # pure backend kernel runs in exactly one phase.
    kernel_phase = {"br_allpairs": "br_ring", "br_neighbors": "br_compute",
                    "rk3_axpy": "integrate"}
    for h in pool:
        for kernel, doc in telemetry[h].get("kernel", {}).items():
            if kernel in kernel_phase:
                phase = kernel_phase[kernel]
                backend_s[phase] = backend_s.get(phase, 0.0) + doc["wall"]

    metrics = run["dispatcher"].metrics.snapshot()
    layer = {
        "batch.fleet_s": fleet_s,
        "batch.fleet_step_ms": 1e3 * fleet_s / steps,
        "batch.absorbed_runs": float(metrics.get("campaign.batch_absorbed", 0.0)),
        "campaign.pool_s": wall - fleet_s,
        "campaign.requeues": float(run["requeued"]),
        "campaign.store_bytes_per_run": tree_bytes(run["store"].root) / len(runs),
    }
    layer.update(
        (metric, phase_s[phase]) for metric, phase in PHASE_METRICS if phase in phase_s
    )

    seconds = layer_shares(phase_s, backend_s, solver_s)
    seconds["batch"] = fleet_s * workers
    seconds["telemetry"] = run_s - solver_s
    if inp["dispatch"] == "service":
        # Worker interpreters start inside the timed region: a worker's
        # first claim marker says when it was ready to work.
        t0_epoch = run["t_end_epoch"] - wall
        first_claim: dict[str, float] = {}
        for record in run["store"].iter_records():
            if record.status == "running" and record.owner:
                first_claim.setdefault(record.owner, record.timestamp)
        seconds["cli"] = sum(t - t0_epoch for t in first_claim.values())
        layer["campaign.service.lease_overhead_ms_per_run"] = (
            1e3 * (total - run_s) / len(pool)
        )
        layer["campaign.service.worker_idle_frac"] = 1.0 - run_s / total
    seconds["campaign"] = total - sum(seconds.values())
    for name, value in seconds.items():
        layer[f"{name}.share"] = value / total

    spans = [{"name": "fleet", "rank": 0, "start": run["t0"],
              "end": run["t0"] + fleet_s}] if fleet else []
    to_perf = run["t0"] + wall - run["t_end_epoch"]  # epoch -> perf_counter
    for h in pool:
        end = runs[h]["ended_epoch"] + to_perf
        spans.append({"name": f"run:{h}", "rank": 0,
                      "start": end - runs[h]["elapsed"], "end": end})
    for i, span in enumerate(spans):
        span.update(id=i, parent=None)  # runs overlap across workers: flat
    return layer, spans


def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(root) for name in names
    )


def campaign_probes(inp: dict[str, Any], run: dict[str, Any], workdir: str):
    """Outside probes of the campaign layer on the workload's own specs."""
    specs, store = run["specs"], run["store"]
    scratch = os.path.join(workdir, "probe")
    layer: dict[str, float] = {}
    deck_path = os.path.join(workdir, "deck.json")
    layer["campaign.deck_expand_ms"] = timed_ms(
        lambda: CampaignDeck.from_file(deck_path).expand(), 3
    )
    layer["campaign.schedule_ms"] = timed_ms(lambda: longest_job_first(specs), 3)

    # The read use of the store: the same deck again, now all hits.
    executor = CampaignExecutor(store, max_workers=inp["workers"])
    t0 = time.perf_counter()
    outcomes = executor.submit(specs)
    layer["campaign.store_hit_ms_per_run"] = (
        1e3 * (time.perf_counter() - t0) / len(specs)
    )
    if not all(o.skipped for o in outcomes):
        raise RuntimeError("second submit() of the same deck was not all store hits")

    # The write use: one durable record + result.json per run.
    sample = sample_specs(specs, 16)
    writes = CampaignStore("writes", root=scratch)
    t0 = time.perf_counter()
    for spec in sample:
        writes.record_completed(
            spec, {"kind": "functional",
                   "diagnostics": run["runs"][spec.run_hash()]["diagnostics"]},
        )
    layer["campaign.store_write_ms_per_run"] = (
        1e3 * (time.perf_counter() - t0) / len(sample)
    )

    # Per-run fixed costs: a bare `run_spmd` of the spec, then the same
    # spec through a serial executor with telemetry off and on.
    bare, off, on, builds = [], [], [], []
    for i, spec in enumerate(sample_specs(specs, 12)):
        def program(comm, spec=spec):
            t0 = time.perf_counter()
            solver = Solver(comm, spec.config, spec.ic)
            builds.append(1e3 * (time.perf_counter() - t0))
            solver.run(spec.steps)
            return solver.diagnostics()
        t0 = time.perf_counter()
        mpi.run_spmd(1, program)
        bare.append(time.perf_counter() - t0)
        for flag, sink in ((False, off), (True, on)):
            one = CampaignExecutor(
                CampaignStore(f"one{i}{int(flag)}", root=scratch),
                worker_type="serial", telemetry=flag,
            )
            t0 = time.perf_counter()
            one.submit([spec])
            sink.append(time.perf_counter() - t0)
    layer["campaign.run_overhead_ms"] = 1e3 * statistics.median(
        a - b for a, b in zip(on, bare)
    )
    layer["telemetry.overhead_frac"] = sum(on) / sum(off) - 1.0
    layer["core.solver_build_ms"] = statistics.median(builds)
    if inp["dispatch"] == "service":
        layer.update(service_probes(specs[0], store))
    return layer


def sample_specs(specs, count: int):
    """``count`` specs, alternating over the deck's BR solvers."""
    by_kind: dict[str, list] = {}
    for spec in specs:
        by_kind.setdefault(spec.config.br_solver, []).append(spec)
    mixed = [s for group in zip(*by_kind.values()) for s in group]
    return mixed[:count]


def service_probes(spec, store: CampaignStore) -> dict[str, float]:
    """Wire round trip (job-request -> reply over loopback through the
    public endpoint/channel classes) and codec cost of a real new-job."""
    rounds = 500
    endpoint = SocketEndpoint()
    stop = threading.Event()

    def answer() -> None:
        while not stop.is_set():
            for conn_id, _ in endpoint.poll(0.05):
                endpoint.send(conn_id, NoWorkLeft())

    server = threading.Thread(target=answer, daemon=True)
    server.start()
    channel = SocketWorkerChannel(*endpoint.address)
    request = JobRequest(worker="probe")
    try:
        def round_trip() -> None:
            channel.send(request)
            if channel.recv(5.0) is None:
                raise RuntimeError("service rtt probe: no reply")
        round_trip()
        rtt = timed_ms(round_trip, rounds)
    finally:
        channel.close()
        stop.set()
        server.join(5.0)
        endpoint.close()
    job = NewJob(run_hash=spec.run_hash(), payload=spec.payload(),
                 campaign=store.campaign, store_root=store.base_root,
                 lease_timeout=60.0, timeout=3600.0, collective_timeout=3600.0)
    codec = timed_ms(lambda: decode_message(encode_message(job)), rounds)
    return {"campaign.service.rtt_us": 1e3 * rtt,
            "campaign.service.codec_us": 1e3 * codec}
