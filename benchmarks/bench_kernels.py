"""Kernel microbenchmarks — compute backends on the dense hot paths.

Seeds the performance trajectory the figure benchmarks cannot see:
wall-clock of both :mod:`repro.backend` engines (``blocked``, which
every run uses, and the ``numpy`` reference) on

* the exact-BR all-pairs kernel at the paper's 128×128 working size
  (the acceptance gate: ``blocked`` must be ≥ 2× the numpy reference),
  and
* the cutoff solver's masked sum over the chunk pairs its search lists
  (``br_chunks``)

(the 1-D FFT stages are no backend kernel — every engine would time the
same ``numpy.fft`` call — so they have no row here), and — report-only, absolute seconds gate nothing — the step time of a
16×16 one-rank exact and cutoff run (``small_run``: the size of the
campaign workloads' runs, where per-evaluation bookkeeping rather than
a kernel sets the time), with two counts that do gate: an evaluation
makes no decomposition lookup and a one-block cutoff evaluation records
no comm event (the plans of ``docs/architecture.md``, "Built once,
executed per evaluation"), and — also report-only — the blocked
all-pairs kernel with one worker thread vs every CPU the process may
use (``allpairs_threads``, gated only on identical bits),

together with the roofline ComputeEvent totals each run recorded —
which must be *identical* across backends, pair for pair, because the
accounting layer (not the engine) owns the events — and of the
backend-independent chunk-box neighbor search that feeds the masked
sum.  The BR rows print nanoseconds per kept pair, the unit of the
e2e ledger's ``backend.*_ns_per_pair`` lines, and the search row per
candidate pair it lists (the ledger's ``spatial.neighbor_ns_per_pair``
divides the search time by the kept pairs instead).  The payload lands
in ``results/BENCH_kernels.json`` (``$REPRO_RESULTS_DIR`` relocates
it) and CI uploads it as a workflow artifact.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q
"""

import time

import numpy as np

from repro import mpi
from repro.backend import blocked
from repro.core import InitialCondition, Solver, SolverConfig
from repro.core.kernels import br_velocity_allpairs, br_velocity_within
from repro.grid import HaloExchange
from repro.machine import LASSEN, kernel_breakdown
from repro.mpi.cart import CartComm
from repro.spatial.neighbors import chunk_pairs

from common import print_series, save_results

#: Acceptance-criterion working size: 128×128 surface nodes.
BR_NODES = 128
#: Chunk-sum and neighbor-search working size (cutoff pipeline scale).
NB_NODES = 64
NB_CUTOFF = 0.6

#: The two engines: the numpy reference first, then the one every run uses.
BACKENDS = ("numpy", "blocked")

#: Required blocked-vs-numpy speedup on the all-pairs kernel.
REQUIRED_SPEEDUP = 2.0

#: Small-run working size: the campaign workloads' 16×16 one-rank runs.
SMALL_NODES = 16
SMALL_STEPS = 40
#: Decomposition lookups an evaluation may not make once a solver exists.
LOOKUPS = ((CartComm, "coords_of"), (CartComm, "rank_of"), (HaloExchange, "_slabs"))

#: Sections written by the tests above the main one (same payload file).
_EXTRA_PAYLOAD = {}


def _surface(n):
    """A rolled-up-ish interface: positions and vorticity vectors."""
    x = np.linspace(-np.pi, np.pi, n, endpoint=False)
    X, Y = np.meshgrid(x, x, indexing="ij")
    z = np.stack([X, Y, 0.05 * np.sin(X) * np.cos(Y)], axis=-1)
    om = np.stack([np.cos(X), np.sin(Y), 0.1 * np.sin(X + Y)], axis=-1)
    return z.reshape(-1, 3), om.reshape(-1, 3)


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_allpairs(backend):
    pts, om = _surface(BR_NODES)
    trace = mpi.CommTrace()
    out = {}

    def run():
        trace.clear()
        out["result"] = br_velocity_allpairs(
            pts, pts, om, eps=0.05, dA=1e-3, trace=trace, backend=backend,
            symmetric=True,
        )

    # The reference is slow enough that one repetition is a stable
    # measurement; faster engines get a best-of-2.
    elapsed = _best_of(run, 1 if backend == "numpy" else 2)
    return elapsed, out["result"], kernel_breakdown(trace, LASSEN)


def _time_chunk_sum(backend):
    pts, om = _surface(NB_NODES)
    blocks = chunk_pairs(pts, pts, NB_CUTOFF, symmetric=True)
    trace = mpi.CommTrace()
    out = {}

    def run():
        trace.clear()
        out["result"], _ = br_velocity_within(
            pts, pts, om, NB_CUTOFF, eps=0.05, dA=1e-3, blocks=blocks,
            trace=trace, backend=backend,
        )

    elapsed = _best_of(run, 2)
    return elapsed, out["result"], kernel_breakdown(trace, LASSEN)


def _time_search():
    pts, _ = _surface(NB_NODES)
    out = {}

    def run():
        out["lists"] = chunk_pairs(pts, pts, NB_CUTOFF, symmetric=True)

    return _best_of(run, 3), out["lists"].candidates()


def _strip_times(breakdown):
    """Backend-invariant view: drop modeled time, keep flops/bytes/items."""
    return {
        kernel: {k: v for k, v in agg.items() if k != "time"}
        for kernel, agg in breakdown.items()
    }


def _small_run(backend, br_solver, monkeypatch):
    """(ms per step, lookups per evaluation, comm events per evaluation,
    spatial phases seen) of a 16×16 one-rank high-order run."""
    config = SolverConfig(
        num_nodes=(SMALL_NODES, SMALL_NODES), periodic=(False, False),
        order="high", br_solver=br_solver, cutoff=0.5,
    )
    ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=4)
    trace = mpi.CommTrace()
    lookups = []

    def counting(name, original):
        def counted(self, *args, **kwargs):
            lookups.append(name)
            return original(self, *args, **kwargs)
        return counted

    def program(comm):
        solver = Solver(comm, config, ic, backend=backend)
        solver.step()  # warm the engine
        ms = 1e3 * _best_of(lambda: solver.run(SMALL_STEPS), 3) / SMALL_STEPS
        trace.clear()
        with monkeypatch.context() as patch:
            for cls, name in LOOKUPS:
                patch.setattr(cls, name, counting(name, getattr(cls, name)))
            solver.zmodel.compute_derivatives()
        return ms

    ms = mpi.run_spmd(1, program, trace=trace)[0]
    spatial = sorted({"migrate", "spatial_halo"} & set(trace.phase_walls()))
    return ms, len(lookups), len(trace.events), spatial


def test_small_run_step_time(monkeypatch):
    rows, small = [], {}
    for br_solver in ("exact", "cutoff"):
        for backend in BACKENDS:
            ms, lookups, events, spatial = _small_run(backend, br_solver, monkeypatch)
            small.setdefault(br_solver, {})[backend] = {
                "ms_per_step": ms, "lookups_per_eval": lookups,
                "comm_events_per_eval": events, "spatial_phases": spatial,
            }
            rows.append([br_solver, backend, ms, lookups, events])
    _EXTRA_PAYLOAD["small_run"] = {
        "nodes": SMALL_NODES, "steps": SMALL_STEPS, "runs": small,
    }
    path = save_results("BENCH_kernels", dict(_EXTRA_PAYLOAD))
    print_series(
        f"Small run: {SMALL_NODES}x{SMALL_NODES}, 1 rank, best of 3 x "
        f"{SMALL_STEPS} steps (report-only)",
        ["br_solver", "backend", "ms per step", "lookups/eval", "comm events/eval"],
        rows,
    )
    print(f"payload: {path}")

    # Counts, not seconds: these fail on a re-introduced per-call
    # derivation or rendezvous, never on a slow runner.
    for br_solver, per_backend in small.items():
        for backend, run in per_backend.items():
            where = f"{br_solver}/{backend}"
            assert run["lookups_per_eval"] == 0, (
                f"{where}: an evaluation re-derived the decomposition"
            )
            # Free boundaries on one rank: no neighbour, no message.
            assert run["comm_events_per_eval"] == 0, (
                f"{where}: a one-rank evaluation communicated"
            )
            assert run["spatial_phases"] == [], (
                f"{where}: a one-block spatial hop was not an identity"
            )


def test_allpairs_one_worker_vs_all(monkeypatch):
    """Report-only: the blocked all-pairs kernel with its panels on one
    thread vs on every CPU of this process's affinity mask.  Gates only
    the bits: both runs must agree exactly (serial reduction order)."""
    pts, om = _surface(BR_NODES)
    threads = blocked._helper_threads() + 1
    runs = {}
    for label, helpers in (("one_worker", 0), ("all_workers", threads - 1)):
        with monkeypatch.context() as patch:
            patch.setattr(blocked, "_helper_threads", lambda: helpers)
            out = {}

            def run():
                out["result"] = br_velocity_allpairs(
                    pts, pts, om, eps=0.05, dA=1e-3, backend="blocked",
                    symmetric=True,
                )

            runs[label] = (_best_of(run, 2), out["result"])
    one, many = runs["one_worker"][0], runs["all_workers"][0]
    _EXTRA_PAYLOAD["allpairs_threads"] = {
        "nodes": BR_NODES, "cpus": threads,
        "seconds": {"one_worker": one, "all_workers": many},
        "speedup": one / many,
    }
    path = save_results("BENCH_kernels", dict(_EXTRA_PAYLOAD))
    print_series(
        f"Blocked all-pairs, {BR_NODES}x{BR_NODES}, {threads} CPUs (report-only)",
        ["threads", "seconds", "speedup"],
        [[1, one, 1.0], [threads, many, one / many]],
    )
    print(f"payload: {path}")
    assert np.array_equal(runs["one_worker"][1], runs["all_workers"][1]), (
        "panel pool changed the all-pairs bits"
    )


def test_backend_kernel_microbenchmarks():
    backends = list(BACKENDS)

    # row -> (timer, the ComputeEvent kernel it records)
    sections = {
        "br_allpairs": (_time_allpairs, "br_allpairs"),
        "br_chunks": (_time_chunk_sum, "br_neighbors"),
    }
    payload = {
        "nodes": {"br_allpairs": BR_NODES, "br_chunks": NB_NODES},
        "backends": backends,
        "kernels": {},
        **_EXTRA_PAYLOAD,
    }
    rows = []
    for name, (timer, kernel) in sections.items():
        times, results, events = {}, {}, {}
        for backend in backends:
            elapsed, result, breakdown = timer(backend)
            times[backend] = elapsed
            results[backend] = result
            events[backend] = breakdown
        ref = results["numpy"]
        scale = float(np.abs(ref).max())
        for backend in backends:
            # Engines must agree with the reference to ~1e-12 ...
            np.testing.assert_allclose(
                results[backend], ref, rtol=1e-12, atol=1e-12 * scale,
                err_msg=f"{backend} disagrees with numpy on {name}",
            )
            # ... and record the exact same roofline work.
            assert _strip_times(events[backend]) == _strip_times(
                events["numpy"]
            ), f"{backend} recorded different roofline totals on {name}"
        speedups = {b: times["numpy"] / times[b] for b in backends}
        payload["kernels"][name] = {
            "seconds": times,
            "speedup_vs_numpy": speedups,
            "events": events["numpy"],
        }
        # The BR events count one item per kept pair.
        pairs = events["numpy"][kernel]["items"]
        ns_per_pair = {b: 1e9 * times[b] / pairs for b in backends}
        payload["kernels"][name]["ns_per_pair"] = ns_per_pair
        for backend in backends:
            rows.append([
                name, backend, times[backend], speedups[backend],
                ns_per_pair[backend],
            ])

    search_s, candidates = _time_search()
    search_ns = 1e9 * search_s / candidates
    payload["nodes"]["neighbor_search"] = NB_NODES
    payload["kernels"]["neighbor_search"] = {
        "seconds": search_s, "candidates": candidates,
        "ns_per_pair": search_ns,
    }
    rows.append(["neighbor_search", "-", search_s, "-", search_ns])

    path = save_results("BENCH_kernels", payload)
    print_series(
        "Kernel microbenchmarks (wall-clock per backend)",
        ["kernel", "backend", "seconds", "speedup vs numpy", "ns per pair"],
        rows,
    )
    print(f"payload: {path}")

    # Acceptance gate: blocked >= 2x on exact-BR all-pairs at 128x128.
    allpairs = payload["kernels"]["br_allpairs"]["speedup_vs_numpy"]["blocked"]
    assert allpairs >= REQUIRED_SPEEDUP, (
        f"blocked all-pairs speedup {allpairs:.2f}x < {REQUIRED_SPEEDUP}x"
    )
