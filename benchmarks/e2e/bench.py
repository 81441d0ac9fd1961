"""End-to-end benchmark driver: five workloads, four metrics, one ledger.

    python benchmarks/e2e/bench.py --workload <name|all> --seed <int>
        [--seconds S] [--trace [0|1]] [--quick] [--aa K]

Prints every metric by name with its unit, checks the program's outputs
against ``reference.json`` and exits non-zero on a correctness failure.
The last stdout line of a single-workload run is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer with ``--trace 1``).

This process stays light (stdlib only) and mostly asleep: every pass of
a workload runs in a fresh child interpreter (``child.py``), so the
parent never competes for the two cores it is measuring.  Metric names,
units and bounds come from ``BENCHMARK.json`` at the repo root — the
one place they are declared.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (sibling module, stdlib only)

#: Scratch and result files live inside the checkout (gitignored).
OUT_DIR = os.path.join(ROOT, ".bench_e2e")
REFERENCE = os.path.join(HERE, "reference.json")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CHILD_TIMEOUT = 170.0

#: Unverified seeds: an interface that started at 0.05 and ran for a few
#: hundredths of a time unit cannot have grown past this.
AMPLITUDE_BOUND = 0.5


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- environment --------------------------------------------------------------


def clean_env() -> tuple[dict[str, str], list[str]]:
    """The children's environment: no ambient ``REPRO_*`` switches, one
    BLAS/OpenMP thread per process, ``repro`` importable from ``src/``."""
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    return env, scrubbed


def fs_type(path: str) -> str:
    """Filesystem type of ``path`` (store writes fsync: ext4 vs tmpfs matters)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as fh:
            for line in fh:
                _, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fingerprint(seed: int, scrubbed: list[str], versions: dict[str, str]) -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        **versions,
        "thread_pins": THREAD_PINS,
        "store_fs": fs_type(OUT_DIR),
        "git_commit": git_commit(),
        "seed": seed,
        "scrubbed_env": scrubbed,
    }


# -- children -----------------------------------------------------------------


#: One per CPU while a workload runs.  SCHED_IDLE only gets the CPU when
#: nothing else wants it, so it takes no time from the workload; what it
#: does is keep the vCPU from halting.  On this virtualised host a halted
#: vCPU can take milliseconds to wake, and that latency -- not the program --
#: set the run-to-run spread of every workload whose threads hand work to
#: each other (README "Host noise": campaign_local 11.7-15.1 s without,
#: 12.0-13.1 s with, ten interleaved pairs).
SPINNER = """
import os, sys
try:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)  # no SCHED_IDLE here: better no spinner than a greedy one
while True:
    pass
"""


@contextlib.contextmanager
def awake_cpus(alive: list[int]):
    """Run one idle-priority spinner per CPU for the duration; appends
    to ``alive`` how many were still spinning at the end."""
    spinners = [
        subprocess.Popen([sys.executable, "-c", SPINNER, str(cpu)])
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    try:
        yield
    finally:
        alive.append(sum(p.poll() is None for p in spinners))
        for p in spinners:
            p.kill()
        for p in spinners:
            p.wait()


def write_inputs(
    workdir: str, name: str, seed: int, seconds: float, quick: bool = False
) -> dict[str, Any]:
    """Generate the workload's inputs into ``workdir``: all the program
    ever sees of the seed (``inputs.json``, plus ``deck.json`` for a campaign)."""
    inputs = workloads.generate_inputs(name, seed, seconds, quick)
    files = {"inputs.json": inputs}
    if inputs["kind"] == "campaign":
        files["deck.json"] = inputs["deck"]
    for filename, payload in files.items():
        with open(os.path.join(workdir, filename), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
    return inputs


def run_child(mode: str, workdir: str, env: dict[str, str]) -> dict[str, Any]:
    """One pass in a fresh interpreter; returns its result plus
    ``t_spawn`` and its own peak RSS (``rss_mb``)."""
    out_path = os.path.join(workdir, f"{mode}.out.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), mode,
            os.path.join(workdir, "inputs.json"), out_path]
    t_spawn = time.perf_counter()
    # The child's stdout is not ours: our last stdout line is the result.
    proc = subprocess.Popen(argv, env=env, cwd=workdir, stdout=sys.stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        rss_mb = workloads.reap(proc)
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    with open(out_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["t_spawn"] = t_spawn
    result["rss_mb"] = rss_mb
    return result


def fresh_interpreter_ms(args: list[str], env: dict[str, str], repeats: int) -> float:
    """Median spawn -> exit wall of ``python <args>`` (cli probes)."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable] + args, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        walls.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(walls)


# -- correctness --------------------------------------------------------------


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def verify(
    checks: dict[str, Any], expected: Optional[dict[str, Any]], tol: float
) -> tuple[list[str], str]:
    """Failed check keys and whether a reference was available.

    Every checked item must be complete and sane; with a reference
    entry of the same step count it must also match it to ``tol``.
    """
    failed = []
    verified = expected is not None and set(expected) == set(checks)
    for key, item in checks.items():
        diag = item.get("diagnostics") or {}
        ok = (
            item.get("status", "completed") == "completed"
            and diag.get("steps") == item["steps"]
            and all(math.isfinite(v) for v in diag.values())
            and 0.0 < diag.get("amplitude", 0.0) < AMPLITUDE_BOUND
            and close(diag["time"], diag["steps"] * diag["dt"], 1e-9)
        )
        if ok and "twin" in item:
            ok = all(close(diag[k], item["twin"][k], tol) for k in diag)
        if ok and verified:
            ref = expected[key]
            if ref["steps"] == item["steps"]:
                ok = all(close(diag[k], ref["diagnostics"][k], tol) for k in diag)
            else:
                verified = False
        if not ok:
            failed.append(key)
    return failed, "verified" if verified else "unverified"


def reference_entry(path: str, name: str, seed: int):
    """(checked items for this workload and seed or None, tolerance).
    The file is flat: ``"<group>/<seed>/<item>"`` -> steps + diagnostics."""
    with open(path, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    prefix = f"{reference_group(name)}/{seed}/"
    items = {k[len(prefix):]: v for k, v in reference.items() if k.startswith(prefix)}
    return items or None, reference["tolerance"]


def reference_group(name: str) -> str:
    # Both campaign workloads run the same deck, so they share entries.
    return "campaign" if name in workloads.CAMPAIGN_WORKLOADS else name


# -- one run ------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool,
    reference: str = REFERENCE, out=sys.stdout,
) -> dict[str, Any]:
    """Run one workload once; prints its ledger and returns the result
    (the contract's four keys); the full record goes to the result file."""
    spec = load_spec()
    env, scrubbed = clean_env()
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    t_run = time.perf_counter()
    spans = []
    spinning: list[int] = []
    try:
        with awake_cpus(spinning):
            inputs = write_inputs(workdir, name, seed, seconds, quick)

            def child(mode: str) -> dict[str, Any]:
                result = run_child(mode, workdir, env)
                spans.append({"id": f"child{len(spans)}", "parent": "run",
                              "name": f"child:{mode}", "start": result["t_spawn"],
                              "end": time.perf_counter()})
                return result

            if trace:
                main = child("traced")
                layer = main["layer"]
                layer["cli.import_ms"] = fresh_interpreter_ms(
                    ["-c", "import repro.cli.rocketrig"], env, 1 if quick else 2)
                layer["cli.cold_start_ms"] = fresh_interpreter_ms(
                    ["-m", "repro.cli.rocketrig", "--nodes", "16", "--steps", "0"],
                    env, 1 if quick else 2)
                declared = spec["per_layer"]
                values = {m["name"]: layer.get(m["name"]) for m in declared}
                remarks = {name: "(exact)" for name in workloads.EXACT}
                raw = None
            else:
                # Half the set-ups before the timed pass and half after it:
                # the host's slow spells last seconds, so the two groups
                # rarely share one (README "Host noise").
                setups = []
                main = None
                for _ in range(2):
                    for _ in range(1 if quick else workloads.SETUP_REPEATS // 2):
                        done = child("setup")
                        setups.append(done["ready"] - done["t_spawn"])
                    main = main or child("timed")
                declared = spec["end_to_end"]
                values = {
                    "wall_s": main["wall_s"],
                    # Fastest, not median: interference only ever adds time, and
                    # the median of consecutive set-ups is bimodal on this host.
                    "setup_s": min(setups),
                    "unit_ms_p50": statistics.median(main["unit_ms"]),
                    "peak_rss_mb": main["rss_mb"] + sum(main["rss_children_mb"]),
                }
                unit_tail, pct = workloads.tail(main["unit_ms"])
                remarks = {
                    "wall_s": f"({main['attempted']} units of fixed work)",
                    "setup_s": (f"(fastest of {len(setups)} fresh interpreters; "
                                f"median {statistics.median(setups):.4g})"),
                    "unit_ms_p50": (f"({len(main['unit_ms'])} samples; "
                                    f"p{pct:.0f} = {unit_tail:.6g} ms)"),
                }
                raw = {"setup_s": setups, "unit_ms": main["unit_ms"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected, tol = reference_entry(reference, name, seed)
    bad, state = verify(main["checks"], None if trace else expected, tol)
    # A solver workload is one trajectory: a wrong end state fails every step.
    failed = main["failed"] + (
        len(bad) if inputs["kind"] == "campaign" else main["attempted"] * bool(bad)
    )
    result = {
        "correct": failed == 0,
        "attempted": main["attempted"],
        "failed": min(failed, main["attempted"]),
        "metrics": {
            m["name"]: {"value": values[m["name"]] or 0.0, "unit": m["unit"]}
            for m in declared
        },
    }

    print(f"== {name}  seed {seed}  reference: {state}"
          f"{'  [traced pass]' if trace else ''}{'  [quick]' if quick else ''} ==",
          file=out)
    for m in declared:
        if values[m["name"]] is not None:
            print(f"  {m['name']:<44} {values[m['name']]:>12.6g} {m['unit']}   "
                  f"{remarks.get(m['name'], '')}".rstrip(), file=out)
    absent = [m["name"] for m in declared if values[m["name"]] is None]
    if absent:
        print(f"  not on this workload (0 in the JSON line): {', '.join(absent)}",
              file=out)
    if trace and main.get("notes"):
        print(f"  notes: {json.dumps(main['notes'])}", file=out)
    print(f"  operations: {result['attempted']} attempted, {result['failed']} "
          f"failed{' ' + str(bad[:4]) if bad else ''}", file=out)

    record = dict(
        result, workload=name, quick=quick, traced=trace, reference=state,
        notes=main.get("notes"), raw=raw,
        fingerprint=dict(fingerprint(seed, scrubbed, main["versions"]),
                         idle_spinners=spinning[0]),
    )
    stem = os.path.join(OUT_DIR, "results", f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        for span in main["spans"]:  # the child's roots hang off its process span
            span["parent"] = spans[0]["id"] if span["parent"] is None else span["parent"]
        spans.append({"id": "run", "parent": None, "name": "run",
                      "start": t_run, "end": time.perf_counter()})
        for span in spans + main["spans"]:
            span["workload"] = f"{name}/seed{seed}"
        with open(stem.replace("-trace1", "") + ".trace.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"driver": spans, "child": main["spans"]}, fh)
    return result


# -- reference + A/A ----------------------------------------------------------


def write_reference(seconds: float, path: str) -> None:
    """Regenerate ``reference.json``: seeds 0 and 1 of every workload as
    plain 1-rank runs (so the 2-rank workloads are also checked for
    decomposition independence, and the dispatch paths against no
    dispatch at all)."""
    env, _ = clean_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    flat: dict[str, Any] = {"tolerance": 1e-9, "seconds": seconds}
    for name in list(workloads.SOLVER_WORKLOADS) + ["campaign_local"]:
        for seed in (0, 1):
            workdir = tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR)
            try:
                write_inputs(workdir, name, seed, seconds)
                items = run_child("reference", workdir, env)["items"]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for key, item in items.items():
                flat[f"{reference_group(name)}/{seed}/{key}"] = item
            print(f"reference: {name} seed {seed}: {len(items)} items",
                  file=sys.stderr)
    # One line per item: 500+ runs stay diffable.
    lines = (f' "{k}": {json.dumps(v, sort_keys=True)}' for k, v in sorted(flat.items()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def aa(names: list[str], k: int, seed: int, seconds: float) -> bool:
    """Two interleaved sets (A B B A ...) of K runs per workload of the
    same code, pair i of both sets on seed+i, plus one traced run per
    set; prints a markdown report.  Returns False if any gap exceeds
    its bound, any spread exceeds its bound or an exact count moved."""
    spec = load_spec()
    ok = True
    print(f"# A/A report\n\n`bench.py --aa {k} --seed {seed} --seconds "
          f"{seconds:g}` on {cpu_model()} ({len(os.sched_getaffinity(0))} cores), "
          f"commit {git_commit()[:12]}.\n\nPer set: median [Q1, Q3] over {k} runs; "
          f"spread = (Q3-Q1)/median; gap = how much worse set B's median is "
          f"than set A's.  A spread above a third of the bound or a gap above "
          f"half of it is flagged; above the bound it fails.  What was decided "
          f"from these numbers (estimators, bounds) is in README.md, "
          f"\"Host noise\".\n")
    for name in names:
        sets: dict[str, list[dict[str, Any]]] = {"A": [], "B": []}
        for i in range(k):
            for label in ("AB", "BA")[i % 2]:
                got = run_workload(name, seed + i, seconds, False, False,
                                   out=sys.stderr)
                ok &= got["correct"]
                sets[label].append(got["metrics"])
        print(f"## {name}\n\n| metric | A | B | spread A | spread B | gap | "
              f"bound | verdict |\n|---|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            stats = {}
            for label, runs in sets.items():
                stats[label] = statistics.quantiles(
                    [r[m["name"]]["value"] for r in runs], n=4)
            (a1, a2, a3), (b1, b2, b3) = stats["A"], stats["B"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            gap = sign * (b2 - a2) / a2
            spread = max((a3 - a1) / a2, (b3 - b1) / b2)
            if spread > m["bound"] or gap > m["bound"]:
                verdict, ok = "FAIL", False
            elif spread > m["bound"] / 3 or gap > m["bound"] / 2:
                verdict = "flagged"
            else:
                verdict = "ok"
            print(f"| {m['name']} ({m['unit']}) | {a2:.5g} [{a1:.5g}, {a3:.5g}] | "
                  f"{b2:.5g} [{b1:.5g}, {b3:.5g}] | {(a3 - a1) / a2:.2%} | "
                  f"{(b3 - b1) / b2:.2%} | {gap:+.2%} | {m['bound']:.0%} | "
                  f"{verdict} |")
        traced = [run_workload(name, seed, seconds, True, False, out=sys.stderr)
                  for _ in "AB"]
        counts = [{n: t["metrics"][n]["value"] for n in workloads.EXACT}
                  for t in traced]
        same = counts[0] == counts[1]
        ok &= same and all(t["correct"] for t in traced)
        print(f"\nExact counts (traced pass, seed {seed}), "
              f"{'identical' if same else 'DIFFERENT'} in both sets: "
              + ", ".join(f"`{n}` = {v:.10g}" for n, v in counts[0].items() if v)
              + "\n")
    return ok


# -- entry --------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="sizes the fixed work (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer pass instead of end-to-end")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes: a smoke run, not a measurement")
    parser.add_argument("--aa", type=int, metavar="K", default=0,
                        help="A/A noise report: two interleaved sets of K runs")
    parser.add_argument("--reference", default=REFERENCE,
                        help="reference diagnostics to check against")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the reference file and exit")
    args = parser.parse_args(argv)
    chosen = names if args.workload == "all" else [args.workload]

    if args.write_reference:
        write_reference(args.seconds, args.reference)
        return 0
    if args.aa:
        return 0 if aa(chosen, args.aa, args.seed, args.seconds) else 1
    correct = True
    for name in chosen:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.quick, args.reference)
        except RuntimeError as exc:  # a child died: no result line, exit != 0
            print(f"bench.py: {name}: {exc}", file=sys.stderr)
            return 2
        correct &= result["correct"]
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
