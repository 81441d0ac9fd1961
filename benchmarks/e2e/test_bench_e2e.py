"""Tier-1 checks of the e2e benchmark's contract (quick sizes, < 10 s).

Not a measurement: these pin the shape of ``BENCHMARK.json``, that one
``--quick`` run emits every declared end-to-end metric, that inputs are
a pure function of the seed, that the ``exact`` per-layer counts repeat
bit-for-bit, and that a wrong reference is noticed.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import child  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from repro import mpi  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_contract():
    spec = bench.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == ["wall_s", "setup_s", "unit_ms_p50", "peak_rss_mb"]
    assert (e2e["setup_s"]["unit"], e2e["setup_s"]["better"]) == ("s", "lower")
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert set(workloads.EXACT) <= {m["name"] for m in spec["per_layer"]}


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate_inputs(name, 3) == workloads.generate_inputs(name, 3)
        assert workloads.generate_inputs(name, 3) != workloads.generate_inputs(name, 4)
    local = workloads.generate_inputs("campaign_local", 3)
    service = workloads.generate_inputs("campaign_service", 3)
    assert local["deck"] == service["deck"]


def test_quick_run_emits_every_end_to_end_metric():
    spec = bench.load_spec()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--quick",
         "--workload", "exact_r1", "--seed", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def exact_counts(name, workdir):
    inp = workloads.generate_inputs(name, 0, quick=True)
    if inp["kind"] == "solver":
        trace = mpi.CommTrace()
        run = child.solver_pass(inp, inp["steps"], trace=trace,
                                rank_probe=probes.in_rank)
        layer, _ = probes.solver_ledger(trace, run, inp["steps"])
        layer.update(probes.merge_rank_probes(run["probes"]))
    else:
        os.makedirs(workdir)
        with open(os.path.join(workdir, "deck.json"), "w") as fh:
            json.dump(inp["deck"], fh)
        layer, _ = probes.campaign_ledger(inp, child.campaign_pass(inp, workdir))
    return {k: layer[k] for k in workloads.EXACT if k in layer}


def test_exact_counts_repeat(tmp_path):
    seen = set()
    for name in ("fft_r2", "cutoff_r2", "campaign_local"):
        first = exact_counts(name, str(tmp_path / f"{name}-a"))
        assert first == exact_counts(name, str(tmp_path / f"{name}-b"))
        seen |= set(first)
    assert seen == set(workloads.EXACT)
    assert first["batch.absorbed_runs"] == 8  # the exact half of 16 quick runs


def test_reference_mismatch_is_a_failure():
    diag = {"time": 0.02, "steps": 10.0, "amplitude": 0.07,
            "vorticity_norm": 1.5, "dt": 0.002}
    checks = {"workload": {"steps": 10, "diagnostics": diag}}
    good = {"workload": {"steps": 10, "diagnostics": dict(diag)}}
    assert bench.verify(checks, good, 1e-9) == ([], "verified")
    good["workload"]["diagnostics"]["amplitude"] *= 1 + 1e-6
    assert bench.verify(checks, good, 1e-9) == (["workload"], "verified")
    assert bench.verify(checks, None, 1e-9) == ([], "unverified")
    checks["workload"]["diagnostics"] = dict(diag, amplitude=float("nan"))
    assert bench.verify(checks, None, 1e-9) == (["workload"], "unverified")
