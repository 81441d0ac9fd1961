"""The five workloads: fixed sizes and seed -> generated inputs.

Stdlib only: the driver (``bench.py``) imports this without paying for
numpy or ``repro``.  The program under test never sees the seed, only
the config / deck generated here (``inputs.json`` and ``deck.json`` in
the run's work directory).

Sizes are *fixed work*: ``wall_s`` is the time for exactly this much
work, so a faster program shows as a smaller number.  ``--seconds``
scales the step counts linearly from the nominal 16 s at which the
sizes below were chosen on the 2-core reference box (see README).
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
DECK_TEMPLATE = os.path.join(HERE, "decks", "campaign_mixed.json")

#: ``--seconds`` at which the step counts below apply unscaled.
NOMINAL_SECONDS = 16

#: Units run (and discarded) before the clock starts.
WARMUP_UNITS = 2

#: Fresh-interpreter set-ups per run, half before and half after the
#: timed pass; ``setup_s`` is the fastest (README explains why not the median).
SETUP_REPEATS = 8

_PI = math.pi
_IC = {"kind": "multi_mode", "magnitude": 0.05, "period": 4}

#: Solver workloads: one `Solver` stepped N times on `ranks` simulated
#: ranks.  `steps` is the timed count at NOMINAL_SECONDS; `quick_nodes`
#: is the mesh edge used by ``--quick``.
SOLVER_WORKLOADS: dict[str, dict[str, Any]] = {
    "exact_r1": {
        "ranks": 1,
        "steps": 36,            # ~430 ms/step -> ~15.5 s
        "quick_nodes": 32,
        "config": {
            "num_nodes": [64, 64], "low": [-_PI, -_PI], "high": [_PI, _PI],
            "periodic": [True, True], "order": "high", "br_solver": "exact",
            "dt": 0.002, "eps": 0.05, "backend": "blocked",
        },
    },
    "fft_r2": {
        "ranks": 2,
        "steps": 100,           # ~160 ms/step -> ~16 s
        "quick_nodes": 64,
        "config": {
            "num_nodes": [512, 512], "low": [-_PI, -_PI], "high": [_PI, _PI],
            "periodic": [True, True], "order": "low",
            "dt": 0.002, "backend": "blocked",
        },
    },
    "cutoff_r2": {
        "ranks": 2,
        "steps": 60,            # ~265 ms/step -> ~16 s
        "quick_nodes": 32,
        "config": {
            "num_nodes": [64, 64], "low": [-_PI, -_PI], "high": [_PI, _PI],
            "periodic": [False, False], "order": "high",
            "br_solver": "cutoff", "cutoff": 0.5, "skin": 0.0,
            "dt": 0.002, "eps": 0.05, "backend": "blocked",
        },
    },
}

#: Campaign workloads: the same generated deck, dispatched two ways.
CAMPAIGN_WORKLOADS: dict[str, dict[str, Any]] = {
    "campaign_local": {"dispatch": "local", "workers": 2},
    "campaign_service": {"dispatch": "service", "workers": 2},
}

#: Steps per campaign run at NOMINAL_SECONDS (the deck template's value).
CAMPAIGN_STEPS = 4

WORKLOADS = tuple(SOLVER_WORKLOADS) + tuple(CAMPAIGN_WORKLOADS)

#: Per-layer counts that must repeat bit-for-bit for equal inputs.
EXACT = (
    "mpi.msgs_per_step", "mpi.bytes_per_step",
    "fft.alltoall_msgs_per_step", "fft.alltoall_bytes_per_step",
    "spatial.pairs_per_eval", "spatial.imbalance",
    "batch.absorbed_runs", "campaign.requeues",
)


def reap(proc) -> float:
    """Wait for a `subprocess.Popen` child and return its peak RSS in MB
    (``Popen.wait`` would drop the rusage that ``wait4`` hands back)."""
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return rusage.ru_maxrss / 1024.0  # Linux reports KiB


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at
    least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _scaled(count: int, seconds: float) -> int:
    return max(2, round(count * seconds / NOMINAL_SECONDS))


def _rng(stream: str, seed: int) -> random.Random:
    # str seeds hash through sha512: identical on every platform/run.
    return random.Random(f"{stream}:{int(seed)}")


def generate_inputs(
    name: str, seed: int, seconds: float = NOMINAL_SECONDS, quick: bool = False
) -> dict[str, Any]:
    """Everything the child needs to run ``name``: a pure function of
    its arguments (same seed -> identical inputs)."""
    if name in SOLVER_WORKLOADS:
        spec = SOLVER_WORKLOADS[name]
        config = copy.deepcopy(spec["config"])
        if quick:
            config["num_nodes"] = [spec["quick_nodes"]] * 2
        ic = dict(_IC, seed=_rng(name, seed).randrange(2**31))
        return {
            "workload": name, "seed": int(seed), "kind": "solver",
            "ranks": spec["ranks"],
            "steps": 3 if quick else _scaled(spec["steps"], seconds),
            "warmup": 1 if quick else WARMUP_UNITS,
            "config": config, "ic": ic,
        }
    if name in CAMPAIGN_WORKLOADS:
        # Both campaign workloads draw from one stream: identical decks
        # for equal seeds, so local vs service compare the same work.
        rng = _rng("campaign", seed)
        with open(DECK_TEMPLATE, "r", encoding="utf-8") as fh:
            deck = json.load(fh)
        deck["ic"]["seed"] = rng.randrange(2**31)
        # Atwood axis is spaced 0.02: a +-0.005 jitter keeps it distinct.
        deck["grid"]["atwood"] = [
            round(a + rng.uniform(-0.005, 0.005), 6)
            for a in deck["grid"]["atwood"]
        ]
        deck["steps"] = (
            2 if quick
            else max(1, round(CAMPAIGN_STEPS * seconds / NOMINAL_SECONDS))
        )
        if quick:
            deck["grid"]["atwood"] = deck["grid"]["atwood"][:4]
            deck["grid"]["eps_factor"] = deck["grid"]["eps_factor"][:2]
        return {
            "workload": name, "seed": int(seed), "kind": "campaign",
            "warmup": 1 if quick else WARMUP_UNITS,
            "deck": deck, **CAMPAIGN_WORKLOADS[name],
        }
    raise KeyError(f"unknown workload {name!r}; choose from {WORKLOADS}")
