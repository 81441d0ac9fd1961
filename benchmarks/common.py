"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it
prints the same rows/series the paper reports, saves
them as JSON under ``results/``, and attaches them to pytest-benchmark's
``extra_info`` so ``--benchmark-json`` output carries them too.
"""

from __future__ import annotations

import json
import os
from typing import Any

#: Figure/table payloads land here; campaign artifacts share the same
#: tree (see repro.campaign.store).  ``REPRO_RESULTS_DIR`` points both
#: at one location in CI.
_DEFAULT_RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "results")
RESULTS_DIR = os.path.normpath(os.environ.get("REPRO_RESULTS_DIR") or _DEFAULT_RESULTS)

#: GPU counts used by the paper's scaling studies (§5.1: 4 to 1024).
GPU_SWEEP = [4, 16, 64, 256, 1024]
GPU_SWEEP_DENSE = [4, 16, 64, 128, 256, 512, 1024]

#: Measured spatial-ownership imbalance (max/mean) of the single-mode
#: run as the interface rolls up, keyed by fraction of the rollup time.
#: Regenerated by bench_fig67_load_imbalance.py; these defaults follow
#: the paper's Figures 6/7 (flat ≈ 0.4 %/rank at t=80; 0.2-0.65 % at
#: t=340 on 256 ranks ⇒ max/mean ≈ 1.66).
def imbalance_at(nranks: int) -> float:
    if nranks <= 4:
        return 1.0
    return 1.0 + 0.66 * (1.0 - 4.0 / nranks)


def save_results(name: str, payload: dict[str, Any]) -> str:
    """Write a figure/table payload to ``results/<name>.json``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
    return path


def load_results(name: str) -> dict[str, Any] | None:
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def print_series(title: str, header: list[str], rows: list[list[Any]]) -> None:
    """Render a small fixed-width table to stdout."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
