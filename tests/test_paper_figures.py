"""The paper's figure and table numbers, pinned.

Runs the figure/table benchmarks ``bench_fig3``, ``bench_fig4``,
``bench_fig5``, ``bench_fig8``, ``bench_fig9`` and ``bench_table1`` with
timing disabled (``--benchmark-disable``) into a scratch
``REPRO_RESULTS_DIR``, and compares every ``*.json`` they write with the
copy under ``tests/golden/figures/``.  The numbers are machine-model
evaluations and trace replays, not wall-clock measurements, so a change
that moves one changed what the reproduction reports.  To re-record
after an intended change, run the same command with
``REPRO_RESULTS_DIR=tests/golden/figures``.

``bench_fig67`` (load imbalance, about 97 s) stays out of tier 1.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "figures"
BENCHES = [
    "bench_fig3_low_weak.py",
    "bench_fig4_low_strong.py",
    "bench_fig5_cutoff_weak.py",
    "bench_fig8_cutoff_strong.py",
    "bench_fig9_heffte_sweep.py",
    "bench_table1_heffte_configs.py",
]


def _same(got, want, path="$"):
    """Equal JSON values; floats to a relative 1e-12 (libm rounding)."""
    if isinstance(want, float) or isinstance(got, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{path}[{i}]")
    else:
        assert got == want, path


def test_figure_results_match_golden(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_RESULTS_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable",
         *(str(ROOT / "benchmarks" / bench) for bench in BENCHES)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == sorted(p.name for p in GOLDEN.glob("*.json"))
    for name in written:
        _same(json.loads((tmp_path / name).read_text()),
              json.loads((GOLDEN / name).read_text()), name)
