"""Table 1 — heFFTe parameter configurations on the low-order solver.

Regenerates the paper's Table 1 (the eight AllToAll/Pencils/Reorder
combinations) through the campaign subsystem: an 8-point functional
deck runs the low-order solver under every configuration on 4 simulated
ranks, the store's records are pivoted into the table payload, and the
solver diagnostics must agree across all configurations (the flags tune
communication, never numerics).  A per-configuration forward-transform
micro-benchmark rides along unchanged.
"""

import itertools

import numpy as np
import pytest

from repro import mpi
from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    campaign_table,
)
from repro.fft import ALL_CONFIGS, DistributedFFT2D

from common import print_series, save_results

N = (64, 64)
RANKS = 4


def table1_deck() -> CampaignDeck:
    return CampaignDeck.from_dict({
        "name": "table1_heffte_configs",
        "mode": "functional",
        "steps": 2,
        "ranks": RANKS,
        "base": {"order": "low", "num_nodes": [32, 32], "dt": 0.002},
        "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
        "grid": {"fft_config": [c.index for c in ALL_CONFIGS]},
    })


def test_table1_enumeration_and_equivalence(benchmark, tmp_path):
    rows = [
        [cfg.index, cfg.alltoall, cfg.pencils, cfg.reorder]
        for cfg in ALL_CONFIGS
    ]
    print_series(
        "Table 1: heFFTe parameter configurations",
        ["Configuration", "AllToAll", "Pencils", "Reorder"],
        rows,
    )
    save_results(
        "table1_heffte_configs",
        {"header": ["Configuration", "AllToAll", "Pencils", "Reorder"], "rows": rows},
    )

    # All eight configurations must produce the same solver evolution.
    store = CampaignStore("table1_heffte_configs", root=str(tmp_path))
    executor = CampaignExecutor(store, max_workers=4)
    outcomes = executor.submit(table1_deck().expand())
    assert len(outcomes) == 8
    assert all(o.status == "completed" for o in outcomes)
    table = campaign_table(
        store,
        ["config.fft_config", "result.diagnostics.amplitude",
         "result.diagnostics.vorticity_norm"],
        sort_by="config.fft_config",
    )
    assert [row[0] for row in table["rows"]] == list(range(8))
    amplitudes = np.array([row[1] for row in table["rows"]])
    vorticities = np.array([row[2] for row in table["rows"]])
    np.testing.assert_allclose(amplitudes, amplitudes[0], rtol=1e-10)
    np.testing.assert_allclose(vorticities, vorticities[0], rtol=1e-10)

    # Second submission dedups against the store.
    assert all(o.skipped for o in executor.submit(table1_deck().expand()))

    benchmark.extra_info["configs"] = [c.index for c in ALL_CONFIGS]
    # Time real campaign execution against a fresh store each round (a
    # reused store would only time the dedup/skip path).
    fresh = itertools.count()

    def run_fresh():
        store = CampaignStore("table1_bench", root=str(tmp_path / f"r{next(fresh)}"))
        return CampaignExecutor(store, max_workers=4).submit(table1_deck().expand())

    benchmark(run_fresh)


def _forward_all_ranks(cfg, field):
    def program(comm):
        cart = mpi.create_cart(comm, ndims=2)
        fft = DistributedFFT2D(cart, N, cfg)
        return fft.forward(field[fft.brick_box.slices()])

    return mpi.run_spmd(RANKS, program)


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"cfg{c.index}")
def test_forward_transform_per_config(benchmark, cfg):
    """Wall-clock of one distributed forward per configuration."""
    rng = np.random.default_rng(1)
    field = rng.normal(size=N)
    benchmark.extra_info["config"] = str(cfg)
    benchmark(lambda: _forward_all_ranks(cfg, field))
