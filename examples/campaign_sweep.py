#!/usr/bin/env python
"""Campaign orchestration in miniature: one deck, two invocations.

Builds a declarative sweep deck covering the paper's evaluation axes at
laptop scale — model order × BR solver × rank count — expands it to
content-hashed run specs, and executes it twice through the campaign
subsystem:

1. The first submission runs every point concurrently (longest-job-first
   order from the machine-model cost estimate) and persists results
   under ``results/campaigns/``.
2. The second submission is pure store hits — nothing recomputes.

Run:  PYTHONPATH=src python examples/campaign_sweep.py
"""

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    campaign_summary,
    campaign_table,
    configure_logging,
    estimate_cost,
    format_table,
    makespan_estimate,
)

DECK = {
    "name": "example_sweep",
    "mode": "functional",
    "steps": 4,
    "base": {
        "num_nodes": [16, 16],
        "dt": 0.002,
        "eps": 0.05,
        "cutoff": 1.0,
    },
    "ic": {"kind": "single_mode", "magnitude": 0.05, "period": 1},
    "grid": {"ranks": [1, 2]},
    "zip": {
        "order": ["low", "medium", "high", "high"],
        "br_solver": ["exact", "exact", "exact", "cutoff"],
    },
}

WORKERS = 4


def main() -> None:
    deck = CampaignDeck.from_dict(DECK)
    specs = deck.expand()
    print(f"deck {deck.name!r}: {len(specs)} runs")
    for spec in specs:
        print(f"  {spec.run_hash()}  {spec.describe()}  "
              f"modeled {estimate_cost(spec):.3g}s")
    print(f"modeled makespan on {WORKERS} workers: "
          f"{makespan_estimate(specs, WORKERS):.3g}s "
          f"(vs serial {sum(estimate_cost(s) for s in specs):.3g}s)")

    configure_logging()  # campaign progress lines on stderr
    store = CampaignStore(deck.name)
    executor = CampaignExecutor(store, max_workers=WORKERS)

    print("\n--- first submission: everything runs ---")
    executor.submit(specs)

    print("\n--- second submission: pure store hits ---")
    outcomes = executor.submit(specs)
    assert all(o.skipped for o in outcomes)

    print("\n" + str(campaign_summary(store)))
    table = campaign_table(
        store,
        ["config.order", "config.br_solver", "ranks",
         "result.diagnostics.amplitude", "elapsed"],
        sort_by="elapsed",
    )
    print(format_table(table["header"], table["rows"]))


if __name__ == "__main__":
    main()
