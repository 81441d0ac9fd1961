"""Batch-run orchestration: decks → scheduled runs → persistent results.

The campaign subsystem is how this repo sweeps the paper's evaluation
space (order × BR solver × cutoff × mesh × rank count × heFFTe config)
without every benchmark hand-rolling its own loop:

* :mod:`repro.campaign.deck` — declarative sweep decks that expand into
  content-hashed :class:`RunSpec`\\ s.
* :mod:`repro.campaign.store` — persistent JSON-lines run store with
  content-addressed dedup under ``results/campaigns/``.
* :mod:`repro.campaign.scheduler` — machine-model cost estimates and
  longest-job-first dispatch order.
* :mod:`repro.campaign.executor` — ``submit`` and the execution of one
  run or one fleet, with failure isolation and checkpoint/resume of
  interrupted runs.
* :mod:`repro.campaign.report` — aggregation into the figure/table
  payloads the benchmark harness emits.
* :mod:`repro.campaign.protocol` — the typed coordinator/worker message
  codec and its one wire (length-prefixed frames over local TCP).
* :mod:`repro.campaign.service` — the coordinator, a campaign's one
  ledger: it plans, counts, marks and logs every run, leases items to
  pull-based workers (local worker processes, the default, or
  ``rocketrig campaign --serve`` / ``--worker``) or drains them
  in-process (``serial``), and reclaims the runs of workers that
  vanish.

Typical use::

    from repro.campaign import CampaignDeck, CampaignExecutor, CampaignStore

    deck = CampaignDeck.from_file("decks/fig9.json")
    store = CampaignStore(deck.name)
    outcomes = CampaignExecutor(store, max_workers=4).submit(deck.expand())
"""

from repro.campaign.deck import CampaignDeck, RunSpec
from repro.campaign.executor import CampaignExecutor, configure_logging
from repro.campaign.report import (
    campaign_summary,
    campaign_table,
    completed_records,
    format_table,
    record_field,
    replay_records,
    series_grid,
)
from repro.campaign.scheduler import (
    estimate_cost,
    longest_job_first,
    makespan_estimate,
)
from repro.campaign.protocol import (
    ChannelClosedError,
    ProtocolError,
    SocketEndpoint,
    SocketWorkerChannel,
)
from repro.campaign.service import Coordinator, Worker, WorkerVanished
from repro.campaign.store import CampaignStore, RunRecord, results_root

__all__ = [
    "ChannelClosedError",
    "Coordinator",
    "ProtocolError",
    "SocketEndpoint",
    "SocketWorkerChannel",
    "Worker",
    "WorkerVanished",
    "CampaignDeck",
    "RunSpec",
    "CampaignExecutor",
    "configure_logging",
    "CampaignStore",
    "RunRecord",
    "results_root",
    "estimate_cost",
    "longest_job_first",
    "makespan_estimate",
    "campaign_summary",
    "campaign_table",
    "completed_records",
    "format_table",
    "record_field",
    "replay_records",
    "series_grid",
]
