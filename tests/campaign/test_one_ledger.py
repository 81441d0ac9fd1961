"""One ledger: every dispatch path books a run through the coordinator.

One mixed deck — a four-run fleet group, two cutoff runs, two model
runs, a store hit and a run that fails — goes through an in-process
drain (``max_workers=1``), local worker processes (``max_workers=2``)
and a bare ``Coordinator.serve()`` with two in-thread workers.  All
three must count, mark, record and log it identically.  Model-mode runs
never leave the coordinator's process, so they are evaluated on the
coordinator's machine model wherever the workers are.
"""

import json
import logging
import re
import threading

import pytest

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    Coordinator,
    RunSpec,
    SocketEndpoint,
    SocketWorkerChannel,
    Worker,
)
from repro.core import InitialCondition, SolverConfig
from repro.machine.model import MachineSpec
from tests.conftest import RecordingEndpoint

LOW = {"order": "low", "num_nodes": [16, 16], "dt": 0.002}
IC = {"kind": "multi_mode", "magnitude": 0.02, "period": 3}
METRICS = (
    "campaign.runs_completed", "campaign.runs_failed",
    "campaign.batch_absorbed", "campaign.store_hits",
)


def deck(name, base, grid, mode="functional"):
    return CampaignDeck.from_dict({
        "name": name, "mode": mode, "steps": 2, "base": base, "ic": IC,
        "grid": grid,
    }).expand()


#: Completed by an earlier submission: the deck's one store hit.
HIT = deck("ledger", LOW, {"atwood": [0.6], "ranks": [2]})[0]

#: Fails at run time (low order needs periodic boundaries).
BAD = RunSpec(
    config=SolverConfig(
        num_nodes=(8, 8), order="low", periodic=(False, False), dt=0.002,
    ),
    ic=InitialCondition(kind="flat"), ranks=4, steps=2, campaign="ledger",
)


def mixed_deck():
    return (
        deck("ledger", LOW, {"atwood": [0.1, 0.2, 0.3, 0.4]})
        + deck("ledger", {"order": "high", "br_solver": "cutoff",
                          "cutoff": 0.5, "num_nodes": [16, 16],
                          "periodic": [False, False], "dt": 0.002},
               {"atwood": [0.3, 0.5]})
        + deck("ledger", LOW, {"ranks": [4, 16]}, mode="model")
        + [HIT, BAD]
    )


def serve_bare(store, specs):
    """``Coordinator.serve()`` with two in-thread workers."""
    endpoint = SocketEndpoint()
    coordinator = Coordinator(store, specs, endpoint, drain_grace=3.0)
    threads = [
        threading.Thread(target=Worker(
            SocketWorkerChannel(*endpoint.address), worker_id=f"w{i}",
            idle_timeout=30.0,
        ).run)
        for i in range(2)
    ]
    for thread in threads:
        thread.start()
    coordinator.serve()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    return coordinator.metrics


def submit(max_workers):
    def run(store, specs):
        executor = CampaignExecutor(store, max_workers=max_workers)
        executor.submit(specs)
        return executor.metrics
    return run


PATHS = {"inline": submit(1), "local": submit(2), "served": serve_bare}


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    """Per path: (metrics, status.json, latest records, log lines)."""
    specs = mixed_deck()
    out = {}
    logger = logging.getLogger("repro.campaign")
    for name, run in PATHS.items():
        store = CampaignStore("ledger", root=str(tmp_path_factory.mktemp(name)))
        CampaignExecutor(store, max_workers=1).submit([HIT])
        lines, level = _Lines(), logger.level
        logger.addHandler(lines)
        logger.setLevel(logging.INFO)
        try:
            metrics = run(store, specs).snapshot()
        finally:
            logger.removeHandler(lines)
            logger.setLevel(level)
        with open(store.status_path, encoding="utf-8") as fh:
            status = json.load(fh)
        out[name] = (metrics, status, store.latest_records(), lines.lines)
    return specs, out


def test_every_path_counts_the_same(ledgers):
    _, out = ledgers
    for metrics, _, _, _ in out.values():
        assert {key: metrics.get(key, 0) for key in METRICS} == {
            "campaign.runs_completed": 8, "campaign.runs_failed": 1,
            "campaign.batch_absorbed": 4, "campaign.store_hits": 1,
        }


def test_every_path_ends_with_the_same_status_counts(ledgers):
    _, out = ledgers
    for name, (_, status, _, _) in out.items():
        assert status["done"] is True
        assert status["counts"] == {
            "queued": 0, "running": 0, "completed": 8, "failed": 1,
            "skipped": 1, "interrupted": 0,
        }
        # A plan drained in-process binds no socket.
        bound = status["service"]["address"] is not None
        assert bound == (name != "inline"), name


def test_every_path_records_the_same(ledgers):
    specs, out = ledgers

    def comparable(latest):
        return {
            h: (r.status, r.spec, r.result, r.resumed_from_step,
                (r.error or "").strip().splitlines()[-1:])
            for h, r in latest.items()
        }

    inline, local, served = (comparable(out[p][2]) for p in PATHS)
    assert set(inline) == {spec.run_hash() for spec in specs}
    assert inline == local == served
    assert inline[BAD.run_hash()][0] == "failed"


def test_one_terminal_log_line_per_run(ledgers):
    specs, out = ledgers
    for name, (_, _, _, lines) in out.items():
        for spec in specs:
            if spec is HIT:
                continue
            pattern = re.compile(
                rf"\[campaign ledger\] {spec.run_hash()} (completed|FAILED)"
            )
            assert sum(map(bool, map(pattern.match, lines))) == 1, name


def test_model_runs_stay_on_the_coordinators_machine(tmp_path):
    """A served deck's model runs are evaluated by the coordinator on
    its own machine model — never leased — so a re-serve under the same
    machine is all store hits."""
    slow = MachineSpec(name="slow", flops=1.0e12)
    specs = (
        deck("ledger", LOW, {"ranks": [4, 16]}, mode="model")
        + deck("ledger", LOW, {"atwood": [0.3]})
    )
    store = CampaignStore("ledger", root=str(tmp_path))

    def serve():
        endpoint = RecordingEndpoint()
        coordinator = Coordinator(
            store, specs, endpoint, machine=slow, drain_grace=3.0,
        )
        thread = threading.Thread(target=Worker(
            SocketWorkerChannel(*endpoint.address), worker_id="w0",
            idle_timeout=30.0, telemetry=False,
        ).run)
        thread.start()
        summary = coordinator.serve()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        return coordinator, summary

    coordinator, summary = serve()
    assert summary["completed"] == 3
    jobs = [m for d, _, m in coordinator.endpoint.journal
            if d == "send" and m.TYPE == "new-job"]
    assert [job.payload["mode"] for job in jobs] == ["functional"]
    latest = store.latest_records()
    for spec in specs[:2]:
        assert latest[spec.run_hash()].result["machine"] == "slow"

    _, again = serve()
    assert again["skipped"] == len(specs) and again["completed"] == 0
