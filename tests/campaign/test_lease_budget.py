"""The run budget on the lease path: ``timeout=0`` means no budget.

``CampaignExecutor(timeout=0)`` builds no deadline in-process; a leased
run must see the same thing.  The worker used to read ``job.timeout or
DEFAULT_RUN_TIMEOUT``, silently turning "no budget" into one hour.
"""

import threading

import pytest

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    Coordinator,
    SocketEndpoint,
    SocketWorkerChannel,
    Worker,
)

DECK = {
    "name": "budget",
    "mode": "functional",
    "steps": 400,            # ~1 s of 16x16 low-order steps: outlasts 0.05 s
    "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.0005},
    "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
}


def _lease_one_run(root, monkeypatch, run_timeout, steps):
    """One run leased over local TCP to one in-thread worker; returns
    (the budget ``run_one``'s executor carried, the store)."""
    spec = CampaignDeck.from_dict(dict(DECK, steps=steps)).expand()[0]
    store = CampaignStore("budget", root=str(root))
    endpoint = SocketEndpoint()
    # How CampaignExecutor(timeout=run_timeout) builds its coordinator.
    coordinator = Coordinator(
        store, [spec], endpoint, run_timeout=run_timeout,
        collective_timeout=60.0, lease_timeout=60.0, drain_grace=3.0,
        telemetry=False,
    )
    seen = []
    real_run_one = CampaignExecutor.run_one

    def spy(self, spec):
        seen.append(self.timeout)
        return real_run_one(self, spec)

    monkeypatch.setattr(CampaignExecutor, "run_one", spy)

    def pull():
        channel = SocketWorkerChannel(*endpoint.address)
        Worker(channel, worker_id="w0", idle_timeout=30.0, telemetry=False).run()

    thread = threading.Thread(target=pull)
    thread.start()
    coordinator.serve()
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    (budget,) = seen
    return budget, store, spec


def test_disabled_budget_stays_disabled_on_a_lease(tmp_path, monkeypatch):
    budget, store, spec = _lease_one_run(tmp_path, monkeypatch, 0.0, steps=2)
    assert budget == 0  # not DEFAULT_RUN_TIMEOUT: _run_functional builds no deadline
    assert store.latest_records()[spec.run_hash()].status == "completed"


def test_small_budget_still_fails_a_leased_run(tmp_path, monkeypatch):
    budget, store, spec = _lease_one_run(tmp_path, monkeypatch, 0.05, steps=400)
    assert budget == pytest.approx(0.05)
    record = store.latest_records()[spec.run_hash()]
    assert record.status == "failed"
    assert "RunBudgetExceededError" in record.error
    assert "0.05s wall-clock budget" in record.error
