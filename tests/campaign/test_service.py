"""Campaign service conformance: the socket service vs the serial executor.

One deck, two execution paths — the plain serial executor and a
socket coordinator with two worker threads — must agree on everything
durable: the set of store records and their statuses, the result
payloads (modulo timing fields), and the terminal states in
``status.json``.  The service conversation must also have a fixed
shape: every run granted and reported exactly once, every worker sent
home exactly once (heartbeats excluded — they are timing-dependent by
design).
"""

import json
import os
import threading
import time

import pytest

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    Coordinator,
    SocketEndpoint,
    SocketWorkerChannel,
    Worker,
    campaign_summary,
)
from repro.campaign.protocol import Heartbeat
from tests.conftest import RecordingEndpoint

#: The acceptance deck: 8 runs (4 heFFTe configs x 2 rank counts),
#: small enough for CI, rank-varied enough to exercise distinct code
#: paths per run.
DECK = {
    "name": "svc",
    "mode": "functional",
    "steps": 2,
    "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
    "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
    "grid": {"fft_config": [0, 3, 5, 7], "ranks": [1, 2]},
}

#: Jobs the deck is granted as: the four one-rank runs share a fleet
#: key, so they are one fleet lease beside the four two-rank runs.
LEASES = 5

#: Fields that legitimately differ between executions of the same spec.
TIMING_FIELDS = ("elapsed", "timestamp", "run_dir")


def specs():
    return CampaignDeck.from_dict(DECK).expand()


def run_serial(root):
    store = CampaignStore("svc", root=str(root))
    CampaignExecutor(
        store, max_workers=1, telemetry=False,
        status_interval=0.0,
    ).submit(specs())
    return store


def run_socket_service(root, n_workers=2):
    """Coordinator + N worker threads over local TCP."""
    store = CampaignStore("svc", root=str(root))
    endpoint = RecordingEndpoint()
    coordinator = Coordinator(
        store, specs(), endpoint, lease_timeout=60.0, drain_grace=3.0,
    )
    host, port = endpoint.address
    stats = {}

    def pull(name):
        channel = SocketWorkerChannel(host, port)
        worker = Worker(
            channel, worker_id=name, idle_timeout=30.0, telemetry=False,
        )
        stats[name] = worker.run()

    threads = [
        threading.Thread(target=pull, args=(f"w{i}",))
        for i in range(n_workers)
    ]
    for t in threads:
        t.start()
    summary = coordinator.serve()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads)
    return store, summary, endpoint.journal, stats


def comparable_records(store):
    """hash → (status, result-minus-timing) for cross-path comparison."""
    records = {}
    for run_hash, record in store.latest_records().items():
        result = store.load_result(run_hash)
        stripped = (
            {k: v for k, v in result.items() if k not in TIMING_FIELDS}
            if result is not None else None
        )
        records[run_hash] = (record.status, stripped)
    return records


def terminal_states(store):
    with open(os.path.join(store.root, "status.json")) as fh:
        status = json.load(fh)
    assert status["done"]
    return {h: entry["state"] for h, entry in status["runs"].items()}


def message_multiset(journal):
    """(direction, wire type) counts — the shape of the conversation
    (conn ids and interleaving vary run to run, heartbeats are excluded
    at the journal layer)."""
    counts = {}
    for direction, _conn, msg in journal:
        key = (direction, msg.TYPE)
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    return run_serial(tmp_path_factory.mktemp("serial"))


class TestConformance:
    def test_socket_service_matches_serial(self, tmp_path, serial):
        store, summary, journal, stats = run_socket_service(tmp_path)
        assert summary["completed"] == len(specs())
        assert summary["failed"] == 0
        assert sorted(summary["workers"]) == ["w0", "w1"]
        # Every worker got work and none crashed out.
        assert all(s["reason"] == "no-work-left" for s in stats.values())
        assert sum(s["completed"] for s in stats.values()) == len(specs())
        # The durable outcome is indistinguishable from a serial run.
        assert comparable_records(store) == comparable_records(serial)
        assert campaign_summary(store)["completed"] == len(specs())
        assert set(terminal_states(store).values()) == {"completed"}
        # The conversation's shape is predictable in absolute terms:
        # every lease is granted once, every run reported exactly once,
        # every worker gets exactly one no-work-left.
        counts = message_multiset(journal)
        n = len(specs())
        assert counts[("send", "new-job")] == LEASES
        assert counts[("recv", "job-report")] == n
        assert counts[("recv", "job-request")] == LEASES + 2
        assert counts[("send", "no-work-left")] == 2

    def test_second_service_run_is_all_store_hits(self, tmp_path):
        store, summary, _, stats = run_socket_service(tmp_path)
        assert summary["completed"] == len(specs())
        # Re-serve the same deck against the same store: nothing runs.
        endpoint = SocketEndpoint()
        coordinator = Coordinator(
            store, specs(), endpoint, lease_timeout=60.0, drain_grace=1.0,
        )
        summary2 = coordinator.serve()
        assert summary2["skipped"] == len(specs())
        assert summary2["completed"] == 0
        assert summary2["workers"] == []


class TestStatusDocument:
    def test_service_section_present(self, tmp_path):
        store, _, _, _ = run_socket_service(tmp_path)
        with open(os.path.join(store.root, "status.json")) as fh:
            status = json.load(fh)
        assert status["worker_type"] == "service"
        service = status["service"]
        assert service["lease_timeout"] == 60.0
        assert service["leases"] == {}
        assert service["queued"] == 0
        assert sorted(service["workers"]) == ["w0", "w1"]
        for info in service["workers"].values():
            assert info["jobs_done"] >= 1

    def test_service_json_discovery_file(self, tmp_path):
        store, _, _, _ = run_socket_service(tmp_path)
        with open(os.path.join(store.root, "status.json")) as fh:
            status = json.load(fh)
        assert status["campaign"] == "svc"
        assert status["done"] is True
        host, port = status["service"]["address"].rsplit(":", 1)
        assert host == "127.0.0.1" and port.isdigit()
        assert status["service"]["pid"] == os.getpid()

    def test_metrics_in_status(self, tmp_path):
        store, _, _, _ = run_socket_service(tmp_path)
        with open(os.path.join(store.root, "status.json")) as fh:
            metrics = json.load(fh)["metrics"]
        assert metrics["campaign.service.jobs_leased"] == LEASES
        assert metrics["campaign.batch_absorbed"] == 4
        assert metrics["campaign.service.workers_seen"] == 2
        assert metrics.get("campaign.service.leases_expired", 0) == 0


class TestLeaseRenewal:
    def test_heartbeats_keep_a_long_run_on_its_first_lease(self, tmp_path):
        """A run outlasting three lease periods completes on its first
        lease: its worker's heartbeats renew the deadline.  A heartbeat
        naming a lease another worker holds is stale and renews
        nothing."""
        spec = specs()[0]
        store = CampaignStore("svc", root=str(tmp_path))
        endpoint = SocketEndpoint()
        coordinator = Coordinator(
            store, [spec], endpoint, lease_timeout=1.0, drain_grace=3.0,
        )
        host, port = endpoint.address
        intruder = {}

        def slow_run(run_spec):
            # The grant is sent before the coordinator files the lease.
            deadline = time.monotonic() + 10.0
            while run_spec.run_hash() not in coordinator._leases:
                assert time.monotonic() < deadline, "lease never filed"
                time.sleep(0.01)
            lease = coordinator._leases[run_spec.run_hash()]
            before = lease.deadline
            coordinator._handle_heartbeat(
                Heartbeat(worker="intruder", run_hash=lease.id)
            )
            intruder["deadline_kept"] = lease.deadline == before
            time.sleep(3.0)
            return CampaignExecutor(
                store, max_workers=1, telemetry=False
            ).run_one(run_spec)

        stats = {}

        def pull():
            channel = SocketWorkerChannel(host, port)
            stats["w0"] = Worker(
                channel, worker_id="w0", idle_timeout=30.0, run_one=slow_run,
            ).run()

        thread = threading.Thread(target=pull)
        thread.start()
        summary = coordinator.serve()
        thread.join(timeout=60.0)
        assert not thread.is_alive()

        assert summary["completed"] == 1 and summary["requeued"] == 0
        assert stats["w0"]["completed"] == 1
        # One claim marker, one terminal record: the run ran once.
        assert [r.status for r in store.iter_records()] == [
            "running", "completed",
        ]
        metrics = coordinator.metrics.snapshot()
        assert "campaign.service.leases_expired" not in metrics
        assert intruder["deadline_kept"]
        assert metrics["campaign.service.stale_messages"] == 1
        assert metrics["campaign.service.heartbeats"] > 1
