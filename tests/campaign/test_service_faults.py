"""Fault-injection conformance for the campaign service.

The protocol's crash semantics, pinned adversarially on the socket wire:

* **Worker SIGKILL (socket)** — a real subprocess worker kills itself
  mid-claim via the ``REPRO_CAMPAIGN_KILL_FUSE`` pattern from the
  process-pool crash tests.  Its lease must expire, the run must be
  requeued *exactly once* (two ``running`` claim markers, then a
  terminal record), and the final summary must match a serial run.
* **Worker vanish (in-process)** — threads cannot be SIGKILLed, so
  the :class:`WorkerVanished` hook reproduces the observable behaviour
  of a hard death (heartbeats stop, nothing is sent, nothing terminal
  is recorded) and the same lease-expiry recovery must fire,
  deterministically.
* **Coordinator SIGKILL** — workers must notice the dead coordinator
  and exit cleanly, and the store must stay fully parseable: workers
  record terminally *before* reporting, so a coordinator crash can
  never corrupt or lose a result.
* **Poison job** — a run whose worker dies on every attempt must be
  recorded failed after ``max_requeues`` lease expiries, not requeued
  forever.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    Coordinator,
    RunRecord,
    SocketEndpoint,
    SocketWorkerChannel,
    Worker,
    WorkerVanished,
    campaign_summary,
)
from repro.campaign.executor import KILL_FUSE_ENV
from repro.campaign.store import COMPLETED, FAILED, RUNNING

DECK = {
    "name": "faults",
    "mode": "functional",
    "steps": 2,
    "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
    "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
    "grid": {"fft_config": [0, 3, 5, 7]},
}

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def specs():
    return CampaignDeck.from_dict(DECK).expand()


def solo_specs():
    """Three of the four same-shape runs: under the fleet minimum, so
    each is leased on its own."""
    return specs()[:3]


def running_history(store, run_hash):
    """Statuses of every index record for one hash, in append order."""
    return [
        record.status
        for record in store.iter_records()
        if record.run_hash == run_hash
    ]


def spawn_cli_worker(port, name, *, fuse=None, extra_env=None):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    env.pop(KILL_FUSE_ENV, None)
    if fuse is not None:
        env[KILL_FUSE_ENV] = fuse
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli.rocketrig", "campaign",
            "--worker", "--connect", f"127.0.0.1:{port}",
            "--worker-id", name, "--idle-timeout", "60",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


class TestWorkerSigkillSocket:
    """Real SIGKILL of a real subprocess worker over the real TCP wire."""

    def test_lease_expires_and_requeues_exactly_once(self, tmp_path):
        store = CampaignStore("faults", root=str(tmp_path / "svc"))
        endpoint = SocketEndpoint()
        # Solo leases: this pins the one-run requeue (a fleet lease has
        # its own tests).
        coordinator = Coordinator(
            store, solo_specs(), endpoint, lease_timeout=3.0, drain_grace=3.0
        )
        port = endpoint.address[1]

        # Arm the fuse on one specific run for exactly one death.  Both
        # workers carry the fuse (either may be granted the victim run
        # first), but the shared fuse file burns out on the first trip,
        # so exactly one worker SIGKILLs itself mid-claim and the retry
        # on the other completes.
        victim_hash = solo_specs()[0].run_hash()
        fuse = str(tmp_path / "fuse")
        with open(fuse, "w", encoding="utf-8") as fh:
            fh.write(f"{victim_hash} 1")

        workers = [
            spawn_cli_worker(port, "w0", fuse=fuse),
            spawn_cli_worker(port, "w1", fuse=fuse),
        ]
        try:
            summary = coordinator.serve()
        finally:
            for proc in workers:  # reap, and drain and close the pipe
                try:
                    proc.communicate(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()

        assert summary["completed"] == len(solo_specs())
        assert summary["failed"] == 0
        assert summary["requeued"] == 1
        metrics = coordinator.metrics.snapshot()
        assert metrics["campaign.service.leases_expired"] == 1
        assert metrics["campaign.service.workers_seen"] == 2
        assert not os.path.exists(fuse)  # burnt out on the one death

        # Exactly-once requeue, visible in the durable claim trail:
        # claim (doomed) -> claim (regrant) -> completed.
        assert running_history(store, victim_hash) == [
            RUNNING, RUNNING, COMPLETED,
        ]
        for spec in solo_specs()[1:]:
            assert running_history(store, spec.run_hash()) == [
                RUNNING, COMPLETED,
            ]

        # One of the worker processes died by SIGKILL, the other exited
        # cleanly after draining the queue.
        codes = sorted(proc.returncode for proc in workers)
        assert codes == [-signal.SIGKILL, 0]

        # The final durable state matches a plain serial run.
        serial_store = CampaignStore("faults", root=str(tmp_path / "serial"))
        CampaignExecutor(
            serial_store, max_workers=1, telemetry=False,
        ).submit(solo_specs())
        service_summary = campaign_summary(store)
        reference = campaign_summary(serial_store)
        for key in ("runs", "completed", "failed", "interrupted"):
            assert service_summary[key] == reference[key], key


class TestWorkerVanishSocket:
    """The same recovery with in-process workers over the socket wire: a
    run_one hook that raises WorkerVanished is observationally a SIGKILL
    (heartbeats stop, nothing sent, nothing recorded)."""

    def test_lease_expires_and_requeues_exactly_once(self, tmp_path):
        store = CampaignStore("faults", root=str(tmp_path))
        endpoint = SocketEndpoint()
        coordinator = Coordinator(
            store, solo_specs(), endpoint, lease_timeout=1.0, drain_grace=0.5
        )
        host, port = endpoint.address
        out = {}

        def doomed():
            # Dies silently on its first (and only) job.
            def vanish(spec):
                raise WorkerVanished
            out["doomed"] = Worker(
                SocketWorkerChannel(host, port), worker_id="doomed",
                idle_timeout=30.0, run_one=vanish,
            ).run()

        def survivor():
            # Starts only once the doomed worker holds (and dropped) a
            # lease, so exactly one run is ever claimed twice.
            doomed_thread.join()
            out["survivor"] = Worker(
                SocketWorkerChannel(host, port), worker_id="survivor",
                idle_timeout=30.0, telemetry=False,
            ).run()

        doomed_thread = threading.Thread(target=doomed)
        survivor_thread = threading.Thread(target=survivor)
        doomed_thread.start()
        survivor_thread.start()
        summary = coordinator.serve()
        survivor_thread.join(timeout=60.0)
        assert not survivor_thread.is_alive()

        assert out["doomed"]["reason"] == "vanished"
        assert out["doomed"]["completed"] == 0
        assert out["survivor"]["completed"] == len(solo_specs())
        assert summary["completed"] == len(solo_specs())
        assert summary["requeued"] == 1
        metrics = coordinator.metrics.snapshot()
        assert metrics["campaign.service.leases_expired"] == 1

        histories = [
            running_history(store, spec.run_hash()) for spec in solo_specs()
        ]
        # Exactly one run carries the double claim marker of a requeue.
        assert sorted(histories).count([RUNNING, RUNNING, COMPLETED]) == 1
        assert histories.count([RUNNING, COMPLETED]) == len(solo_specs()) - 1


class TestCoordinatorKilled:
    """SIGKILL the coordinator mid-campaign: workers exit cleanly and
    the store stays consistent (terminal records land before reports,
    so nothing a worker finished is ever lost)."""

    def test_workers_exit_cleanly_no_store_corruption(self, tmp_path):
        results_dir = str(tmp_path)
        deck_path = tmp_path / "deck.json"
        deck_path.write_text(json.dumps(DECK))
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        env.pop(KILL_FUSE_ENV, None)
        coordinator = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli.rocketrig", "campaign",
                str(deck_path), "--serve", "--results-dir", results_dir,
                "--lease-timeout", "30",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        store = CampaignStore("faults", root=results_dir)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(store.status_path):
            assert time.monotonic() < deadline, "coordinator never bound"
            assert coordinator.poll() is None, coordinator.communicate()[0]
            time.sleep(0.05)
        with open(store.status_path, encoding="utf-8") as fh:
            port = int(json.load(fh)["service"]["address"].rsplit(":", 1)[1])

        stats = {}

        def slow_pull(name):
            # Throttled workers keep the campaign in flight long enough
            # for the kill to land mid-run deterministically.
            def throttled(spec):
                time.sleep(0.25)
                executor = CampaignExecutor(
                    CampaignStore("faults", root=results_dir),
                    max_workers=1, telemetry=False,
                )
                return executor.run_one(spec)

            channel = SocketWorkerChannel("127.0.0.1", port)
            worker = Worker(
                channel, worker_id=name, idle_timeout=5.0, run_one=throttled,
            )
            stats[name] = worker.run()

        threads = [
            threading.Thread(target=slow_pull, args=(f"w{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()

        # Wait for proof of in-flight work, then kill the coordinator.
        deadline = time.monotonic() + 60.0
        while not store.latest_records():
            assert time.monotonic() < deadline, "no run ever started"
            time.sleep(0.05)
        coordinator.send_signal(signal.SIGKILL)
        coordinator.communicate(timeout=30)  # reaps and closes the pipe

        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)

        # Both workers returned through the clean-exit path, not a
        # crash: their stats dicts exist and name the reason.
        assert set(stats) == {"w0", "w1"}
        for stat in stats.values():
            assert stat["reason"] != "vanished"

        # No store corruption: every index line parses, every completed
        # record's result loads, and the claim markers of interrupted
        # runs carry their lease stamps.
        records = list(store.iter_records())
        assert records, "workers recorded nothing before the kill"
        assert all(isinstance(record, RunRecord) for record in records)
        for run_hash, record in store.latest_records().items():
            assert record.status in (COMPLETED, FAILED, RUNNING)
            if record.status == COMPLETED:
                assert store.load_result(run_hash) is not None
            if record.status == RUNNING:
                assert record.owner in ("w0", "w1")
                assert record.lease_expires > 0


class TestPoisonJob:
    """A job whose worker dies on every attempt fails terminally after
    max_requeues lease expiries instead of requeueing forever."""

    def test_poison_job_fails_after_max_requeues(self, tmp_path):
        store = CampaignStore("faults", root=str(tmp_path))
        poison = specs()[0]
        endpoint = SocketEndpoint()
        coordinator = Coordinator(
            store, [poison], endpoint, lease_timeout=0.4, max_requeues=2,
            drain_grace=1.0,
        )
        port = endpoint.address[1]

        def always_vanish():
            while True:
                try:
                    channel = SocketWorkerChannel(
                        "127.0.0.1", port, connect_timeout=2.0
                    )
                except Exception:
                    return  # coordinator closed: campaign is over
                def vanish(spec):
                    raise WorkerVanished
                Worker(
                    channel, worker_id="zombie", idle_timeout=10.0,
                    run_one=vanish,
                ).run()

        thread = threading.Thread(target=always_vanish)
        thread.start()
        summary = coordinator.serve()
        thread.join(timeout=30.0)

        assert summary["failed"] == 1
        assert summary["completed"] == 0
        assert summary["requeued"] == coordinator.max_requeues
        record = store.latest_records()[poison.run_hash()]
        assert record.status == FAILED
        assert "lease expired" in record.error
