"""Process worker backend: leased local workers, parity, crash recovery,
exact per-completion costs, store stress."""

import json
import math
import multiprocessing
import os
import threading
import time
import types

import numpy as np
import pytest

import repro.campaign.scheduler as scheduler
import repro.campaign.service as service
from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    Coordinator,
    RunSpec,
    SocketEndpoint,
    SocketWorkerChannel,
    Worker,
    campaign_summary,
)
from repro.campaign.executor import KILL_FUSE_ENV, STATUS_WRITE_INTERVAL
from repro.campaign.protocol import JobRequest
from repro.campaign.service import DEFAULT_MAX_REQUEUES
from repro.campaign.store import COMPLETED, FAILED, RUNNING
from repro.core import InitialCondition, SolverConfig
from repro.fft import FftConfig
from repro.util.errors import ConfigurationError

DECK = {
    "name": "procpool",
    "mode": "functional",
    "steps": 2,
    "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
    "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
    # Two engines: two runs per fleet key, under the fleet minimum, so
    # every run is its own lease.
    "grid": {"fft_config": [0, 3], "backend": ["numpy", "blocked"]},
}


def specs():
    return CampaignDeck.from_dict(DECK).expand()


def many_specs(n=32):
    """``n`` distinct 16x16 functional runs, one domain extent each (so
    no two share a fleet)."""
    deck = dict(DECK, name="many", grid={
        "high": [[round(1.0 + 0.01 * i, 2), 1.0] for i in range(n)],
    })
    return CampaignDeck.from_dict(deck).expand()


def record_children(mp):
    """Every worker process the code under test forks, in order."""
    started = []
    real_fork = service._fork_worker

    def recording_fork(*args, **kwargs):
        started.append(real_fork(*args, **kwargs))
        return started[-1]

    mp.setattr(service, "_fork_worker", recording_fork)
    return started


@pytest.fixture
def children(monkeypatch):
    return record_children(monkeypatch)


def assert_all_gone(children):
    for proc in children:
        proc.join(timeout=10)
        if proc.exitcode is None:
            proc.kill()
        assert proc.exitcode is not None, f"worker {proc.pid} outlived submit()"


def socket_inodes(pid):
    """Inodes of the sockets process ``pid`` holds open (None once it
    has gone)."""
    inodes = set()
    try:
        names = os.listdir(f"/proc/{pid}/fd")
    except FileNotFoundError:
        return None
    for name in names:
        try:
            target = os.readlink(f"/proc/{pid}/fd/{name}")
        except FileNotFoundError:
            continue  # closed while we looked
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


def endpoint_inodes(endpoint):
    """Inodes of the endpoint's listener and accepted connections."""
    with endpoint._conns_lock:
        socks = [endpoint._listener] + [c.sock for c in endpoint._conns.values()]
    return {os.fstat(sock.fileno()).st_ino for sock in socks if sock.fileno() >= 0}


def history(store, run_hash):
    """Statuses of every index record for one hash, in append order."""
    return [r.status for r in store.iter_records() if r.run_hash == run_hash]


class TestPayloadRoundTrip:
    """RunSpec/SolverConfig/InitialCondition survive the payload-dict
    round trip the process boundary imposes."""

    @pytest.mark.parametrize("spec", [
        RunSpec(config=SolverConfig(), ic=InitialCondition()),
        RunSpec(
            config=SolverConfig(
                num_nodes=(32, 16), periodic=(False, False), order="high",
                br_solver="tree", theta=0.3, leaf_size=8, eps=0.05, dt=0.001,
                fft_config=FftConfig.from_index(3), backend="blocked",
            ),
            ic=InitialCondition(kind="sech2", magnitude=0.1, tilt=0.2),
            ranks=4, steps=7, mode="model", campaign="rt",
        ),
        RunSpec(
            config=SolverConfig(
                order="high", br_solver="cutoff", cutoff=0.8, skin=0.1,
                rebuild_freq=3, spatial_low=(-1, -1, -1),
                spatial_high=(1, 1, 1), mu=0.5, br_images=True,
            ),
            ic=InitialCondition(kind="flat"),
        ),
    ])
    def test_hash_preserved(self, spec):
        rebuilt = RunSpec.from_payload(spec.payload(), campaign=spec.campaign)
        assert rebuilt.run_hash() == spec.run_hash()
        assert rebuilt.payload() == spec.payload()
        assert rebuilt.config == spec.config
        assert rebuilt.ic == spec.ic

    def test_payload_is_json_safe(self):
        spec = specs()[0]
        blob = json.dumps(spec.payload())
        assert RunSpec.from_payload(json.loads(blob)).run_hash() == spec.run_hash()


class TestWorkerTypeSpelling:
    def test_serial_is_one_worker(self, tmp_path):
        executor = CampaignExecutor(
            CampaignStore("x", root=str(tmp_path)), max_workers=4,
            worker_type="serial",
        )
        assert executor.max_workers == 1

    @pytest.mark.parametrize("worker_type", ["process", "thread"])
    def test_other_values_rejected(self, tmp_path, worker_type):
        with pytest.raises(ConfigurationError, match="--workers 1"):
            CampaignExecutor(
                CampaignStore("x", root=str(tmp_path)), worker_type=worker_type
            )


class TestProcessCampaign:
    def test_runs_complete_and_dedup(self, tmp_path):
        store = CampaignStore("procpool", root=str(tmp_path))
        executor = CampaignExecutor(
            store, max_workers=2,
        )
        outcomes = executor.submit(specs())
        assert [o.status for o in outcomes] == ["completed"] * 4
        for outcome in outcomes:
            assert np.isfinite(outcome.result["diagnostics"]["amplitude"])
        # Workers wrote their own records (claim marker + terminal).
        latest = store.latest_records()
        assert all(r.status == COMPLETED for r in latest.values())
        again = executor.submit(specs())
        assert all(o.skipped for o in again)

    def test_exception_in_worker_recorded_failed(self, tmp_path):
        """An ordinary raise inside a worker process is a recorded
        failure (not a pool break): siblings are untouched."""
        bad = RunSpec(
            config=SolverConfig(
                num_nodes=(8, 8), order="low", periodic=(False, False),
                dt=0.002,
            ),
            ic=InitialCondition(kind="flat"),
            ranks=4, steps=2,
        )
        good = specs()[0]
        store = CampaignStore("procfail", root=str(tmp_path))
        executor = CampaignExecutor(
            store, max_workers=2
        )
        outcomes = executor.submit([good, bad])
        assert [o.status for o in outcomes] == ["completed", "failed"]
        assert "ConfigurationError" in outcomes[1].error
        assert store.latest_records()[bad.run_hash()].status == FAILED


class TestNothingToSpawn:
    """No second process is started when nothing needs one."""

    @pytest.mark.parametrize("kwargs,batch", [
        ({"max_workers": 1}, specs),
        ({"max_workers": 4, "worker_type": "serial"}, specs),
        ({"max_workers": 4}, lambda: specs()[:1]),
        ({"max_workers": 4}, lambda: CampaignDeck.from_dict(
            dict(DECK, mode="model")).expand()),
    ], ids=["one-worker", "serial", "single-run", "model-mode"])
    def test_runs_inline(self, tmp_path, children, kwargs, batch):
        store = CampaignStore("inline", root=str(tmp_path))
        executor = CampaignExecutor(store, **kwargs)
        outcomes = executor.submit(batch())
        assert all(o.status == "completed" for o in outcomes)
        # ... nor when everything is a store hit.
        assert all(o.skipped for o in executor.submit(batch()))
        assert children == []


class TestSerialProcessParity:
    def test_same_deck_same_outcomes_and_records(self, tmp_path):
        """Serial and leased-process execution produce identical
        diagnostics and store records for the same deck
        (elapsed/timestamps aside)."""
        results = {}
        for name, workers in (("serial", 1), ("process", 2)):
            store = CampaignStore(name, root=str(tmp_path))
            outcomes = CampaignExecutor(
                store, max_workers=workers,
            ).submit(specs())
            results[name] = (store, outcomes)

        s_store, s_outcomes = results["serial"]
        p_store, p_outcomes = results["process"]
        assert [o.status for o in s_outcomes] == [o.status for o in p_outcomes]
        assert [o.run_hash for o in s_outcomes] == [o.run_hash for o in p_outcomes]
        assert [o.result for o in s_outcomes] == [o.result for o in p_outcomes]
        s_latest, p_latest = s_store.latest_records(), p_store.latest_records()
        assert set(s_latest) == set(p_latest)
        for run_hash, s_record in s_latest.items():
            p_record = p_latest[run_hash]
            assert s_record.status == p_record.status == COMPLETED
            assert s_record.spec == p_record.spec
            # Bitwise-identical diagnostics: same solver, same inputs.
            assert s_record.result == p_record.result
            assert (s_store.load_result(run_hash)
                    == p_store.load_result(run_hash))
            # Leased runs are claimed by a named worker first.
            assert history(p_store, run_hash) == [RUNNING, COMPLETED]


class TestCrashIsolation:
    """The one crash rule — lease expiry → requeue, bounded by
    ``max_requeues`` — against leased local workers.  The executor sees
    its children exit, so recovery takes seconds, not lease timeouts."""

    def _arm_fuse(self, monkeypatch, tmp_path, run_hash, trips):
        fuse = str(tmp_path / "fuse")
        with open(fuse, "w", encoding="utf-8") as fh:
            fh.write(f"{run_hash} {trips}")
        monkeypatch.setenv(KILL_FUSE_ENV, fuse)
        return fuse

    def test_transient_kill_recovers_within_one_submission(
        self, tmp_path, monkeypatch, children
    ):
        """A one-shot kill (transient fault): the run is requeued and
        completes inside the same submit() — no failed record survives."""
        batch = specs()
        victim = batch[0]
        fuse = self._arm_fuse(monkeypatch, tmp_path, victim.run_hash(), trips=1)
        store = CampaignStore("transient", root=str(tmp_path))
        executor = CampaignExecutor(
            store, max_workers=2,
        )
        t0 = time.monotonic()
        outcomes = executor.submit(batch)
        assert time.monotonic() - t0 < service.DEFAULT_LEASE_TIMEOUT / 2
        assert all(o.status == "completed" for o in outcomes)
        assert not os.path.exists(fuse)
        assert history(store, victim.run_hash()) == [RUNNING, RUNNING, COMPLETED]
        assert FAILED not in [r.status for r in store.iter_records()]
        assert executor.metrics.snapshot()["campaign.requeues"] == 1
        # The dead worker was replaced, and nobody outlived submit().
        assert len(children) == 3
        assert_all_gone(children)

    def test_poison_run_fails_alone_siblings_complete(
        self, tmp_path, monkeypatch, children
    ):
        """A run that kills ``max_requeues + 1`` workers: exactly that
        hash is recorded failed, siblings complete, and a resubmission
        retries it."""
        batch = specs()
        victim = batch[1]
        fuse = self._arm_fuse(
            monkeypatch, tmp_path, victim.run_hash(),
            trips=DEFAULT_MAX_REQUEUES + 1,
        )
        store = CampaignStore("kill", root=str(tmp_path))
        executor = CampaignExecutor(
            store, max_workers=2,
        )
        t0 = time.monotonic()
        outcomes = executor.submit(batch)
        assert time.monotonic() - t0 < service.DEFAULT_LEASE_TIMEOUT / 2

        by_hash = {o.run_hash: o for o in outcomes}
        assert by_hash[victim.run_hash()].status == "failed"
        assert "lease expired" in by_hash[victim.run_hash()].error
        siblings = [o for o in outcomes if o.run_hash != victim.run_hash()]
        assert all(o.status == "completed" for o in siblings)
        assert store.latest_records()[victim.run_hash()].status == FAILED
        assert not os.path.exists(fuse)
        assert_all_gone(children)

        # Failed-by-crash is not a store hit: the resubmission retries
        # the victim (the fuse is burnt out) and hits on the siblings.
        again = executor.submit(batch)
        by_hash = {o.run_hash: o for o in again}
        assert by_hash[victim.run_hash()].status == "completed"
        assert all(
            o.skipped for o in again if o.run_hash != victim.run_hash()
        )
        summary = campaign_summary(store)
        assert summary["completed"] == 4 and summary["failed"] == 0
        assert summary["interrupted"] == 0

    def test_unstartable_workers_fail_the_remainder(
        self, tmp_path, monkeypatch, children
    ):
        """Children that die before taking a run are replaced a bounded
        number of times; then the remainder is failed with a typed
        error — submit() never waits in the serving loop forever."""

        def unreachable(host, port):
            raise service.ChannelClosedError(f"no coordinator at {host}:{port}")

        # Set in this process, seen by every child forked from it.
        monkeypatch.setattr(service, "SocketWorkerChannel", unreachable)
        store = CampaignStore("barren", root=str(tmp_path))
        executor = CampaignExecutor(
            store, max_workers=2,
        )
        t0 = time.monotonic()
        outcomes = executor.submit(specs())
        assert time.monotonic() - t0 < service.DEFAULT_LEASE_TIMEOUT / 2
        assert [o.status for o in outcomes] == ["failed"] * 4
        assert all("ChannelClosedError" in o.error for o in outcomes)
        assert 2 <= len(children) <= 2 + DEFAULT_MAX_REQUEUES + 1
        assert_all_gone(children)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="reads /proc/<pid>/fd"
    )
    def test_no_forked_worker_holds_a_coordinator_socket(
        self, tmp_path, monkeypatch, children
    ):
        """A child closes the listener and every accepted connection it
        inherits: else the port would outlive the coordinator, and a
        worker would see no EOF while a sibling forked after it holds
        its coordinator-side socket.  Checked when a replacement —
        forked with earlier workers connected — asks for its first job."""
        batch = many_specs(8)
        self._arm_fuse(monkeypatch, tmp_path, batch[0].run_hash(), trips=1)
        checks = []
        real_handle = service.Coordinator._handle

        def handle(coordinator, conn_id, msg):
            if (isinstance(msg, JobRequest) and len(children) > 2
                    and msg.worker == children[2].name and not checks):
                ours = endpoint_inodes(coordinator.endpoint)
                for proc in children:
                    held = socket_inodes(proc.pid) if proc.exitcode is None else None
                    if held is not None:
                        checks.append((proc.name, held, held & ours))
            real_handle(coordinator, conn_id, msg)

        monkeypatch.setattr(service.Coordinator, "_handle", handle)
        store = CampaignStore("fds", root=str(tmp_path))
        outcomes = CampaignExecutor(store, max_workers=2).submit(batch)
        assert all(o.status == "completed" for o in outcomes)
        assert len(children) == 3
        assert_all_gone(children)
        # The replacement was inspected, holding its own channel only.
        assert children[2].name in [name for name, _, _ in checks]
        assert all(held for _, held, _ in checks)
        assert [leaked for _, _, leaked in checks] == [set()] * len(checks)

    def test_killed_after_checkpoint_resumes_on_requeue(
        self, tmp_path, children
    ):
        """The executor's ``checkpoint_freq`` travels in the lease: a
        worker SIGKILLed after its first checkpoint leaves the file
        behind, and the requeued run resumes from it."""
        deck = dict(DECK, name="ckpt", steps=200, grid={"atwood": [0.3, 0.4]})
        batch = CampaignDeck.from_dict(deck).expand()
        victim = batch[0].run_hash()
        store = CampaignStore("ckpt", root=str(tmp_path))
        killed = []

        def kill_after_first_checkpoint():
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not killed:
                if os.path.exists(store.checkpoint_path(victim)):
                    owner = store.claimed_runs()[victim].owner
                    children[int(owner.rsplit("-", 1)[1])].kill()
                    killed.append(owner)
                time.sleep(0.005)

        killer = threading.Thread(target=kill_after_first_checkpoint)
        killer.start()
        outcomes = CampaignExecutor(
            store, max_workers=2, checkpoint_freq=2,
        ).submit(batch)
        killer.join(timeout=60.0)
        assert not killer.is_alive() and killed
        assert all(o.status == "completed" for o in outcomes)
        assert outcomes[0].resumed_from_step > 0
        assert store.latest_records()[victim].resumed_from_step > 0
        assert not os.path.exists(store.checkpoint_path(victim))
        assert_all_gone(children)


class TestLeasedCampaign:
    """Four workers on a 32-run deck (more workers than this box has
    cores): exact counts for the O(1)-per-completion contract, and the
    shared-store invariants a lost update would break."""

    N = 32

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        store = CampaignStore(
            "many", root=str(tmp_path_factory.mktemp("leased"))
        )
        executor = CampaignExecutor(
            store, max_workers=4,
        )
        with pytest.MonkeyPatch.context() as mp:
            spies = install_spies(mp)
            t0 = time.monotonic()
            outcomes = executor.submit(many_specs(self.N))
            wall = time.monotonic() - t0
        return types.SimpleNamespace(
            store=store, executor=executor, outcomes=outcomes, wall=wall,
            **spies,
        )

    def test_model_evaluated_once_per_run(self, campaign):
        # Where the coordinator plans the batch; never per completion.
        assert 0 < len(campaign.costed) <= self.N

    def test_status_written_on_a_clock_not_per_completion(self, campaign):
        bound = 2 + math.ceil(campaign.wall / STATUS_WRITE_INTERVAL)
        assert 2 <= len(campaign.snapshots) <= bound
        check_final_snapshot(campaign.snapshots[-1], self.N)
        assert campaign.snapshots[-1]["worker_type"] == "process"

    def test_every_run_completed_exactly_once(self, campaign):
        assert [o.status for o in campaign.outcomes] == ["completed"] * self.N
        with open(campaign.store.index_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]  # no torn line
        assert len(records) == 2 * self.N
        for outcome in campaign.outcomes:
            assert history(campaign.store, outcome.run_hash) == [
                RUNNING, COMPLETED,
            ]
        metrics = campaign.executor.metrics.snapshot()
        assert metrics.get("campaign.requeues", 0) == 0
        assert metrics["campaign.service.workers_seen"] == 4

    def test_no_worker_outlives_submit(self, campaign):
        assert len(campaign.children) == 4
        assert_all_gone(campaign.children)


def install_spies(mp):
    """Count model evaluations, ``status.json`` writes and worker starts."""
    costed, snapshots = [], []
    real_cost = scheduler.estimate_cost
    real_write = CampaignStore.write_status

    def cost(spec, machine=scheduler.LASSEN):
        costed.append(spec.run_hash())
        return real_cost(spec, machine)

    def write(self, status):
        snapshots.append(status)
        return real_write(self, status)

    mp.setattr(scheduler, "estimate_cost", cost)
    mp.setattr(CampaignStore, "write_status", write)
    return {
        "costed": costed, "snapshots": snapshots,
        "children": record_children(mp),
    }


def check_final_snapshot(snap, n):
    assert snap["done"] is True and snap["total"] == n
    assert snap["counts"] == {
        "queued": 0, "running": 0, "completed": n, "failed": 0,
        "skipped": 0, "interrupted": 0,
    }
    assert {run["state"] for run in snap["runs"].values()} == {"completed"}


class TestBareCoordinatorCounts:
    def test_serve_is_linear_in_model_evaluations_and_writes(
        self, tmp_path, monkeypatch
    ):
        """The same two exact counts through ``Coordinator.serve()``
        itself (it used to re-evaluate the model for every remaining
        run and rewrite ``status.json`` on every ``job-done``)."""
        n = 32
        store = CampaignStore("many", root=str(tmp_path))
        spies = install_spies(monkeypatch)
        endpoint = SocketEndpoint()
        coordinator = Coordinator(
            store, many_specs(n), endpoint, drain_grace=3.0,
        )
        threads = [
            threading.Thread(target=Worker(
                SocketWorkerChannel(*endpoint.address), worker_id=f"w{i}",
                idle_timeout=30.0, telemetry=False,
            ).run)
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        t0 = time.monotonic()
        summary = coordinator.serve()
        wall = time.monotonic() - t0
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert summary["completed"] == n and summary["requeued"] == 0
        assert 0 < len(spies["costed"]) <= 2 * n
        bound = 2 + math.ceil(wall / STATUS_WRITE_INTERVAL)
        assert 2 <= len(spies["snapshots"]) <= bound
        check_final_snapshot(spies["snapshots"][-1], n)
        assert spies["snapshots"][-1]["worker_type"] == "service"


# -- cross-process store stress -----------------------------------------------

def _stress_one(root, campaign, writer_id, hashes):
    """Append claim and completed records for a shared set of hashes."""
    store = CampaignStore(campaign, root=root)
    from repro.campaign.store import RunRecord

    for round_no in range(5):
        for run_hash in hashes:
            store.append(RunRecord(
                run_hash=run_hash, status=RUNNING,
                spec={"writer": writer_id},
            ))
            store.append(RunRecord(
                run_hash=run_hash, status=COMPLETED,
                spec={"writer": writer_id},
                result={"writer": writer_id, "round": round_no, "pad": "x" * 512},
            ))


class TestCrossProcessStore:
    def test_concurrent_writers_never_tear_the_index(self, tmp_path):
        """N spawned processes hammering the same hashes: every index
        line stays parseable, last-record-wins holds, and every
        completed record's result loads whole."""
        root, campaign = str(tmp_path), "stress"
        hashes = [f"hash{i:02d}" for i in range(4)]
        n_writers = 4
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=_stress_one, args=(root, campaign, w, hashes)
            )
            for w in range(n_writers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0

        store = CampaignStore(campaign, root=root)
        records = list(store.iter_records())
        # 2 records per (writer, round, hash): nothing torn, nothing lost.
        assert len(records) == 2 * n_writers * 5 * len(hashes)
        latest = store.latest_records()
        assert set(latest) == set(hashes)
        for run_hash in hashes:
            assert latest[run_hash].status == COMPLETED
            result = store.load_result(run_hash)
            assert result is not None
            # One write per append means the result matches SOME
            # complete write — a whole record, never an interleaving.
            assert set(result) == {"writer", "round", "pad"}
