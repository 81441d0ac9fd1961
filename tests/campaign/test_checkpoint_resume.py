"""Checkpoint/resume: Solver state equivalence and executor resume."""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro import mpi
from repro.campaign import CampaignDeck, CampaignExecutor, CampaignStore, RunSpec
from repro.core import InitialCondition, Solver, SolverConfig
from repro.io import load_checkpoint
from repro.util.errors import ConfigurationError

CONFIG = SolverConfig(num_nodes=(16, 16), order="low", dt=0.002)
IC = InitialCondition(kind="multi_mode", magnitude=0.02, period=3)


def run_straight(ranks, steps):
    def program(comm):
        solver = Solver(comm, CONFIG, IC)
        solver.run(steps)
        return solver.diagnostics()

    return mpi.run_spmd(ranks, program)[0]


def write_checkpoint(path, ranks, steps):
    def program(comm):
        solver = Solver(comm, CONFIG, IC)
        solver.run(steps)
        return solver.save_checkpoint(path)

    return mpi.run_spmd(ranks, program)[0]


class TestSolverCheckpoint:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        reference = run_straight(2, 6)
        write_checkpoint(ck, 2, 3)

        def resume(comm):
            solver = Solver.from_checkpoint(comm, CONFIG, ck, IC)
            assert solver.step_count == 3
            solver.run(3)
            return solver.diagnostics()

        resumed = mpi.run_spmd(2, resume)[0]
        for key in reference:
            assert np.isclose(resumed[key], reference[key], rtol=1e-12), key

    def test_resume_is_decomposition_independent(self, tmp_path):
        """A checkpoint written on 1 rank resumes identically on 4."""
        ck = str(tmp_path / "ck.npz")
        reference = run_straight(1, 6)
        write_checkpoint(ck, 1, 3)

        def resume(comm):
            solver = Solver.from_checkpoint(comm, CONFIG, ck, IC)
            solver.run(3)
            return solver.diagnostics()

        resumed = mpi.run_spmd(4, resume)[0]
        assert np.isclose(resumed["amplitude"], reference["amplitude"], rtol=1e-10)
        assert np.isclose(
            resumed["vorticity_norm"], reference["vorticity_norm"], rtol=1e-10
        )

    def test_checkpoint_carries_metadata(self, tmp_path):
        ck = str(tmp_path / "meta.npz")
        path = write_checkpoint(ck, 1, 2)
        data = load_checkpoint(path)
        assert data["step"] == 2
        assert data["metadata"]["order"] == "low"
        assert data["metadata"]["num_nodes"] == [16, 16]

    def test_mesh_mismatch_rejected(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        write_checkpoint(ck, 1, 1)
        wrong = replace(CONFIG, num_nodes=(32, 32))

        def resume(comm):
            return Solver.from_checkpoint(comm, wrong, ck, IC)

        with pytest.raises(ConfigurationError, match="does not match"):
            mpi.run_spmd(1, resume)


class TestExecutorResume:
    def _spec(self, steps=6, ranks=2):
        return RunSpec(config=CONFIG, ic=IC, ranks=ranks, steps=steps)

    def test_interrupted_run_resumes_from_checkpoint(self, tmp_path):
        """An on-disk mid-run checkpoint is picked up, and the resumed
        diagnostics match an uninterrupted reference run."""
        reference = run_straight(2, 6)
        spec = self._spec(steps=6)
        store = CampaignStore("resume", root=str(tmp_path))
        # Simulate a campaign killed at step 3: the run dir holds the
        # checkpoint the interrupted attempt wrote.
        write_checkpoint(store.checkpoint_path(spec.run_hash()), 2, 3)

        (outcome,) = CampaignExecutor(store, max_workers=1).submit([spec])
        assert outcome.status == "completed"
        assert outcome.resumed_from_step == 3
        diag = outcome.result["diagnostics"]
        for key in reference:
            assert np.isclose(diag[key], reference[key], rtol=1e-12), key
        record = store.latest_records()[spec.run_hash()]
        assert record.resumed_from_step == 3
        # The completed run cleans up its in-progress checkpoint.
        assert not os.path.exists(store.checkpoint_path(spec.run_hash()))

    def test_periodic_checkpointing_during_run(self, tmp_path):
        """checkpoint_freq writes state mid-run (observed via on-disk
        mtime ordering is flaky; instead interrupt by truncating steps)."""
        spec = self._spec(steps=4)
        store = CampaignStore("freq", root=str(tmp_path))
        seen = []

        class SpyStore(CampaignStore):
            def checkpoint_path(self, run_hash):
                path = super().checkpoint_path(run_hash)
                seen.append(path)
                return path

        # The spy only observes in-process calls: pin the serial backend
        # (worker processes rebuild a plain CampaignStore).
        spy = SpyStore("freq", root=str(tmp_path))
        (outcome,) = CampaignExecutor(
            spy, max_workers=1, checkpoint_freq=2
        ).submit([spec])
        assert outcome.status == "completed"
        assert seen  # checkpoint path was exercised
        assert not os.path.exists(store.checkpoint_path(spec.run_hash()))

    def test_stale_full_checkpoint_ignored(self, tmp_path):
        """A checkpoint at >= requested steps does not trigger resume."""
        spec = self._spec(steps=3)
        store = CampaignStore("stale", root=str(tmp_path))
        write_checkpoint(store.checkpoint_path(spec.run_hash()), 2, 5)
        (outcome,) = CampaignExecutor(store, max_workers=1).submit([spec])
        assert outcome.status == "completed"
        assert outcome.resumed_from_step == 0
        assert outcome.result["diagnostics"]["steps"] == 3


def _truncate(path, keep=0.5):
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[: int(len(blob) * keep)])


class TestInterruptHardening:
    """Interrupts and torn checkpoints must neither pollute the store
    nor wedge a run hash (ISSUE 3 bugfixes)."""

    def _spec(self, steps=6, ranks=1):
        return RunSpec(config=CONFIG, ic=IC, ranks=ranks, steps=steps)

    def test_truncated_checkpoint_starts_fresh(self, tmp_path, campaign_log):
        """An unreadable checkpoint is discarded with a warning and the
        run restarts from scratch — it used to crash the run forever."""
        reference = run_straight(1, 4)
        spec = self._spec(steps=4, ranks=1)
        store = CampaignStore("torn", root=str(tmp_path))
        ck = write_checkpoint(store.checkpoint_path(spec.run_hash()), 1, 2)
        _truncate(ck)
        executor = CampaignExecutor(store, max_workers=1)
        (outcome,) = executor.submit([spec])
        assert outcome.status == "completed"
        assert outcome.resumed_from_step == 0
        assert any("unreadable" in msg for msg in campaign_log.messages)
        assert not os.path.exists(store.checkpoint_path(spec.run_hash()))
        for key in reference:
            assert np.isclose(
                outcome.result["diagnostics"][key], reference[key], rtol=1e-12
            ), key

    def test_stale_checkpoint_file_is_removed(self, tmp_path):
        """A checkpoint that cannot seed a resume (step >= steps) is
        deleted at detection time, not left to shadow future attempts."""
        spec = self._spec(steps=3, ranks=1)
        store = CampaignStore("shadow", root=str(tmp_path))
        ck = write_checkpoint(store.checkpoint_path(spec.run_hash()), 1, 7)
        assert os.path.exists(ck)
        (outcome,) = CampaignExecutor(store, max_workers=1).submit([spec])
        assert outcome.status == "completed" and outcome.resumed_from_step == 0
        assert not os.path.exists(ck)

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_propagates_without_store_record(
        self, tmp_path, monkeypatch, interrupt
    ):
        """Ctrl-C / SystemExit must escape run_one — not be recorded as
        a run *failure* in the persistent store (it used to be)."""
        store = CampaignStore("intr", root=str(tmp_path))
        executor = CampaignExecutor(store, max_workers=1)
        monkeypatch.setattr(
            CampaignExecutor, "_run_functional",
            lambda self, spec, run_hash: (_ for _ in ()).throw(interrupt()),
        )
        with pytest.raises(interrupt):
            executor.run_one(self._spec())
        assert list(store.iter_records()) == []

    def test_real_exception_is_still_recorded(self, tmp_path, monkeypatch):
        store = CampaignStore("fail", root=str(tmp_path))
        executor = CampaignExecutor(store, max_workers=1)
        monkeypatch.setattr(
            CampaignExecutor, "_run_functional",
            lambda self, spec, run_hash: (_ for _ in ()).throw(
                RuntimeError("kaboom")
            ),
        )
        outcome = executor.run_one(self._spec())
        assert outcome.status == "failed" and "kaboom" in outcome.error
        records = list(store.iter_records())
        assert len(records) == 1 and records[0].status == "failed"

    def test_crash_resume_end_to_end(self, tmp_path):
        """The full interrupted-campaign story: a run is killed right
        after writing a checkpoint (which the kill then tears), the
        interrupt reaches the operator uncorrupted, and resubmission
        recovers with a clean fresh start matching an uninterrupted
        reference."""
        reference = run_straight(1, 6)
        spec = self._spec(steps=6, ranks=1)
        store = CampaignStore("crash", root=str(tmp_path))
        # The save_checkpoint monkeypatch below lives in this process:
        # pin the serial backend so the run actually sees it.
        executor = CampaignExecutor(
            store, max_workers=1, checkpoint_freq=2
        )

        real_save = Solver.save_checkpoint
        with pytest.MonkeyPatch.context() as mp:
            def save_then_die(solver, path):
                out = real_save(solver, path)
                raise KeyboardInterrupt  # operator hits Ctrl-C mid-campaign
            mp.setattr(Solver, "save_checkpoint", save_then_die)
            with pytest.raises(KeyboardInterrupt):
                executor.submit([spec])

        # The interrupt left a checkpoint behind but no index record.
        ck = store.checkpoint_path(spec.run_hash())
        assert os.path.exists(ck)
        assert list(store.iter_records()) == []

        # The kill also tore the file (worst case): resubmission must
        # fall back to a clean fresh start, not crash on the torn .npz.
        _truncate(ck)
        (outcome,) = CampaignExecutor(store, max_workers=1).submit([spec])
        assert outcome.status == "completed"
        assert outcome.resumed_from_step == 0
        assert not os.path.exists(ck)
        for key in reference:
            assert np.isclose(
                outcome.result["diagnostics"][key], reference[key], rtol=1e-12
            ), key
        record = store.latest_records()[spec.run_hash()]
        assert record.status == "completed"

    def test_interrupt_while_leasing_leaves_no_child_and_no_failure(
        self, tmp_path, monkeypatch
    ):
        """Ctrl-C while worker processes hold leases: every child is
        gone when submit() has unwound, the unfinished runs read
        ``interrupted`` in status.json, nothing is recorded failed, and
        a resubmission completes the remainder."""
        import json

        import repro.campaign.service as service

        deck = CampaignDeck.from_dict({
            "name": "ctrlc", "mode": "functional", "steps": 4,
            "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
            "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
            # Two engines x three runs: each group under the fleet
            # minimum, so every run is its own lease.
            "grid": {"atwood": [0.2, 0.3, 0.4], "backend": ["numpy", "blocked"]},
        })
        specs = deck.expand()
        store = CampaignStore("ctrlc", root=str(tmp_path))
        children = []
        real_fork = service._fork_worker

        def recording_fork(*args, **kwargs):
            children.append(real_fork(*args, **kwargs))
            return children[-1]

        real_done = service.Coordinator._handle_done

        def done_then_ctrl_c(coordinator, msg):
            real_done(coordinator, msg)
            raise KeyboardInterrupt  # operator hits Ctrl-C mid-campaign

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(service, "_fork_worker", recording_fork)
            mp.setattr(service.Coordinator, "_handle_done", done_then_ctrl_c)
            with pytest.raises(KeyboardInterrupt):
                CampaignExecutor(store, max_workers=2).submit(specs)

        assert len(children) == 2
        for proc in children:
            assert proc.exitcode is not None, "a worker outlived submit()"
        with open(store.status_path, encoding="utf-8") as fh:
            status = json.load(fh)
        assert status["done"] is True
        assert status["counts"]["completed"] == 1
        assert status["counts"]["interrupted"] == len(specs) - 1
        assert status["counts"]["failed"] == 0
        assert all(r.status != "failed" for r in store.iter_records())

        again = CampaignExecutor(store, max_workers=2).submit(specs)
        # The run whose job-done raised is a store hit — and so is the
        # other worker's, if it had recorded before being terminated.
        assert {o.status for o in again} == {"completed", "skipped"}
        assert sum(o.skipped for o in again) in (1, 2)
