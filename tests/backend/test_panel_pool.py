"""The blocked all-pairs kernel on every core, reduced in serial order.

``BlockedBackend.br_allpairs`` forms its panels on the calling
thread plus a process-wide pool and adds the products in the serial
loop's order, so the result must be *bitwise* the one-thread result for
any thread count.  Every comparison here is ``np.array_equal`` — no
tolerance, no timing — and the thread count is forced through the
module's ``_helper_threads`` hook, so the tests mean the same thing on
one CPU as on many.
"""

import os
import signal
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro import mpi
from repro.backend import blocked
from repro.backend.blocked import BlockedBackend
from repro.batch import ScenarioFleet
from repro.core import InitialCondition, Solver, SolverConfig
from repro.core.diagnostics import gather_global_state
from repro.core.solver import arithmetic_canary as _arithmetic_canary
from repro.core.solver import state_digest as _digest

IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)


@pytest.fixture
def helpers(monkeypatch):
    """``helpers(n)``: pin the pool threads beside the caller to ``n``."""

    def force(n):
        monkeypatch.setattr(blocked, "_helper_threads", lambda: n)

    return force


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool yet; the one a test creates is shut down after it."""
    monkeypatch.setattr(blocked, "_pool", None)
    yield
    if blocked._pool is not None:
        blocked._pool.shutdown()


def allpairs(t, s, om, eps2, *, symmetric=False, tile=256):
    out = np.zeros(t.shape)
    nb = t.shape[0]
    BlockedBackend(tile).br_allpairs(
        t, s, om, np.full(nb, eps2), np.full(nb, 0.3), out,
        symmetric=symmetric,
    )
    return out


def serial_and_threaded(helpers, *args, **kwargs):
    helpers(0)
    one = allpairs(*args, **kwargs)
    helpers(3)
    many = allpairs(*args, **kwargs)
    return one, many


def cloud(rng, nb, n):
    return rng.uniform(-2, 2, size=(nb, n, 3)), rng.normal(size=(nb, n, 3))


class TestSerialBits:
    @pytest.mark.parametrize("n", [1600, 2304])      # 40², 48²: ragged tiles
    def test_symmetric(self, helpers, rng, n):
        t, om = cloud(rng, 1, n)
        one, many = serial_and_threaded(helpers, t, t, om, 1e-3, symmetric=True)
        assert np.array_equal(one, many)

    @pytest.mark.parametrize("nt,ns", [(300, 257), (1600, 700)])
    def test_non_symmetric_unequal_sizes(self, helpers, rng, nt, ns):
        t, _ = cloud(rng, 1, nt)
        s, om = cloud(rng, 1, ns)
        one, many = serial_and_threaded(helpers, t, s, om, 1e-3)
        assert np.array_equal(one, many)

    def test_fleet_with_multi_scenario_chunks(self, helpers, rng):
        """32-point scenarios: 64 share one panel, 150 make three chunks."""
        t, om = cloud(rng, 150, 32)
        one, many = serial_and_threaded(helpers, t, t, om, 1e-2, symmetric=True)
        assert np.array_equal(one, many)

    def test_fleet_with_one_scenario_per_chunk(self, helpers, rng):
        t, om = cloud(rng, 5, 600)
        one, many = serial_and_threaded(helpers, t, t, om, 1e-2, symmetric=True)
        assert np.array_equal(one, many)

    def test_coincident_non_self_pairs(self, helpers, rng):
        s, om = cloud(rng, 1, 700)
        t = np.concatenate([s[:, ::3], s[:, 1::3]], axis=1)   # shared points
        one, many = serial_and_threaded(helpers, t, s, om, 1e-3)
        assert np.all(np.isfinite(one))
        assert np.array_equal(one, many)

    def test_zero_epsilon_self_pairs(self, helpers, rng):
        t, om = cloud(rng, 1, 900)
        one, many = serial_and_threaded(helpers, t, t, om, 0.0, symmetric=True)
        assert np.all(np.isfinite(one))
        assert np.array_equal(one, many)

    def test_periodic_images_solver_state(self, helpers):
        config = SolverConfig(
            num_nodes=(40, 40), order="high", br_images=True, dt=0.002,
            eps=0.05, backend="blocked",
        )

        def state():
            def program(comm):
                solver = Solver(comm, config, IC)
                solver.run(1)
                return gather_global_state(solver.pm)

            return mpi.run_spmd(1, program)[0]

        helpers(0)
        z1, w1 = state()
        helpers(3)
        z2, w2 = state()
        assert np.array_equal(z1, z2) and np.array_equal(w1, w2)


class TestConcurrency:
    def test_four_rank_threads_at_once_get_serial_bits(
        self, helpers, fresh_pool, rng
    ):
        """Four callers share a three-thread pool (more threads than
        cores) under a short switch interval; each gets serial bits."""
        clouds = [cloud(rng, 1, 1100) for _ in range(4)]
        helpers(0)
        expected = [allpairs(t, t, om, 1e-3, symmetric=True) for t, om in clouds]
        helpers(3)
        got = [None] * 4
        start = threading.Barrier(4)

        def rank(k):
            start.wait()
            t, om = clouds[k]
            got[k] = allpairs(t, t, om, 1e-3, symmetric=True)

        threads = [threading.Thread(target=rank, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for k in range(4):
            assert np.array_equal(got[k], expected[k]), k


class TestNoPoolForOnePanel:
    """Calls with a single panel never create the pool or a thread."""

    @pytest.fixture
    def fresh(self, fresh_pool, helpers):
        helpers(3)
        return threading.active_count()

    def test_one_panel_call(self, fresh, rng):
        t, om = cloud(rng, 1, 256)
        allpairs(t, t, om, 1e-3, symmetric=True)
        assert blocked._pool is None
        assert threading.active_count() == fresh

    def test_small_solo_run(self, fresh):
        config = SolverConfig(num_nodes=(16, 16), order="high", dt=0.002,
                              eps=0.1, backend="blocked")
        mpi.run_spmd(1, lambda comm: Solver(comm, config, IC).run(2))
        assert blocked._pool is None
        assert threading.active_count() == fresh

    def test_worker_run(self, fresh, tmp_path):
        from repro.campaign import CampaignDeck, CampaignExecutor, CampaignStore

        spec = CampaignDeck.from_dict({
            "name": "spy", "mode": "functional", "steps": 2,
            "base": {"order": "high", "num_nodes": [16, 16], "dt": 0.002,
                     "eps": 0.1, "backend": "blocked"},
            "ic": {"kind": "multi_mode", "magnitude": 0.05, "period": 3},
        }).expand()[0]
        store = CampaignStore("spy", root=str(tmp_path))
        executor = CampaignExecutor(store, max_workers=1, telemetry=False,
                                    status_interval=0.0)
        # What a campaign Worker executes for each leased run.
        assert executor.run_one(spec).status == "completed"
        assert blocked._pool is None
        assert threading.active_count() == fresh


class TestFleetStaging:
    """A fleet's stack is staged a slice of whole chunks at a time."""

    def test_stack_equals_each_scenario_alone(self, helpers, rng):
        helpers(1)
        t, om = cloud(rng, 40, 256)
        stacked = allpairs(t, t, om, 1e-2, symmetric=True)
        for k in range(40):
            one = slice(k, k + 1)
            alone = allpairs(t[one], t[one], om[one], 1e-2, symmetric=True)
            assert np.array_equal(stacked[one], alone), k

    def test_staging_memory_is_flat_in_the_stack(self, helpers, rng):
        helpers(1)

        def peak(nb):
            t, om = cloud(rng, nb, 256)
            out, eps2, pref = np.zeros_like(t), np.full(nb, 1e-2), np.ones(nb)
            kernel = BlockedBackend().br_allpairs
            kernel(t, t, om, eps2, pref, out, symmetric=True)  # warm scratch
            tracemalloc.start()
            try:
                kernel(t, t, om, eps2, pref, out, symmetric=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(128) < 1.2 * peak(16)


class TestPoolErrors:
    def test_task_error_reaches_caller_and_next_call_works(
        self, helpers, fresh_pool, monkeypatch, rng
    ):
        t, om = cloud(rng, 1, 1100)
        helpers(0)
        expected = allpairs(t, t, om, 1e-3, symmetric=True)
        helpers(1)
        real = blocked._panel_products
        caller = threading.current_thread()

        def failing(panels, **kwargs):
            if threading.current_thread() is not caller:
                raise RuntimeError("injected panel failure")
            return real(panels, **kwargs)

        monkeypatch.setattr(blocked, "_panel_products", failing)
        with pytest.raises(RuntimeError, match="injected panel failure"):
            allpairs(t, t, om, 1e-3, symmetric=True)
        monkeypatch.setattr(blocked, "_panel_products", real)
        assert np.array_equal(allpairs(t, t, om, 1e-3, symmetric=True), expected)


class TestFork:
    def test_forked_child_gets_a_pool_of_its_own(self, helpers, fresh_pool, rng):
        """A child forked after the parent's pool ran panels has none of
        its threads: reusing that pool would queue panels no thread ever
        takes, so the child must build its own and get the same bits."""
        helpers(2)
        t, om = cloud(rng, 1, 1024)
        parent = allpairs(t, t, om, 1e-3, symmetric=True)
        assert blocked._pool is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(10)  # a hang ends the child with SIGALRM
                child = allpairs(t, t, om, 1e-3, symmetric=True)
                code = 0 if np.array_equal(child, parent) else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


#: sha256 prefixes of the final global ``z`` and ``w`` bytes after two
#: steps of a 40×40 run, recorded with the one-thread kernel this pool
#: replaced.  Equal digests mean ``np.array_equal`` states, so store
#: entries written before the pool stay valid.  The low-order entries
#: were re-recorded when low order became a graph surface (its lateral
#: positions never move; numerics 4).
PARENT_STATES = {
    ("high", True, "numpy", 1): "2ff6370de9288fbe",
    ("high", True, "numpy", 2): "fcc6c9e0ae66e56f",
    ("high", True, "numpy", 4): "dd367dd32f80a4f2",
    ("high", True, "blocked", 1): "16d6c2601597fcc6",
    ("high", True, "blocked", 2): "410d0fcebcc43d94",
    ("high", True, "blocked", 4): "47a1cba3eff1957b",
    ("high", False, "numpy", 1): "1c83ef1f6e72b8ff",
    ("high", False, "numpy", 2): "95b95006d86d63b0",
    ("high", False, "numpy", 4): "89310f84754e9595",
    ("high", False, "blocked", 1): "a3098a6aa22d8a4e",
    ("high", False, "blocked", 2): "b788d982fd79cd92",
    ("high", False, "blocked", 4): "b5183d82904ecc17",
    ("low", True, "numpy", 1): "2da8fe6d289b87f2",
    ("low", True, "numpy", 2): "2da8fe6d289b87f2",
    ("low", True, "numpy", 4): "2da8fe6d289b87f2",
    ("low", True, "blocked", 1): "eee55ba308af1779",
    ("low", True, "blocked", 2): "eee55ba308af1779",
    ("low", True, "blocked", 4): "eee55ba308af1779",
}

#: The same digest over the final ``z`` and ``w`` of all 40 members of a
#: 16×16 fleet after two steps, keyed ``(order, periodic, backend, mu)``.
#: The periodic high-order blocked entry was recorded before the kernel
#: staged its stack in slices; the rest before the fleet shared the
#: solver's boundary plan, stage coefficients and Z-Model sources; the
#: low-order entries when low order became a graph surface.
PARENT_FLEET_STATES = {
    ("high", (True, True), "blocked", 0.0): "52570549139d1a66",
    ("high", (False, False), "blocked", 0.0): "7a349fc0da7c20ed",
    ("high", (True, False), "numpy", 0.0): "6570be9651ee7349",
    ("low", (True, True), "blocked", 0.0): "c5c04c36a59b5707",
    ("low", (True, True), "blocked", 0.02): "124019674bb03df0",
    ("medium", (True, True), "numpy", 0.0): "d211c66d755089bb",
    ("high", (False, False), "numpy", 0.01): "3cbaa833364b08ca",
}

#: Digest of the recording host's arithmetic for the operations those
#: runs use (BLAS GEMMs, einsum reductions, FFTs, powers).  A host whose
#: SIMD/BLAS kernels round differently reproduces neither this nor the
#: states above, so the pin is skipped there instead of failing.
ARITHMETIC_CANARY = "9ead8a9764082226"


class TestParentPin:
    @pytest.mark.parametrize("key", list(PARENT_STATES), ids=str)
    def test_states_equal_parent_snapshot(self, key):
        if _arithmetic_canary() != ARITHMETIC_CANARY:
            pytest.skip("snapshot recorded on a host with other BLAS/SIMD rounding")
        order, periodic, backend, ranks = key
        config = SolverConfig(
            num_nodes=(40, 40), order=order, periodic=(periodic, periodic),
            backend=backend, dt=0.002, eps=0.05,
            low=(-np.pi, -np.pi), high=(np.pi, np.pi),
        )

        def program(comm):
            solver = Solver(comm, config, IC)
            solver.run(2)
            return gather_global_state(solver.pm)

        z, w = mpi.run_spmd(ranks, program)[0]
        assert _digest(z, w) == PARENT_STATES[key]

    @pytest.mark.parametrize("key", list(PARENT_FLEET_STATES), ids=str)
    def test_fleet_states_equal_parent_snapshot(self, key):
        if _arithmetic_canary() != ARITHMETIC_CANARY:
            pytest.skip("snapshot recorded on a host with other BLAS/SIMD rounding")
        order, periodic, backend, mu = key
        config = SolverConfig(num_nodes=(16, 16), order=order, periodic=periodic,
                              mu=mu, dt=0.002, eps=0.1, backend=backend)
        fleet = ScenarioFleet(config, retain_state=True)
        ids = fleet.add_many([
            (replace(config, atwood=0.1 + 0.02 * k),
             InitialCondition(kind="multi_mode", magnitude=0.05, period=3,
                              seed=k), 2)
            for k in range(40)
        ])
        results = fleet.run()
        states = [a for sid in ids for a in (results[sid]["z"], results[sid]["w"])]
        assert _digest(*states) == PARENT_FLEET_STATES[key]
