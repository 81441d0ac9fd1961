"""Cross-engine parity: the blocked engine must match the numpy reference.

The contract (see :mod:`repro.backend.base`): engines may reorder
floating-point reductions but must agree with the reference to ~1e-12
relative accuracy, preserve the exact-zero self-interaction of the BR
quadrature, and record identical roofline ComputeEvent totals.
"""

import numpy as np
import pytest

from repro import mpi
from repro.backend import get_backend
from repro.core import InitialCondition, Solver, SolverConfig
from repro.core.kernels import br_velocity_allpairs
from tests.conftest import ENGINES, spmd

RTOL = 1e-12

#: Every non-reference engine.
OTHERS = [b for b in ENGINES if b != "numpy"]


def assert_matches(result, reference, context=""):
    scale = max(float(np.abs(reference).max()), 1e-30)
    np.testing.assert_allclose(
        result, reference, rtol=RTOL, atol=RTOL * scale, err_msg=context
    )


def _cloud(rng, n):
    pts = rng.uniform(-1.5, 1.5, size=(n, 3))
    om = rng.normal(size=(n, 3))
    return pts, om


@pytest.mark.parametrize("backend", OTHERS)
class TestKernelParity:
    def test_allpairs_disjoint_sets(self, backend, rng):
        tgt, _ = _cloud(rng, 83)
        src, om = _cloud(rng, 131)
        ref = br_velocity_allpairs(tgt, src, om, 0.05, 0.2, backend="numpy")
        got = br_velocity_allpairs(tgt, src, om, 0.05, 0.2, backend=backend)
        assert_matches(got, ref, f"{backend}: disjoint all-pairs")

    def test_allpairs_coincident_sets_without_hint(self, backend, rng):
        """targets is sources, but the caller never says so."""
        pts, om = _cloud(rng, 97)
        ref = br_velocity_allpairs(pts, pts, om, 0.05, 0.2, backend="numpy")
        got = br_velocity_allpairs(pts, pts, om, 0.05, 0.2, backend=backend)
        assert_matches(got, ref, f"{backend}: coincident all-pairs")

    def test_allpairs_symmetric_hint(self, backend, rng):
        pts, om = _cloud(rng, 600)  # > one tile, odd remainder
        ref = br_velocity_allpairs(pts, pts, om, 0.05, 0.2, backend="numpy")
        got = br_velocity_allpairs(
            pts, pts, om, 0.05, 0.2, backend=backend, symmetric=True
        )
        assert_matches(got, ref, f"{backend}: symmetric all-pairs")

    def test_allpairs_ragged_panels(self, backend, rng):
        """nt != ns, neither a multiple of the blocked panel edge."""
        tgt, _ = _cloud(rng, 300)
        src, om = _cloud(rng, 517)
        ref = br_velocity_allpairs(tgt, src, om, 0.05, 0.2, backend="numpy")
        got = br_velocity_allpairs(tgt, src, om, 0.05, 0.2, backend=backend)
        assert_matches(got, ref, f"{backend}: ragged all-pairs")

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_allpairs_coincident_non_self_pairs(self, backend, rng, symmetric):
        """Distinct indices at identical coordinates weigh exactly zero,
        inside a diagonal panel and across panels (two blocked panels
        plus a remainder of one)."""
        pts, om = _cloud(rng, 513)
        pts[8] = pts[7]
        pts[400] = pts[7]
        pts[512] = pts[300]
        ref = br_velocity_allpairs(pts, pts, om, 0.05, 0.2, backend="numpy")
        got = br_velocity_allpairs(
            pts, pts, om, 0.05, 0.2, backend=backend, symmetric=symmetric
        )
        assert_matches(got, ref, f"{backend}: coincident non-self pairs")

    def test_allpairs_self_term_exactly_zero(self, backend):
        pts = np.array([[0.2, -0.4, 1.0]])
        om = np.array([[1.0, 2.0, -3.0]])
        for symmetric in (False, True):
            out = br_velocity_allpairs(
                pts, pts, om, 0.1, 1.0, backend=backend, symmetric=symmetric
            )
            assert np.all(out == 0.0)

    def test_allpairs_duplicated_points_across_sets(self, backend, rng):
        """Exact duplicates between distinct target/source arrays."""
        src, om = _cloud(rng, 40)
        tgt = src[::2].copy()  # every other target coincides with a source
        ref = br_velocity_allpairs(tgt, src, om, 0.1, 0.5, backend="numpy")
        got = br_velocity_allpairs(tgt, src, om, 0.1, 0.5, backend=backend)
        assert_matches(got, ref, f"{backend}: duplicated points")

    def test_allpairs_empty_sets_are_noops(self, backend, rng):
        bk = get_backend(backend)
        tgt, _ = _cloud(rng, 5)
        tgt = tgt[None]
        empty = np.zeros((1, 0, 3))
        eps2, pref = np.array([0.01]), np.array([1.0])
        out = np.zeros((1, 5, 3))
        bk.br_allpairs(tgt, empty, empty, eps2, pref, out)
        assert np.all(out == 0.0)
        out0 = np.zeros((1, 0, 3))
        bk.br_allpairs(empty, tgt, np.ones_like(tgt), eps2, pref, out0)
        assert out0.shape == (1, 0, 3)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_allpairs_cutoff_mask(self, backend, rng, symmetric):
        """A stack of three, one cutoff each (the second spans two
        blocked panels, the last every pair): the engines agree on the
        sum and on each scenario's kept-pair count, the brute-force
        count of ordered pairs with r² <= cutoff², self pairs included."""
        pts = np.stack([_cloud(rng, 300)[0] for _ in range(3)])
        om = rng.normal(size=pts.shape)
        cut2 = np.array([0.3, 1.1, 6.0]) ** 2
        eps2, pref = np.full(3, 0.05 ** 2), np.full(3, 0.2)
        ref, got = np.zeros(pts.shape), np.zeros(pts.shape)
        ref_kept = get_backend("numpy").br_allpairs(
            pts, pts, om, eps2, pref, ref, cutoff2=cut2
        )
        kept = get_backend(backend).br_allpairs(
            pts, pts, om, eps2, pref, got, symmetric=symmetric, cutoff2=cut2
        )
        diff = pts[:, :, None] - pts[:, None]
        r2 = np.einsum("bijk,bijk->bij", diff, diff)
        brute = [np.count_nonzero(r2[b] <= cut2[b]) for b in range(3)]
        assert list(kept) == list(ref_kept) == brute
        assert brute[2] == 300 * 300
        assert_matches(got, ref, f"{backend}: masked all-pairs")

    def test_allpairs_cutoff_mask_disjoint_sets(self, backend, rng):
        tgt, _ = _cloud(rng, 83)
        src, om = _cloud(rng, 131)
        args = (tgt[None], src[None], om[None], np.array([0.0025]),
                np.array([0.2]))
        ref, got = np.zeros((1, 83, 3)), np.zeros((1, 83, 3))
        ref_kept = get_backend("numpy").br_allpairs(
            *args, ref, cutoff2=np.array([1.0])
        )
        kept = get_backend(backend).br_allpairs(
            *args, got, cutoff2=np.array([1.0])
        )
        assert list(kept) == list(ref_kept)
        assert 0 < kept[0] < 83 * 131
        assert_matches(got, ref, f"{backend}: masked disjoint all-pairs")

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_allpairs_cutoff_keeps_coincident_points_zero(
        self, backend, rng, symmetric
    ):
        """Under a mask, coincident points still weigh exactly zero: a
        lone point gets no velocity, and duplicates across panels match
        the reference."""
        bk = get_backend(backend)
        one = np.zeros((1, 1, 3))
        kept = bk.br_allpairs(
            np.array([[[0.2, -0.4, 1.0]]]), np.array([[[0.2, -0.4, 1.0]]]),
            np.array([[[1.0, 2.0, -3.0]]]), np.array([0.01]), np.array([1.0]),
            one, symmetric=symmetric, cutoff2=np.array([0.25]),
        )
        assert list(kept) == [1] and np.all(one == 0.0)
        pts, om = _cloud(rng, 513)
        pts[8] = pts[7]
        pts[400] = pts[7]
        pts[512] = pts[300]
        args = (pts[None], pts[None], om[None], np.array([0.0025]),
                np.array([0.2]))
        ref, got = np.zeros((1, 513, 3)), np.zeros((1, 513, 3))
        get_backend("numpy").br_allpairs(*args, ref, cutoff2=np.array([0.64]))
        bk.br_allpairs(*args, got, symmetric=symmetric,
                       cutoff2=np.array([0.64]))
        assert_matches(got, ref, f"{backend}: masked coincident pairs")

    def test_stencils_parity(self, backend, rng):
        nb = get_backend(backend)
        ref = get_backend("numpy")
        full = rng.normal(size=(2, 3, 23, 19))
        assert_matches(
            nb.stencil_dx(full, 0.07), ref.stencil_dx(full, 0.07),
            f"{backend}: dx",
        )
        assert_matches(
            nb.stencil_dy(full, 0.11), ref.stencil_dy(full, 0.11),
            f"{backend}: dy",
        )
        scalar = rng.normal(size=(2, 23, 19))
        assert_matches(
            nb.stencil_laplacian(scalar, 0.07, 0.11),
            ref.stencil_laplacian(scalar, 0.07, 0.11),
            f"{backend}: laplacian",
        )

    def test_rk3_axpy_parity_and_aliasing(self, backend, rng):
        nb = get_backend(backend)
        ref = get_backend("numpy")
        u = rng.normal(size=(7, 5, 3))
        u0 = rng.normal(size=(7, 5, 3))
        du = rng.normal(size=(7, 5, 3))
        want = u.copy()
        ref.rk3_axpy(want, want, 0.25, u0, 0.75, du, 0.003)
        got = u.copy()
        nb.rk3_axpy(got, got, 0.25, u0, 0.75, du, 0.003)
        assert_matches(got, want, f"{backend}: rk3 aliased")
        # Non-aliased output buffer must work too.
        out = np.empty_like(u)
        nb.rk3_axpy(out, u, 0.25, u0, 0.75, du, 0.003)
        assert_matches(out, want, f"{backend}: rk3 non-aliased")


@pytest.mark.parametrize("backend", ENGINES)
def test_allpairs_cutoff_past_every_pair_changes_no_bit(backend, rng):
    """``cutoff2`` beyond every pair is the unmasked kernel, bit for bit,
    on every engine (the reference included)."""
    pts, om = _cloud(rng, 600)
    args = (pts[None], pts[None], om[None], np.array([0.0025]),
            np.array([0.2]))
    plain, masked = np.zeros((1, 600, 3)), np.zeros((1, 600, 3))
    bk = get_backend(backend)
    assert bk.br_allpairs(*args, plain, symmetric=True) is None
    kept = bk.br_allpairs(*args, masked, symmetric=True,
                          cutoff2=np.array([100.0]))
    assert list(kept) == [600 * 600]
    assert np.array_equal(masked, plain)


#: Regression for the aliasing bug: every engine (the reference too)
#: must compute the fused update as if the RHS were fully materialized,
#: no matter which operand ``out`` shares memory with.
@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("alias", ["u", "u0", "du", "none"])
def test_rk3_axpy_aliasing_matrix(backend, alias, rng):
    bk = get_backend(backend)
    u = rng.normal(size=(6, 4, 3))
    u0 = rng.normal(size=(6, 4, 3))
    du = rng.normal(size=(6, 4, 3))
    coeffs = (0.25, 0.75, 0.003)
    want = coeffs[0] * u + coeffs[1] * u0 + coeffs[2] * du
    operands = {"u": u.copy(), "u0": u0.copy(), "du": du.copy()}
    out = operands[alias] if alias != "none" else np.empty_like(u)
    bk.rk3_axpy(
        out, operands["u"], coeffs[0], operands["u0"], coeffs[1],
        operands["du"], coeffs[2],
    )
    np.testing.assert_allclose(
        out, want, rtol=RTOL, atol=RTOL,
        err_msg=f"{backend}: rk3_axpy corrupts when out aliases {alias}",
    )


#: (order, br_solver) pairs covering every order and both BR solvers.
SOLVER_MATRIX = [
    ("low", "exact"),
    ("medium", "exact"),
    ("high", "exact"),
    ("high", "cutoff"),
]


def _solver_state(backend, order, br_solver, ranks=2):
    cfg = SolverConfig(
        num_nodes=(16, 16),
        low=(-np.pi, -np.pi), high=(np.pi, np.pi),
        order=order, br_solver=br_solver,
        cutoff=2.0, dt=0.004, eps=0.1, mu=0.05,
    )
    ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)

    def program(comm):
        solver = Solver(comm, cfg, ic, backend=backend)
        solver.run(3)
        from repro.core import gather_global_state

        z, w = gather_global_state(solver.pm)
        diag = solver.diagnostics()
        return (z, w, diag) if comm.rank == 0 else None

    return spmd(ranks, program)[0]


class TestSolverParity:
    """Full-stack parity: every order and both BR solvers, multi-rank."""

    @pytest.mark.parametrize("backend", OTHERS)
    @pytest.mark.parametrize("order,br_solver", SOLVER_MATRIX)
    def test_three_steps_match_reference(self, backend, order, br_solver):
        z_ref, w_ref, diag_ref = _solver_state("numpy", order, br_solver)
        z, w, diag = _solver_state(backend, order, br_solver)
        assert_matches(z, z_ref, f"{backend}/{order}/{br_solver}: positions")
        assert_matches(w, w_ref, f"{backend}/{order}/{br_solver}: vorticity")
        for key in ("amplitude", "vorticity_norm"):
            assert diag[key] == pytest.approx(diag_ref[key], rel=RTOL), (
                f"{backend}/{order}/{br_solver}: {key}"
            )


class TestComputeEventInvariance:
    """Roofline totals are a property of the physics, not the engine."""

    @pytest.mark.parametrize("order,br_solver", SOLVER_MATRIX)
    def test_totals_identical_across_backends(self, order, br_solver):
        def run(backend):
            trace = mpi.CommTrace()
            cfg = SolverConfig(
                num_nodes=(12, 12), low=(-np.pi, -np.pi), high=(np.pi, np.pi),
                order=order, br_solver=br_solver, cutoff=2.0,
                dt=0.004, eps=0.1, mu=0.02,
            )

            def program(comm):
                Solver(
                    comm, cfg, InitialCondition(kind="single_mode",
                                                magnitude=0.05),
                    backend=backend,
                ).step()

            spmd(2, program, trace=trace)
            return trace.compute_totals()

        reference = run("numpy")
        assert reference, "reference run recorded no compute events"
        assert "rk3_axpy" in reference  # the integrator accounts its axpys
        for backend in OTHERS:
            assert run(backend) == reference, (
                f"{backend} changed the recorded roofline totals"
            )


class TestDeckRunsMatchReference:
    """A campaign's runs, on the blocked engine every run uses, match
    the numpy reference solver on the same points."""

    def test_deck_points_match_the_reference_engine(self, tmp_path):
        from repro.campaign import CampaignDeck, CampaignExecutor, CampaignStore

        deck = CampaignDeck.from_dict({
            "name": "reference_axis",
            "mode": "functional",
            "steps": 2,
            "base": {"num_nodes": [12, 12], "order": "low", "dt": 0.004},
            "ic": {"kind": "single_mode", "magnitude": 0.05},
            "grid": {"atwood": [0.3, 0.5]},
        })
        specs = deck.expand()
        assert len({s.run_hash() for s in specs}) == 2  # distinct hashes

        store = CampaignStore(deck.name, root=str(tmp_path))
        outcomes = CampaignExecutor(store, max_workers=2).submit(specs)
        assert all(o.status == "completed" for o in outcomes)
        for spec, outcome in zip(specs, outcomes):
            def program(comm):
                solver = Solver(comm, spec.config, spec.ic, backend="numpy")
                solver.run(spec.steps)
                return solver.diagnostics()

            reference = spmd(spec.ranks, program)[0]
            got = outcome.result["diagnostics"]["amplitude"]
            assert got == pytest.approx(reference["amplitude"], rel=1e-10)
