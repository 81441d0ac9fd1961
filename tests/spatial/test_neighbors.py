"""Neighbor search (ArborX substitute): cell list vs brute force."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import neighbors
from repro.spatial.binning import CellGrid, bin_points
from repro.spatial.neighbors import brute_force_lists, neighbor_lists
from repro.util.errors import ConfigurationError


class TestCellGrid:
    def test_covering(self):
        grid = CellGrid.covering(np.zeros(3), np.ones(3) * 2.5, 1.0)
        assert grid.dims == (3, 3, 3)

    def test_clamping(self):
        grid = CellGrid.covering(np.zeros(3), np.ones(3), 0.5)
        coords = grid.cell_coords(np.array([[-5.0, 0.6, 99.0]]))
        assert tuple(coords[0]) == (0, 1, grid.dims[2] - 1)

    def test_flatten_unique(self):
        grid = CellGrid((0, 0, 0), 1.0, (3, 4, 5))
        ids = set()
        for x in range(3):
            for y in range(4):
                for z in range(5):
                    ids.add(int(grid.flatten(np.array([[x, y, z]]))[0]))
        assert len(ids) == 60

    def test_bad_cell_raises(self):
        with pytest.raises(ConfigurationError):
            CellGrid((0, 0, 0), 0.0, (1, 1, 1))


def _row(lists, target):
    """Source indices listed for one target."""
    return lists.indices[lists.offsets[target]: lists.offsets[target + 1]]


class TestBinning:
    def test_cell_ranges_hold_their_points(self, rng):
        pts = rng.uniform(0, 3, size=(100, 3))
        grid = CellGrid.covering(np.zeros(3), np.full(3, 3.0), 1.0)
        binning = bin_points(pts, grid)
        ids = grid.cell_ids(pts)
        for cell in range(grid.ncells):
            expected = set(np.nonzero(ids == cell)[0])
            lo, hi = binning.cell_start[cell], binning.cell_start[cell + 1]
            assert set(binning.order[lo:hi]) == expected

    def test_total_preserved(self, rng):
        pts = rng.uniform(-1, 1, size=(57, 3))
        grid = CellGrid.covering(-np.ones(3), np.ones(3), 0.5)
        binning = bin_points(pts, grid)
        assert binning.cell_start[-1] == 57


class TestNeighborLists:
    @pytest.mark.parametrize(
        "layout", ["cloud", "one_z_layer", "one_cell", "targets_outside"]
    )
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        ns=st.integers(1, 150),
        nt=st.integers(1, 100),
        cutoff=st.floats(0.1, 2.0),
        batch_size=st.integers(1, 40),
        same_set=st.booleans(),
    )
    def test_matches_brute_force(
        self, layout, seed, ns, nt, cutoff, batch_size, same_set
    ):
        rng = np.random.default_rng(seed)
        src = rng.uniform(-2, 2, size=(ns, 3))
        tgt = src if same_set else rng.uniform(-2, 2, size=(nt, 3))
        if layout == "one_z_layer":
            src[:, 2] = 0.25
            tgt[:, 2] = 0.25
        elif layout == "one_cell":
            # Every point in one cell: batches smaller than its population.
            src *= 0.1 * cutoff
            tgt = tgt if same_set else tgt * 0.1 * cutoff
        elif layout == "targets_outside" and not same_set:
            tgt = tgt + np.array([3.0, -3.5, 0.0])
        with mock.patch.object(neighbors, "_TARGET_BATCH", batch_size):
            fast = neighbor_lists(tgt, src, cutoff)
        slow = brute_force_lists(tgt, src, cutoff)
        assert np.array_equal(fast.offsets, slow.offsets)
        for t in range(tgt.shape[0]):
            assert np.array_equal(
                np.sort(_row(fast, t)), _row(slow, t)
            )

    def test_empty_sources(self):
        out = neighbor_lists(np.zeros((5, 3)), np.empty((0, 3)), 1.0)
        assert out.num_targets == 5
        assert out.total_neighbors == 0

    def test_empty_targets(self):
        out = neighbor_lists(np.empty((0, 3)), np.zeros((5, 3)), 1.0)
        assert out.num_targets == 0

    def test_same_set_lists_every_point_itself(self, rng):
        pts = rng.uniform(-1, 1, size=(40, 3))
        lists = neighbor_lists(pts, pts, 0.8)
        assert all(t in _row(lists, t) for t in range(40))

    def test_boundary_inclusive(self):
        tgt = np.array([[0.0, 0.0, 0.0]])
        src = np.array([[1.0, 0.0, 0.0]])
        out = neighbor_lists(tgt, src, 1.0)
        assert out.total_neighbors == 1

    def test_cutoff_monotonic(self, rng):
        pts = rng.uniform(-1, 1, size=(60, 3))
        counts = [
            neighbor_lists(pts, pts, c).total_neighbors
            for c in (0.2, 0.5, 1.0, 4.0)
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 60 * 60  # full coverage at large cutoff

    def test_bad_cutoff_raises(self):
        with pytest.raises(ConfigurationError):
            neighbor_lists(np.zeros((1, 3)), np.zeros((1, 3)), -1.0)

    def test_counts_helper(self, rng):
        pts = rng.uniform(0, 1, size=(30, 3))
        out = neighbor_lists(pts, pts, 0.4)
        assert np.array_equal(out.counts(), np.diff(out.offsets))
        assert out.counts().sum() == out.total_neighbors
