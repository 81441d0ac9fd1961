"""Neighbor search (ArborX substitute): chunk bounding boxes vs brute
force, and the uniform-grid binning the quadtree builds on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.binning import CellGrid, bin_points
from repro.spatial.neighbors import _CHUNK, brute_force_lists, chunk_pairs
from repro.util.errors import ConfigurationError


class TestCellGrid:
    def test_clamping(self):
        grid = CellGrid((0.0, 0.0, 0.0), 0.5, (2, 2, 2))
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


class TestBinning:
    def test_cell_ranges_hold_their_points(self, rng):
        pts = rng.uniform(0, 3, size=(100, 3))
        grid = CellGrid((0.0, 0.0, 0.0), 1.0, (3, 3, 3))
        binning = bin_points(pts, grid)
        ids = grid.cell_ids(pts)
        for cell in range(grid.ncells):
            expected = set(np.nonzero(ids == cell)[0])
            lo, hi = binning.cell_start[cell], binning.cell_start[cell + 1]
            assert set(binning.order[lo:hi]) == expected

    def test_total_preserved(self, rng):
        pts = rng.uniform(-1, 1, size=(57, 3))
        grid = CellGrid((-1.0, -1.0, -1.0), 0.5, (4, 4, 4))
        binning = bin_points(pts, grid)
        assert binning.cell_start[-1] == 57


def _listed(lists):
    return {tuple(p) for p in lists.pairs.tolist()}


def _needed(tgt, src, cutoff, symmetric):
    """The chunk pair of every pair within ``cutoff`` (brute force)."""
    offsets, indices = brute_force_lists(tgt, src, cutoff)
    targets = np.repeat(np.arange(tgt.shape[0]), np.diff(offsets))
    pairs = np.stack([targets // _CHUNK, indices // _CHUNK], axis=1)
    if symmetric:
        pairs.sort(axis=1)
    return {tuple(p) for p in pairs.tolist()}


class TestChunkPairs:
    @pytest.mark.parametrize(
        "layout", ["cloud", "one_z_layer", "one_chunk_box", "targets_outside",
                   "sheet"]
    )
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        ns=st.integers(1, 150),
        nt=st.integers(1, 100),
        cutoff=st.floats(0.1, 2.0),
        same_set=st.booleans(),
    )
    def test_lists_every_pair_within_the_cutoff(
        self, layout, seed, ns, nt, cutoff, same_set
    ):
        """Ragged sizes (``n % _CHUNK != 0``) included: every pair within
        the cutoff has its chunk pair listed, a symmetric list holds
        ``I <= J`` only, and rows come sorted."""
        rng = np.random.default_rng(seed)
        src = rng.uniform(-2, 2, size=(ns, 3))
        tgt = src if same_set else rng.uniform(-2, 2, size=(nt, 3))
        if layout == "one_z_layer":
            src[:, 2] = 0.25
            tgt[:, 2] = 0.25
        elif layout == "one_chunk_box":
            # Every point within one cutoff of every other.
            src *= 0.1 * cutoff
            tgt = tgt if same_set else tgt * 0.1 * cutoff
        elif layout == "targets_outside" and not same_set:
            tgt = tgt + np.array([3.0, -3.5, 0.0])
        elif layout == "sheet":
            # Mesh-ordered like the solver's points: chunks are strips.
            side = int(np.ceil(np.sqrt(ns)))
            i, j = np.divmod(np.arange(ns), side)
            src = np.stack([0.1 * i, 0.1 * j, 0.05 * np.sin(i + j)], axis=1)
            tgt = src if same_set else src[::-1][:nt] + 0.01
        lists = chunk_pairs(tgt, src, cutoff, symmetric=same_set)
        listed = _listed(lists)
        assert _needed(tgt, src, cutoff, same_set) <= listed
        assert len(listed) == len(lists.pairs)
        assert np.array_equal(lists.pairs, np.unique(lists.pairs, axis=0))
        if same_set:
            assert np.all(lists.pairs[:, 0] <= lists.pairs[:, 1])
        assert lists.pairs.max(initial=0) < max(
            -(-tgt.shape[0] // _CHUNK), -(-src.shape[0] // _CHUNK)
        )

    def test_far_chunks_are_not_listed(self):
        """Two clusters a long way apart: no cross pair is listed."""
        a = np.zeros((_CHUNK, 3))
        b = np.full((_CHUNK, 3), 10.0)
        pts = np.concatenate([a, b])
        lists = chunk_pairs(pts, pts, 1.0, symmetric=True)
        assert _listed(lists) == {(0, 0), (1, 1)}
        assert lists.candidates() == 2 * _CHUNK * _CHUNK

    def test_candidates_count_ordered_point_pairs(self, rng):
        pts = rng.uniform(-1, 1, size=(2 * _CHUNK + 5, 3))
        whole = chunk_pairs(pts, pts, 10.0, symmetric=True)
        assert len(whole.pairs) == 6            # 3 chunks, I <= J
        assert whole.candidates() == pts.shape[0] ** 2
        other = chunk_pairs(pts, pts[:7], 10.0)
        assert other.candidates() == pts.shape[0] * 7

    def test_empty_sets(self):
        assert len(chunk_pairs(np.zeros((5, 3)), np.empty((0, 3)), 1.0).pairs) == 0
        empty = chunk_pairs(np.empty((0, 3)), np.zeros((5, 3)), 1.0)
        assert len(empty.pairs) == 0 and empty.candidates() == 0

    def test_boundary_inclusive(self):
        tgt = np.array([[0.0, 0.0, 0.0]])
        src = np.array([[1.0, 0.0, 0.0]])
        assert _listed(chunk_pairs(tgt, src, 1.0)) == {(0, 0)}

    def test_bad_cutoff_raises(self):
        with pytest.raises(ConfigurationError):
            chunk_pairs(np.zeros((1, 3)), np.zeros((1, 3)), -1.0)


class TestBruteForce:
    def test_csr_rows(self, rng):
        pts = rng.uniform(-1, 1, size=(40, 3))
        offsets, indices = brute_force_lists(pts, pts, 0.8)
        assert offsets[0] == 0 and offsets[-1] == len(indices)
        for t in range(40):
            row = indices[offsets[t]:offsets[t + 1]]
            assert t in row and np.all(np.diff(row) > 0)
            d = np.linalg.norm(pts[row] - pts[t], axis=1)
            assert np.all(d <= 0.8)
