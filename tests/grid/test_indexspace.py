"""IndexSpace geometry, block-split arithmetic and mesh description."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.global_mesh import GlobalMesh2D
from repro.grid.indexspace import IndexSpace
from repro.util.errors import ConfigurationError
from repro.util.misc import split_extent


class TestIndexSpace:
    def test_shape_size(self):
        space = IndexSpace((1, 2), (4, 7))
        assert space.shape == (3, 5)
        assert space.size == 15
        assert not space.empty

    def test_empty(self):
        assert IndexSpace((0, 0), (0, 3)).empty

    def test_negative_extent_raises(self):
        with pytest.raises(ConfigurationError):
            IndexSpace((2,), (1,))

    def test_slices(self):
        arr = np.arange(24).reshape(4, 6)
        space = IndexSpace((1, 2), (3, 5))
        assert np.array_equal(arr[space.slices()], arr[1:3, 2:5])

    def test_shift(self):
        space = IndexSpace((2, 2), (4, 4))
        assert space.shift((1, -1)) == IndexSpace((3, 1), (5, 3))

    def test_intersect(self):
        a = IndexSpace((0, 0), (4, 4))
        b = IndexSpace((2, 3), (6, 8))
        assert a.intersect(b) == IndexSpace((2, 3), (4, 4))
        assert a.intersect(IndexSpace((4, 0), (5, 4))) is None

    def test_relative_to(self):
        space = IndexSpace((10, 20), (12, 25))
        rel = space.relative_to((10, 20))
        assert rel == IndexSpace((0, 0), (2, 5))

    @settings(max_examples=50, deadline=None)
    @given(
        mins=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        shape=st.tuples(st.integers(0, 20), st.integers(0, 20)),
        offset=st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
    )
    def test_shift_preserves_shape(self, mins, shape, offset):
        space = IndexSpace(mins, (mins[0] + shape[0], mins[1] + shape[1]))
        assert space.shift(offset).shape == space.shape


class TestSplitExtent:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 500), parts=st.integers(1, 32))
    def test_partition_properties(self, n, parts):
        if parts > n:
            parts = n
        ranges = [split_extent(n, parts, i) for i in range(parts)]
        # Exact cover, contiguous, balanced within 1.
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1


class TestGlobalMesh:
    def test_periodic_spacing(self):
        mesh = GlobalMesh2D.create((0, 0), (1, 2), (10, 20), (True, True))
        assert mesh.spacing(0) == pytest.approx(0.1)
        assert mesh.spacing(1) == pytest.approx(0.1)
        assert mesh.cell_area == pytest.approx(0.01)

    def test_nonperiodic_spacing_includes_endpoints(self):
        mesh = GlobalMesh2D.create((0, 0), (1, 1), (11, 11), (False, False))
        assert mesh.spacing(0) == pytest.approx(0.1)
        x = mesh.node_coordinate(0, 10)
        assert x == pytest.approx(1.0)

    def test_coordinates_meshgrid(self):
        mesh = GlobalMesh2D.create((0, 0), (4, 4), (4, 4), (True, True))
        X, Y = mesh.node_coordinates(IndexSpace.from_shape((4, 4)))
        assert X.shape == (4, 1) and Y.shape == (1, 4)
        assert X[2, 0] == pytest.approx(2.0)
        assert Y[0, 3] == pytest.approx(3.0)

    def test_degenerate_domain_raises(self):
        with pytest.raises(ConfigurationError):
            GlobalMesh2D.create((0, 0), (0, 1), (4, 4), (True, True))
