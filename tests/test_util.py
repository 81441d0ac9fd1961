"""Utility helpers: decomposition arithmetic, formatting, errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import (
    CommunicationError,
    ConfigurationError,
    DeadlockError,
    RankAbortedError,
    ReproError,
    block_bounds,
    dims_create,
    human_bytes,
    prod,
    split_extent,
)
from repro.util.misc import (
    ceil_div,
    chunk_rows,
    geometric_levels,
    ilog2,
    is_pow2,
    round_up_pow2,
)


class TestErrorsHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (ConfigurationError, CommunicationError, DeadlockError,
                    RankAbortedError):
            assert issubclass(exc, ReproError)

    def test_deadlock_is_communication_error(self):
        assert issubclass(DeadlockError, CommunicationError)


class TestProd:
    def test_empty_is_one(self):
        assert prod([]) == 1

    def test_product(self):
        assert prod([2, 3, 4]) == 24


class TestBlockBounds:
    def test_matches_split_extent(self):
        bounds = block_bounds((10, 12), (2, 3), (1, 2))
        assert bounds == (split_extent(10, 2, 1), split_extent(12, 3, 2))

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            block_bounds((10,), (2, 2), (0, 0))


class TestHumanBytes:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, "0 B"), (512, "512 B"), (2048, "2.00 KiB"),
         (1536 * 1024, "1.50 MiB"), (3 * 1024**3, "3.00 GiB")],
    )
    def test_values(self, n, expected):
        assert human_bytes(n) == expected

    def test_negative(self):
        assert human_bytes(-2048) == "-2.00 KiB"


class TestPow2Helpers:
    def test_round_up(self):
        assert round_up_pow2(1) == 1
        assert round_up_pow2(5) == 8
        assert round_up_pow2(64) == 64

    def test_is_pow2(self):
        assert is_pow2(64) and not is_pow2(48) and not is_pow2(0)

    def test_ilog2(self):
        assert ilog2(1) == 0 and ilog2(1024) == 10 and ilog2(1023) == 9

    def test_invalid_raise(self):
        with pytest.raises(ConfigurationError):
            round_up_pow2(0)
        with pytest.raises(ConfigurationError):
            ilog2(0)


class TestCeilDiv:
    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(0, 10**6), b=st.integers(1, 10**4))
    def test_matches_math(self, a, b):
        import math

        assert ceil_div(a, b) == math.ceil(a / b)


class TestChunkRows:
    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 50), min_size=1, max_size=40),
        budget=st.integers(1, 64),
    )
    def test_runs_cover_rows_and_respect_budget(self, lengths, budget):
        lengths = np.array(lengths)
        first = np.cumsum(lengths) - lengths
        cuts = chunk_rows(first, int(lengths.sum()), budget)
        assert cuts[-1] == len(lengths)
        assert cuts == sorted(set(cuts))
        if lengths.sum() == 0:
            assert cuts == [len(lengths)]
            return
        assert cuts[0] == 0
        for k0, k1 in zip(cuts[:-1], cuts[1:]):
            # A run overshoots by less than the row that straddles its end.
            assert lengths[k0:k1].sum() < budget + max(lengths[k0:k1].max(), 1)

    def test_multiple_inside_the_last_row(self):
        assert chunk_rows(np.array([0, 100]), 130, 32) == [0, 1, 2]
        assert chunk_rows(np.array([0]), 40_000, 32_768) == [0, 1]


class TestGeometricLevels:
    def test_paper_sweep(self):
        assert geometric_levels(4, 1024, 4) == [4, 16, 64, 256, 1024]

    def test_includes_endpoint(self):
        assert geometric_levels(4, 100, 4)[-1] == 100

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            geometric_levels(0, 10)


class TestDimsCreateProperties:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 4096), ndims=st.integers(1, 3))
    def test_product_and_order(self, n, ndims):
        dims = dims_create(n, ndims)
        assert prod(dims) == n
        assert list(dims) == sorted(dims, reverse=True)
