"""Utility helpers: decomposition arithmetic, row chunking, errors."""

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
    dims_create,
    prod,
)
from repro.util.misc import chunk_rows


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


class TestDimsCreateProperties:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 4096), ndims=st.integers(1, 3))
    def test_product_and_order(self, n, ndims):
        dims = dims_create(n, ndims)
        assert prod(dims) == n
        assert list(dims) == sorted(dims, reverse=True)
