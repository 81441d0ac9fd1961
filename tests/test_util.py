"""Utility helpers: decomposition arithmetic, errors."""

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


class TestDimsCreateProperties:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 4096), ndims=st.integers(1, 3))
    def test_product_and_order(self, n, ndims):
        dims = dims_create(n, ndims)
        assert prod(dims) == n
        assert list(dims) == sorted(dims, reverse=True)
