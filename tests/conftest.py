"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import mpi
from repro.campaign.protocol import Heartbeat, SocketEndpoint

#: Both compute engines, the numpy reference first: every solve runs on
#: ``blocked``; tests reach ``numpy`` by name through ``backend=``.
ENGINES = ("numpy", "blocked")


@pytest.fixture
def rng():
    return np.random.default_rng(20240608)


def spmd(nranks, fn, *args, trace=None, timeout=60.0, **kwargs):
    """Run an SPMD function and return per-rank results."""
    return mpi.run_spmd(nranks, fn, *args, trace=trace, timeout=timeout, **kwargs)


@pytest.fixture
def run_spmd():
    return spmd


@pytest.fixture(autouse=True)
def campaign_logger():
    """Leave the ``repro.campaign`` logger as found, after every test:
    ``main`` installs a stderr handler and stops the logger propagating,
    which the ``caplog`` tests of other modules rely on."""
    logger = logging.getLogger("repro.campaign")
    handlers, propagate, level = logger.handlers[:], logger.propagate, logger.level
    yield
    logger.handlers[:] = handlers
    logger.propagate = propagate
    logger.setLevel(level)


@pytest.fixture
def campaign_log(caplog, monkeypatch):
    """``caplog`` holding the ``repro.campaign`` logger's INFO records,
    also after a CLI test's ``configure_logging`` stopped it propagating."""
    monkeypatch.setattr(logging.getLogger("repro.campaign"), "propagate", True)
    caplog.set_level(logging.INFO, logger="repro.campaign")
    return caplog


class RecordingEndpoint(SocketEndpoint):
    """A :class:`SocketEndpoint` that keeps the conversation: every
    non-heartbeat message received, and every one delivered, as
    ``(direction, conn_id, message)`` in :attr:`journal`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.journal = []

    def poll(self, timeout):
        messages = super().poll(timeout)
        self.journal.extend(
            ("recv", conn_id, msg) for conn_id, msg in messages
            if not isinstance(msg, Heartbeat)
        )
        return messages

    def send(self, conn_id, msg):
        delivered = super().send(conn_id, msg)
        if delivered:
            self.journal.append(("send", conn_id, msg))
        return delivered
