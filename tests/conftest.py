"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import mpi


@pytest.fixture
def rng():
    return np.random.default_rng(20240608)


def spmd(nranks, fn, *args, trace=None, timeout=60.0, **kwargs):
    """Run an SPMD function and return per-rank results."""
    return mpi.run_spmd(nranks, fn, *args, trace=trace, timeout=timeout, **kwargs)


@pytest.fixture
def run_spmd():
    return spmd


@pytest.fixture
def campaign_log(caplog, monkeypatch):
    """``caplog`` holding the ``repro.campaign`` logger's INFO records,
    also after a CLI test's ``configure_logging`` stopped it propagating."""
    monkeypatch.setattr(logging.getLogger("repro.campaign"), "propagate", True)
    caplog.set_level(logging.INFO, logger="repro.campaign")
    return caplog
