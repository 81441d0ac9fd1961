"""InitialCondition construction-time validation (one test per
rejection), and the state it evaluates on any broadcasting coordinates."""

import numpy as np
import pytest

from repro.core import InitialCondition, available_ic_kinds
from repro.core.initial_conditions import initial_state
from repro.util.errors import ConfigurationError


class TestConstructionValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="unknown initial-condition kind"):
            InitialCondition(kind="ripple")

    def test_unknown_kind_error_lists_registry(self):
        with pytest.raises(ConfigurationError) as err:
            InitialCondition(kind="nope")
        for kind in available_ic_kinds():
            assert kind in str(err.value)

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ConfigurationError, match="magnitude"):
            InitialCondition(kind="single_mode", magnitude=0.0)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ConfigurationError, match="magnitude"):
            InitialCondition(kind="multi_mode", magnitude=-0.05)

    def test_non_numeric_magnitude_rejected(self):
        # A string that survives to the eta kernels would TypeError
        # mid-run; the constructor must catch it as a config error.
        with pytest.raises(ConfigurationError, match="magnitude"):
            InitialCondition(kind="single_mode", magnitude="0.05")

    def test_zero_period_rejected(self):
        with pytest.raises(ConfigurationError, match="period"):
            InitialCondition(kind="single_mode", period=0)

    def test_negative_period_rejected(self):
        with pytest.raises(ConfigurationError, match="period"):
            InitialCondition(kind="multi_mode", period=-4)

    def test_non_numeric_period_rejected(self):
        with pytest.raises(ConfigurationError, match="period"):
            InitialCondition(kind="single_mode", period="4")


class TestValidConstruction:
    def test_every_registered_kind_constructs(self):
        for kind in available_ic_kinds():
            ic = InitialCondition(kind=kind, magnitude=0.1, period=2)
            assert ic.kind == kind

    def test_fractional_period_allowed(self):
        # The Figure 2 scenario uses period=0.5 (half a mode across the
        # domain); positivity, not integrality, is the contract.
        ic = InitialCondition(kind="single_mode", magnitude=0.12, period=0.5)
        assert ic.period == 0.5

    def test_registry_is_stable_and_public(self):
        kinds = available_ic_kinds()
        assert kinds == available_ic_kinds()
        for expected in ("single_mode", "multi_mode", "sech2", "gaussian",
                         "flat"):
            assert expected in kinds


class TestAxesInput:
    """The owned axes, shaped ``(n1, 1)`` and ``(1, n2)``, give bitwise
    the state the full meshgrids give."""

    @pytest.mark.parametrize("shape", [(16, 16), (64, 64), (512, 256), (37, 23)])
    @pytest.mark.parametrize("tilt", [0.0, 0.3])
    @pytest.mark.parametrize("kind", available_ic_kinds())
    def test_axes_equal_meshgrid(self, rng, kind, tilt, shape):
        ic = InitialCondition(kind=kind, magnitude=0.07, period=3, tilt=tilt)
        low = rng.uniform(-2.0, 0.0, size=2)
        extent = rng.uniform(0.5, 3.0, size=2)
        xs = low[0] + extent[0] * np.arange(shape[0]) / shape[0]
        ys = low[1] + extent[1] * np.arange(shape[1]) / shape[1]
        full = initial_state(ic, *np.meshgrid(xs, ys, indexing="ij"), low, extent)
        axes = initial_state(
            ic, *np.meshgrid(xs, ys, indexing="ij", sparse=True), low, extent
        )
        for got, expected in zip(axes, full):
            assert got.shape == expected.shape == shape + got.shape[2:]
            assert np.array_equal(got, expected)
