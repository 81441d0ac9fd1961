"""Counters, gauges and histograms: the repo's metrics vocabulary.

A :class:`MetricsRegistry` is a thread-safe, name-addressed bag of three
instrument kinds:

* :class:`Counter` — monotonically increasing count (``batch.steps``,
  ``bufferpool.hits``, ``campaign.store_hits``);
* :class:`Gauge` — a settable last-value (``campaign.queued``);
* :class:`Histogram` — summary statistics (count/sum/min/max) of an
  observed distribution (``campaign.run_elapsed``).

Instruments are created on first use (``registry.counter("x").inc()``),
so publishing code never has to pre-declare anything.  ``snapshot()``
flattens the registry into the JSON-able dict that lands in per-run
telemetry documents and campaign ``status.json`` heartbeats.

Instrumented code holds a registry reference it got from its context —
solver-side code uses the one attached to its run's
:class:`~repro.mpi.trace.CommTrace` (``comm.trace.metrics``), campaign
code the executor's — so per-run isolation comes for free.  When
telemetry is disabled the context hands out :class:`NullMetrics`
instead, whose instruments are shared no-op singletons: the hot path
pays one dict lookup and an empty method call, nothing else.

This module deliberately imports nothing from the rest of ``repro`` so
the trace layer can depend on it without cycles.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_json(self) -> float:
        return self._value


class Gauge:
    """Last-value instrument (set/adjust, no monotonicity contract)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def to_json(self) -> float:
        return self._value


class Histogram:
    """Streaming summary (count/sum/min/max) of observed values."""

    __slots__ = ("name", "count", "sum", "min", "max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_json(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Thread-safe, create-on-first-use instrument registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Any] = {}

    def _get(self, name: str, cls: type) -> Any:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __iter__(self) -> Iterator[Any]:
        with self._lock:
            return iter(list(self._instruments.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able ``{name: value-or-summary}`` view, name-sorted."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: inst.to_json() for name, inst in items}

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()


class _NullInstrument:
    """Shared no-op endpoint behind every NullMetrics name."""

    __slots__ = ()
    name = "null"
    value = 0.0
    count = 0
    sum = 0.0
    min = None
    max = None
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return

    def set(self, value: float) -> None:
        return

    def adjust(self, delta: float) -> None:
        return

    def observe(self, value: float) -> None:
        return

    def to_json(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics(MetricsRegistry):
    """A registry that records nothing (telemetry disabled).

    Keeping the MetricsRegistry interface lets instrumented code
    publish unconditionally; the no-op singleton instrument makes the
    disabled path one attribute access plus an empty call.
    """

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def snapshot(self) -> Dict[str, Any]:
        return {}

