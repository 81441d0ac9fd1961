"""Declarative sweep decks: parameter grids → frozen run specs.

A :class:`CampaignDeck` is the batch analogue of a single rocket-rig
input deck: it names a campaign, fixes base solver/initial-condition
parameters, and declares swept axes either as a cartesian ``grid``
(every combination) or as ``zip`` axes (advanced together, like Python's
``zip``).  :meth:`CampaignDeck.expand` turns the deck into an ordered
list of :class:`RunSpec` — each a frozen (SolverConfig, InitialCondition,
ranks, steps, mode) tuple with a deterministic content hash that the
run store uses for content-addressed dedup.

Deck JSON example (see README "Campaign orchestration")::

    {
      "name": "fig9_small",
      "mode": "model",
      "steps": 10,
      "base": {"order": "low", "num_nodes": [64, 64]},
      "ic": {"kind": "multi_mode", "magnitude": 0.05, "period": 4},
      "grid": {"fft_config": [0, 7]},
      "zip": {"ranks": [4, 16], "num_nodes": [[64, 64], [128, 128]]}
    }

Axis keys name :class:`~repro.core.SolverConfig` fields (``fft_config``
accepts a Table-1 index), ``ic.<field>`` for initial-condition fields,
the run-level keys ``ranks`` / ``steps``, or ``scenario`` — a named
pack from the scenario registry (:mod:`repro.scenarios`).  A
``scenario`` value (in ``base`` or as an axis) resolves the pack's
``config``/``ic`` dicts *underneath* the deck's own ``base``/``ic`` and
axis overrides, so campaigns sweep scenario packs exactly the way they
sweep backends::

    {"grid": {"scenario": ["multimode-periodic", "singlemode-rollup"],
              "backend": ["numpy", "blocked"]}}

Expansion always emits fully-resolved specs — a pack-derived RunSpec
hashes identically to the same parameters written out explicitly, so
store dedup, LJF scheduling and the batch fast path are unchanged.
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.backend import available_backends
from repro.core.initial_conditions import InitialCondition
from repro.core.solver import SolverConfig
from repro.fft.config import FftConfig
from repro.util.errors import ConfigurationError

__all__ = ["RunSpec", "CampaignDeck", "build_config"]

_MODES = ("functional", "model")

#: Deck key naming a scenario-registry pack to resolve underneath the deck.
_SCENARIO_KEY = "scenario"

#: SolverConfig fields stored as coordinate tuples (JSON carries lists).
_TUPLE_FIELDS = ("num_nodes", "low", "high", "periodic", "spatial_low", "spatial_high")

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SolverConfig)}
_IC_FIELDS = {f.name for f in dataclasses.fields(InitialCondition)}


def build_config(params: dict[str, Any]) -> SolverConfig:
    """SolverConfig from a JSON-ish dict (lists → tuples, int fft index).

    The one dict→config path shared by deck expansion, process-pool
    payload rebuilds and the scenario-pack loader, so every consumer
    coerces tuple fields and ``fft_config`` indices identically.
    """
    kwargs = dict(params)
    for key in _TUPLE_FIELDS:
        if kwargs.get(key) is not None:
            kwargs[key] = tuple(kwargs[key])
    fft = kwargs.get("fft_config")
    if isinstance(fft, int):
        kwargs["fft_config"] = FftConfig.from_index(fft)
    elif isinstance(fft, dict):
        kwargs["fft_config"] = FftConfig(**fft)
    return SolverConfig(**kwargs)


def _check_backend(name: str) -> None:
    """Reject a ``backend`` no registered engine answers to.

    ``SolverConfig`` only resolves its engine when a solver is built, so
    without this a typo would surface as one memoized ``failed`` record
    per run instead of a bad deck.
    """
    engines = available_backends() + ["auto"]
    key = name.strip().lower()
    if key in engines:
        return
    suggestions = difflib.get_close_matches(key, engines, n=3)
    hint = f" (did you mean {', '.join(suggestions)}?)" if suggestions else ""
    raise ConfigurationError(
        f"unknown compute backend {name!r} in deck field 'backend'{hint}; "
        f"engines: {engines}"
    )


def _canonical(value: Any) -> Any:
    """JSON-stable form of a parameter value (tuples become lists)."""
    if isinstance(value, FftConfig):
        return value.index
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in sorted(value.items())}
    return value


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined point of a campaign."""

    config: SolverConfig
    ic: InitialCondition
    ranks: int = 1
    steps: int = 10
    mode: str = "functional"
    campaign: str = "default"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"run mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.ranks < 1:
            raise ConfigurationError(f"ranks must be >= 1, got {self.ranks}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")

    def payload(self) -> dict[str, Any]:
        """Canonical JSON-able form — the input to :meth:`run_hash`.

        ``fft_config`` is stored as its Table-1 index (not a nested
        dict), so reports can group by it directly.  Converted once per
        spec, like the hash, and shared: copy it before changing it.
        """
        return self._payload

    @functools.cached_property
    def _payload(self) -> dict[str, Any]:
        config = {
            f.name: _canonical(getattr(self.config, f.name))
            for f in dataclasses.fields(self.config)
        }
        return {
            "config": config,
            "ic": _canonical(dataclasses.asdict(self.ic)),
            "ranks": self.ranks,
            "steps": self.steps,
            "mode": self.mode,
        }

    @classmethod
    def from_payload(
        cls, payload: dict[str, Any], campaign: str = "default"
    ) -> "RunSpec":
        """Rebuild a spec from its :meth:`payload` dict.

        The inverse of :meth:`payload`: process-pool workers receive
        specs as payload dicts (no pickled dataclasses cross the
        process boundary) and rebuild them here.  The round trip is
        hash-preserving — ``from_payload(s.payload()).run_hash() ==
        s.run_hash()`` — which is what lets a worker process record
        results under the same content address the parent dispatched.
        """
        return cls(
            config=build_config(payload["config"]),
            ic=InitialCondition(**payload["ic"]),
            ranks=int(payload["ranks"]),
            steps=int(payload["steps"]),
            mode=payload["mode"],
            campaign=campaign,
        )

    def run_hash(self) -> str:
        """Deterministic content hash identifying this run.

        Computed once per spec object: the spec and everything it holds
        are frozen, so the hash is kept on the instance — outside the
        dataclass fields, hence not part of ``payload()``, equality or
        ``repr``, and a ``dataclasses.replace`` copy hashes afresh.
        """
        return self._run_hash

    @functools.cached_property
    def _run_hash(self) -> str:
        blob = json.dumps(self.payload(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def describe(self) -> str:
        cfg = self.config
        return (
            f"{cfg.order}/{cfg.br_solver} {cfg.num_nodes[0]}x{cfg.num_nodes[1]} "
            f"fft{cfg.fft_config.index} ranks={self.ranks} steps={self.steps} "
            f"[{self.mode}]"
        )


@dataclass
class CampaignDeck:
    """A named sweep over solver / IC / run parameters."""

    name: str = "default"
    mode: str = "functional"
    steps: int = 10
    ranks: int = 1
    base: dict[str, Any] = field(default_factory=dict)
    ic: dict[str, Any] = field(default_factory=dict)
    grid: dict[str, list[Any]] = field(default_factory=dict)
    zip_axes: dict[str, list[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"deck mode must be one of {_MODES}, got {self.mode!r}"
            )
        for key in list(self.grid) + list(self.zip_axes):
            self._validate_key(key)
        unknown_base = set(self.base) - _CONFIG_FIELDS - {_SCENARIO_KEY}
        if unknown_base:
            raise ConfigurationError(
                f"unknown base config fields {sorted(unknown_base)}; "
                f"SolverConfig fields: {sorted(_CONFIG_FIELDS)} "
                f"or 'scenario'"
            )
        unknown_ic = set(self.ic) - _IC_FIELDS
        if unknown_ic:
            raise ConfigurationError(
                f"unknown ic fields {sorted(unknown_ic)}; "
                f"InitialCondition fields: {sorted(_IC_FIELDS)}"
            )
        for key, values in {**self.grid, **self.zip_axes}.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(
                    f"axis {key!r} must be a non-empty list, got {values!r}"
                )
        lengths = {len(v) for v in self.zip_axes.values()}
        if len(lengths) > 1:
            raise ConfigurationError(
                f"zip axes must have equal lengths, got "
                f"{ {k: len(v) for k, v in self.zip_axes.items()} }"
            )
        overlap = set(self.grid) & set(self.zip_axes)
        if overlap:
            raise ConfigurationError(
                f"axes cannot be both grid and zip: {sorted(overlap)}"
            )

    @staticmethod
    def _validate_key(key: str) -> None:
        if key in ("ranks", "steps", _SCENARIO_KEY):
            return
        if key.startswith("ic."):
            if key[3:] not in _IC_FIELDS:
                raise ConfigurationError(
                    f"unknown initial-condition axis {key!r}; "
                    f"fields: {sorted(_IC_FIELDS)}"
                )
            return
        if key not in _CONFIG_FIELDS:
            raise ConfigurationError(
                f"unknown deck axis {key!r}; SolverConfig fields: "
                f"{sorted(_CONFIG_FIELDS)}, 'ic.<field>', 'ranks', "
                f"'steps', 'scenario'"
            )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignDeck":
        data = dict(data)
        if "zip" in data:
            data["zip_axes"] = data.pop("zip")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown deck keys {sorted(unknown)}; allowed: {sorted(known | {'zip'})}"
            )
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "CampaignDeck":
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        deck = cls.from_dict(data)
        if "name" not in data:
            stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
            deck.name = stem
        return deck

    # -- expansion ------------------------------------------------------------

    def _points(self) -> Iterator[dict[str, Any]]:
        """Yield override dicts: grid product × zip rows, in stable order."""
        grid_keys = sorted(self.grid)
        grid_values = [self.grid[k] for k in grid_keys]
        zip_keys = sorted(self.zip_axes)
        zip_len = len(next(iter(self.zip_axes.values()))) if self.zip_axes else 1
        for combo in itertools.product(*grid_values) if grid_keys else [()]:
            for row in range(zip_len):
                point = dict(zip(grid_keys, combo))
                for key in zip_keys:
                    point[key] = self.zip_axes[key][row]
                yield point

    def expand(self) -> list[RunSpec]:
        """Materialize every run of the sweep as a frozen :class:`RunSpec`.

        When a point (or ``base``) names a ``scenario``, the pack is
        resolved first and layered *under* the deck's own parameters:
        pack config/ic < deck ``base``/``ic`` < axis point values.  The
        emitted spec carries only resolved parameters — no scenario
        field — so it content-hashes identically to the equivalent
        explicit deck.  A ``backend`` that names no registered engine
        raises :class:`ConfigurationError` here, before any run is
        stored or dispatched.
        """
        specs = []
        for point in self._points():
            scenario_name = point.pop(_SCENARIO_KEY, self.base.get(_SCENARIO_KEY))
            config_params = {
                k: v for k, v in self.base.items() if k != _SCENARIO_KEY
            }
            ic_params = dict(self.ic)
            ranks, steps = self.ranks, self.steps
            if scenario_name is not None:
                from repro.scenarios import get_scenario

                pack = get_scenario(scenario_name)
                config_params = {**pack.config, **config_params}
                ic_params = {**pack.ic, **ic_params}
            for key, value in point.items():
                if key == "ranks":
                    ranks = int(value)
                elif key == "steps":
                    steps = int(value)
                elif key.startswith("ic."):
                    ic_params[key[3:]] = value
                else:
                    config_params[key] = value
            config = build_config(config_params)
            _check_backend(config.backend)
            specs.append(
                RunSpec(
                    config=config,
                    ic=InitialCondition(**ic_params),
                    ranks=ranks,
                    steps=steps,
                    mode=self.mode,
                    campaign=self.name,
                )
            )
        return specs

