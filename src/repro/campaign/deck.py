"""Declarative sweep decks: parameter grids → frozen run specs.

A :class:`CampaignDeck` is the batch analogue of a single rocket-rig
input deck: it names a campaign, fixes base solver/initial-condition
parameters, and declares swept axes either as a cartesian ``grid``
(every combination) or as ``zip`` axes (advanced together, like Python's
``zip``).  :meth:`CampaignDeck.expand` turns the deck into an ordered
list of :class:`RunSpec` — each a frozen (SolverConfig, InitialCondition,
ranks, steps, mode) tuple with a deterministic content hash that the
run store uses for content-addressed dedup.

Deck file example, JSON or TOML (see ``docs/campaign.md``)::

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
``base``/``ic`` dicts *underneath* the deck's own ``base``/``ic`` and
axis overrides, so campaigns sweep scenario packs exactly the way they
sweep any other axis::

    {"grid": {"scenario": ["multimode-periodic", "singlemode-rollup"],
              "atwood": [0.3, 0.5]}}

A scenario pack *is* a deck: one with no axes, plus metadata
(``family``, ``title``, ``description``, ``tags``, ``provenance``) that
never enters a :class:`RunSpec`.  Packs spell ``base`` as ``config``
and ``steps`` / ``ranks`` as ``run.steps`` / ``run.ranks``;
:meth:`CampaignDeck.from_dict` reads either layout and rejects a file
that mixes them.  Every schema violation raises :class:`DeckError`
naming the field as the file spells it.

Expansion always emits fully-resolved specs — a pack-derived RunSpec
hashes identically to the same parameters written out explicitly, so
store dedup, LJF scheduling and the batch fast path are unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import tomllib
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.core.initial_conditions import InitialCondition
from repro.core.solver import SolverConfig
from repro.fft.config import FftConfig
from repro.util.errors import ConfigurationError

__all__ = ["RunSpec", "CampaignDeck", "DeckError", "build_config"]

_MODES = ("functional", "model")

#: Deck key naming a scenario-registry pack to resolve underneath the deck.
_SCENARIO_KEY = "scenario"

#: SolverConfig fields stored as coordinate tuples (JSON carries lists).
_TUPLE_FIELDS = ("num_nodes", "low", "high", "periodic", "spatial_low", "spatial_high")

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SolverConfig)}
_IC_FIELDS = {f.name for f in dataclasses.fields(InitialCondition)}

#: SolverConfig fields that no longer exist: each at the one value every
#: run it could still describe carries, and why no other value loads.  A
#: deck, pack or payload may still name one at exactly that value (it is
#: dropped), and :class:`RunSpec` payloads keep carrying them, so a run
#: that spelled that value keeps its hash.
_RETIRED_FIELDS = {
    "skin": (0.0, "the Verlet-skin neighbor cache was removed"),
    "rebuild_freq": (0, "the Verlet-skin neighbor cache was removed"),
    "backend": ("blocked", "every solve runs on the blocked engine"),
}
_RETIRED_VALUES = {key: value for key, (value, _) in _RETIRED_FIELDS.items()}

#: Run-level keys: a pack nests them under ``run``, a deck also sweeps them.
_RUN_KEYS = ("steps", "ranks")

#: Second spellings of deck keys: a pack's ``config``, the short ``zip``.
_ALIASES = {"config": "base", "zip": "zip_axes"}

#: Provenance keys that count as a citation into the source document.
_CITATION_KEYS = ("figure", "table", "section", "equation")


class DeckError(ConfigurationError):
    """A deck or pack failed its schema check.

    ``field`` names the offending key as the file spells it
    (``run.steps``, ``config.atwod``, ``grid.ranks``) and ``path`` the
    file once it is known, so a caller can say exactly what to fix
    without parsing the message.
    """

    def __init__(self, message: str, field: Optional[str] = None,
                 path: Optional[str] = None) -> None:
        super().__init__(message)
        self.message, self.field, self.path = message, field, path

    def __str__(self) -> str:
        where = [self.path, self.field and f"field {self.field!r}"]
        where = ", ".join(w for w in where if w)
        return f"{where}: {self.message}" if where else self.message


def _check_count(value: Any, where: str) -> None:
    """``steps`` / ``ranks`` are positive integers: a bool, float or
    string would otherwise hash as a run distinct from its integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DeckError(
            f"{where} must be a positive integer, got {value!r}", where
        )


def build_config(params: dict[str, Any]) -> SolverConfig:
    """SolverConfig from a JSON-ish dict (lists → tuples, int fft index).

    The one dict→config path shared by deck expansion, process-pool
    payload rebuilds and the scenario-pack loader, so every consumer
    coerces tuple fields and ``fft_config`` indices identically.  A
    retired field loads only at its retired value.
    """
    kwargs = dict(params)
    for key, (retired, reason) in _RETIRED_FIELDS.items():
        value = kwargs.pop(key, retired)
        if value != retired:
            raise DeckError(
                f"{key} = {value!r}: {reason}, so only {retired!r} still "
                "loads", key,
            )
    for key in _TUPLE_FIELDS:
        if kwargs.get(key) is not None:
            kwargs[key] = tuple(kwargs[key])
    fft = kwargs.get("fft_config")
    if isinstance(fft, int):
        kwargs["fft_config"] = FftConfig.from_index(fft)
    elif isinstance(fft, dict):
        kwargs["fft_config"] = FftConfig(**fft)
    return SolverConfig(**kwargs)


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
            "config": {**_RETIRED_VALUES, **config},
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
    """A named sweep over solver / IC / run parameters.

    Built by :meth:`from_dict` / :meth:`from_file`, the one way in and
    the one schema check.  ``family`` … ``provenance`` are a scenario
    pack's metadata; ``path`` is the file the deck was read from.
    """

    name: str = "default"
    mode: str = "functional"
    steps: int = 10
    ranks: int = 1
    base: dict[str, Any] = field(default_factory=dict)
    ic: dict[str, Any] = field(default_factory=dict)
    grid: dict[str, list[Any]] = field(default_factory=dict)
    zip_axes: dict[str, list[Any]] = field(default_factory=dict)
    family: str = ""
    title: str = ""
    description: str = ""
    tags: list[str] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)
    path: str = field(default="", init=False, compare=False)

    def _check(self, spelled: dict[str, str]) -> None:
        """The deck schema; ``spelled`` maps a deck key to the file's
        spelling of it, so errors name the field the author wrote."""
        def where(key: str) -> str:
            return spelled.get(key, key)

        if self.mode not in _MODES:
            raise DeckError(
                f"deck mode must be one of {_MODES}, got {self.mode!r}", "mode"
            )
        for key in _RUN_KEYS:
            _check_count(getattr(self, key), where(key))
        for key in ("base", "ic", "grid", "zip_axes", "provenance"):
            if not isinstance(getattr(self, key), dict):
                raise DeckError(
                    f"{where(key)} must be a table, got "
                    f"{type(getattr(self, key)).__name__}", where(key),
                )
        unknown_base = sorted(
            set(self.base) - _CONFIG_FIELDS - set(_RETIRED_FIELDS)
            - {_SCENARIO_KEY}
        )
        if unknown_base:
            raise DeckError(
                f"unknown base config fields {unknown_base}; "
                f"SolverConfig fields: {sorted(_CONFIG_FIELDS)} "
                f"or 'scenario'", f"{where('base')}.{unknown_base[0]}",
            )
        unknown_ic = sorted(set(self.ic) - _IC_FIELDS)
        if unknown_ic:
            raise DeckError(
                f"unknown ic fields {unknown_ic}; "
                f"InitialCondition fields: {sorted(_IC_FIELDS)}",
                f"ic.{unknown_ic[0]}",
            )
        for section in ("grid", "zip_axes"):
            for key, values in getattr(self, section).items():
                axis = f"{where(section)}.{key}"
                self._check_axis(key, axis)
                if not isinstance(values, (list, tuple)) or not values:
                    raise DeckError(
                        f"axis {key!r} must be a non-empty list, got {values!r}",
                        axis,
                    )
                if key in _RUN_KEYS:
                    for value in values:
                        _check_count(value, axis)
        lengths = {len(v) for v in self.zip_axes.values()}
        if len(lengths) > 1:
            raise DeckError(
                f"zip axes must have equal lengths, got "
                f"{ {k: len(v) for k, v in self.zip_axes.items()} }",
                where("zip_axes"),
            )
        overlap = sorted(set(self.grid) & set(self.zip_axes))
        if overlap:
            raise DeckError(
                f"axes cannot be both grid and zip: {overlap}", overlap[0]
            )

    @staticmethod
    def _check_axis(key: str, axis: str) -> None:
        if key in _RUN_KEYS or key == _SCENARIO_KEY:
            return
        if key.startswith("ic."):
            if key[3:] not in _IC_FIELDS:
                raise DeckError(
                    f"unknown initial-condition axis {key!r}; "
                    f"fields: {sorted(_IC_FIELDS)}", axis,
                )
            return
        if key not in _CONFIG_FIELDS and key not in _RETIRED_FIELDS:
            raise DeckError(
                f"unknown deck axis {key!r}; SolverConfig fields: "
                f"{sorted(_CONFIG_FIELDS)}, 'ic.<field>', 'ranks', "
                f"'steps', 'scenario'", axis,
            )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignDeck":
        """Build and schema-check a deck from its file's dict.

        Reads a pack's layout too: ``config`` is ``base`` and
        ``run.steps`` / ``run.ranks`` are ``steps`` / ``ranks``.  A
        dict that sets one key in both layouts is rejected.
        """
        data = dict(data)
        spelled: dict[str, str] = {}
        for alias, key in _ALIASES.items():
            if alias in data:
                if key in data:
                    raise DeckError(
                        f"{alias!r} and {key!r} are one section in two "
                        "layouts; use one", alias,
                    )
                data[key], spelled[key] = data.pop(alias), alias
        run = data.pop("run", {})
        if not isinstance(run, dict):
            raise DeckError(
                f"run must be a table, got {type(run).__name__}", "run"
            )
        for key, value in run.items():
            if key not in _RUN_KEYS or key in data:
                raise DeckError(
                    f"unknown run key {key!r}; allowed: {list(_RUN_KEYS)}, "
                    "each set once, in 'run' or at the top level",
                    f"run.{key}",
                )
            data[key], spelled[key] = value, f"run.{key}"
        known = {f.name for f in dataclasses.fields(cls) if f.init}
        unknown = sorted(set(data) - known)
        if unknown:
            raise DeckError(
                f"unknown deck keys {unknown} (unknown keys are errors, "
                f"not extensions); allowed: "
                f"{sorted(known | set(_ALIASES) | {'run'})}", unknown[0],
            )
        deck = cls(**data)
        deck._check(spelled)
        return deck

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "CampaignDeck":
        """Read a ``.json`` or ``.toml`` deck or pack; ``name`` defaults
        to the file stem.  A :class:`DeckError` names the file."""
        path = os.fspath(path)
        stem, suffix = os.path.splitext(os.path.basename(path))
        try:
            if suffix.lower() == ".toml":
                with open(path, "rb") as fh:
                    data = tomllib.load(fh)
            elif suffix.lower() == ".json":
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            else:
                raise DeckError(
                    f"unsupported pack type {suffix!r}; deck and pack files "
                    "are .json or .toml"
                )
            if not isinstance(data, dict):
                raise DeckError(
                    f"a deck is a table/object, got {type(data).__name__}"
                )
            deck = cls.from_dict({"name": stem, **data})
        except (json.JSONDecodeError, tomllib.TOMLDecodeError) as exc:
            raise DeckError(f"parse error: {exc}", path=path) from exc
        except DeckError as exc:
            exc.path = path
            raise
        deck.path = path
        return deck

    def citation(self) -> str:
        """The provenance as one line, e.g. ``paper, Figure 2, §4``."""
        keys = ("source",) + _CITATION_KEYS
        return ", ".join(self.provenance[k] for k in keys if self.provenance.get(k))

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
        pack base/ic < deck ``base``/``ic`` < axis point values.  The
        deck's own ``steps`` / ``ranks`` apply, not the pack's.  The
        emitted spec carries only resolved parameters — no scenario
        field — so it content-hashes identically to the equivalent
        explicit deck.  A retired field at any value but its own raises
        :class:`DeckError` here, before any run is stored or dispatched.
        """
        specs = []
        for point in self._points():
            scenario_name = point.pop(_SCENARIO_KEY, self.base.get(_SCENARIO_KEY))
            config_params = {
                k: v for k, v in self.base.items() if k != _SCENARIO_KEY
            }
            ic_params = dict(self.ic)
            run = {"steps": self.steps, "ranks": self.ranks}
            if scenario_name is not None:
                from repro.scenarios import get_scenario

                pack = get_scenario(scenario_name)
                config_params = {**pack.base, **config_params}
                ic_params = {**pack.ic, **ic_params}
            for key, value in point.items():
                if key in run:
                    run[key] = value
                elif key.startswith("ic."):
                    ic_params[key[3:]] = value
                else:
                    config_params[key] = value
            specs.append(
                RunSpec(
                    config=build_config(config_params),
                    ic=InitialCondition(**ic_params),
                    mode=self.mode,
                    campaign=self.name,
                    **run,
                )
            )
        return specs
