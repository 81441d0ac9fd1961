"""Scenario-pack loading and schema validation.

A *scenario pack* is one JSON or TOML file describing a named, citable
rocket-rig workload: the solver geometry/physics (``config``, a dict of
:class:`~repro.core.SolverConfig` fields), the interface perturbation
(``ic``, :class:`~repro.core.InitialCondition` fields), default run
parameters (``run.steps`` / ``run.ranks``) and — mandatorily — a
``provenance`` table citing the paper figure/table/section the numbers
come from (the convention bluesky's per-aircraft coefficient files use
for their Jane's references).

Every violation raises a typed :class:`ScenarioPackError` (a
:class:`~repro.util.errors.ConfigurationError`) naming the offending
pack file and, where one exists, the offending field — a malformed pack
must fail loudly at load time, never mid-run.

Schema (top-level keys)::

    name         required  pack identity; must equal the file stem
    family       required  grouping key (single_mode, multi_mode, ...)
    provenance   required  source + at least one figure/table/section
    config       required  SolverConfig fields (no 'backend': engines
                           are a machine choice, not scenario identity)
    ic           required  InitialCondition fields
    title        optional  one-line human title
    description  optional  prose for docs/gallery
    tags         optional  list of strings for registry filtering
    run          optional  default steps/ranks for CLI runs
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import tomllib
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.campaign.deck import build_config
from repro.core.initial_conditions import InitialCondition
from repro.core.solver import SolverConfig
from repro.util.errors import ConfigurationError

__all__ = ["PACK_SUFFIXES", "Scenario", "ScenarioPackError", "load_pack"]

#: File types the loader understands (both parse to one dict schema).
PACK_SUFFIXES = (".json", ".toml")

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")

_TOP_REQUIRED = ("name", "family", "provenance", "config", "ic")
_TOP_ALLOWED = frozenset(
    _TOP_REQUIRED + ("title", "description", "tags", "run")
)

#: Provenance keys that count as a citation into the source document.
_CITATION_KEYS = ("figure", "table", "section", "equation")
_PROVENANCE_ALLOWED = frozenset(
    ("source", "notes", "retrieved") + _CITATION_KEYS
)

_RUN_ALLOWED = frozenset(("steps", "ranks"))

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(SolverConfig))
_IC_FIELDS = frozenset(f.name for f in dataclasses.fields(InitialCondition))

#: SolverConfig fields a pack may not pin: they describe the machine a
#: run lands on, not the workload itself, and freezing them into a pack
#: would break backend sweeps and fleet batching across engines.
_MACHINE_FIELDS = frozenset(("backend",))


class ScenarioPackError(ConfigurationError):
    """A scenario pack failed schema validation.

    Carries the offending ``pack`` path and, when the failure is
    attributable to one key, the ``field`` name — so callers (CI's
    ``scenario-validate`` step, the registry, tests) can report exactly
    what to fix without parsing the message.
    """

    def __init__(self, pack: Any, message: str, field: Optional[str] = None):
        self.pack = os.fspath(pack) if pack is not None else None
        self.field = field
        where = self.pack or "<pack>"
        if field is not None:
            where = f"{where}, field {field!r}"
        super().__init__(f"scenario pack {where}: {message}")


@dataclass(frozen=True)
class Scenario:
    """One validated scenario pack, ready to instantiate.

    ``config`` and ``ic`` stay as the pack's plain JSON-ish dicts (the
    same shapes deck ``base``/``ic`` sections use) so deck expansion can
    layer overrides on top before freezing them into a
    :class:`~repro.campaign.deck.RunSpec`; :meth:`solver_config` /
    :meth:`initial_condition` build the typed objects directly.
    """

    name: str
    family: str
    provenance: dict[str, str]
    config: dict[str, Any]
    ic: dict[str, Any]
    title: str = ""
    description: str = ""
    tags: tuple[str, ...] = ()
    steps: int = 10
    ranks: int = 1
    path: str = ""

    # -- instantiation --------------------------------------------------------

    def solver_config(self, **overrides: Any) -> SolverConfig:
        """Build the pack's :class:`SolverConfig`.

        Keyword overrides replace pack fields; ``None`` values are
        skipped so callers can thread optional CLI flags through
        unconditionally (``solver_config(backend=args.backend)``).
        """
        params = dict(self.config)
        params.update(
            {k: v for k, v in overrides.items() if v is not None}
        )
        return build_config(params)

    def initial_condition(self, **overrides: Any) -> InitialCondition:
        """Build the pack's :class:`InitialCondition` (``None`` skipped)."""
        params = dict(self.ic)
        params.update(
            {k: v for k, v in overrides.items() if v is not None}
        )
        return InitialCondition(**params)

    def fleet_key(self, backend: Optional[str] = None):
        """Batch-fleet eligibility of the resolved pack.

        Returns :func:`repro.batch.fleet_key` of the pack's resolved
        config — a hashable grouping key when scenarios built from this
        pack can ride a :class:`~repro.batch.ScenarioFleet`, else
        ``None``.
        """
        from repro.batch import fleet_key

        return fleet_key(self.solver_config(backend=backend))

    # -- presentation ---------------------------------------------------------

    def citation(self) -> str:
        """Human-readable provenance line, e.g. ``paper, Figure 2, §4``."""
        parts = [self.provenance["source"]]
        parts += [
            self.provenance[key] for key in _CITATION_KEYS
            if self.provenance.get(key)
        ]
        return ", ".join(parts)

    def describe(self) -> str:
        cfg = self.config
        nodes = cfg.get("num_nodes", (64, 64))
        return (
            f"{self.name} [{self.family}] {nodes[0]}x{nodes[1]} "
            f"{cfg.get('order', 'low')}/{cfg.get('br_solver', 'exact')} "
            f"ic={self.ic.get('kind', 'single_mode')} "
            f"({self.citation()})"
        )


def _require(data: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in data:
        raise ScenarioPackError(path, "missing required key", field=key)
    return data[key]


def _check_str(value: Any, path: str, fld: str, allow_empty: bool = False) -> str:
    if not isinstance(value, str) or (not allow_empty and not value.strip()):
        raise ScenarioPackError(
            path, f"expected a non-empty string, got {value!r}", field=fld
        )
    return value


def _parse_file(path: str) -> Any:
    suffix = os.path.splitext(path)[1].lower()
    if suffix not in PACK_SUFFIXES:
        raise ScenarioPackError(
            path,
            f"unsupported pack type {suffix!r}; packs are "
            f"{' or '.join(PACK_SUFFIXES)}",
        )
    try:
        if suffix == ".toml":
            with open(path, "rb") as fh:
                return tomllib.load(fh)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioPackError(path, f"unreadable: {exc}") from exc
    except (json.JSONDecodeError, tomllib.TOMLDecodeError) as exc:
        raise ScenarioPackError(path, f"parse error: {exc}") from exc


def _validate_provenance(raw: Any, path: str) -> dict[str, str]:
    if not isinstance(raw, Mapping):
        raise ScenarioPackError(
            path, f"provenance must be a table, got {type(raw).__name__}",
            field="provenance",
        )
    unknown = set(raw) - _PROVENANCE_ALLOWED
    if unknown:
        raise ScenarioPackError(
            path,
            f"unknown provenance keys {sorted(unknown)}; allowed: "
            f"{sorted(_PROVENANCE_ALLOWED)}",
            field=f"provenance.{sorted(unknown)[0]}",
        )
    if "source" not in raw:
        raise ScenarioPackError(
            path, "provenance must name its source document",
            field="provenance.source",
        )
    provenance = {
        key: _check_str(value, path, f"provenance.{key}")
        for key, value in raw.items()
    }
    if not any(provenance.get(key) for key in _CITATION_KEYS):
        raise ScenarioPackError(
            path,
            "provenance must cite where in the source the parameters "
            f"come from: at least one of {list(_CITATION_KEYS)}",
            field="provenance",
        )
    return provenance


def _validate_params(
    raw: Any, path: str, key: str, known: frozenset, forbidden: frozenset
) -> dict[str, Any]:
    if not isinstance(raw, Mapping):
        raise ScenarioPackError(
            path, f"{key} must be a table, got {type(raw).__name__}", field=key
        )
    for name in raw:
        if name in forbidden:
            raise ScenarioPackError(
                path,
                f"{name!r} is machine-specific and cannot be pinned by a "
                "pack; select engines per run (--backend, deck axes, "
                "$REPRO_BACKEND)",
                field=f"{key}.{name}",
            )
        if name not in known:
            raise ScenarioPackError(
                path,
                f"unknown {key} field {name!r}; known fields: "
                f"{sorted(known - forbidden)}",
                field=f"{key}.{name}",
            )
    return dict(raw)


def load_pack(path: "str | os.PathLike") -> Scenario:
    """Load and schema-validate one scenario pack file.

    Returns the validated :class:`Scenario`; raises
    :class:`ScenarioPackError` naming the pack (and field, when
    attributable) on any violation — including config/IC values the
    typed constructors reject, so a pack that loads is a pack that runs.
    """
    path = os.fspath(path)
    data = _parse_file(path)
    if not isinstance(data, Mapping):
        raise ScenarioPackError(
            path, f"pack must be a table/object, got {type(data).__name__}"
        )
    unknown = set(data) - _TOP_ALLOWED
    if unknown:
        raise ScenarioPackError(
            path,
            f"unknown keys {sorted(unknown)}; allowed: {sorted(_TOP_ALLOWED)}",
            field=sorted(unknown)[0],
        )
    for key in _TOP_REQUIRED:
        _require(data, key, path)

    name = _check_str(data["name"], path, "name")
    if not _NAME_RE.match(name):
        raise ScenarioPackError(
            path,
            f"name {name!r} must match {_NAME_RE.pattern} (lowercase "
            "letters, digits, '-', '_')",
            field="name",
        )
    stem = os.path.splitext(os.path.basename(path))[0]
    if name != stem:
        raise ScenarioPackError(
            path,
            f"name {name!r} must equal the file stem {stem!r} so "
            "--scenario names map one-to-one onto pack files",
            field="name",
        )
    family = _check_str(data["family"], path, "family")
    title = _check_str(data.get("title", ""), path, "title", allow_empty=True)
    description = _check_str(
        data.get("description", ""), path, "description", allow_empty=True
    )

    raw_tags = data.get("tags", [])
    if not isinstance(raw_tags, (list, tuple)) or not all(
        isinstance(t, str) and t.strip() for t in raw_tags
    ):
        raise ScenarioPackError(
            path, f"tags must be a list of non-empty strings, got {raw_tags!r}",
            field="tags",
        )

    provenance = _validate_provenance(data["provenance"], path)
    config_params = _validate_params(
        data["config"], path, "config", _CONFIG_FIELDS, _MACHINE_FIELDS
    )
    ic_params = _validate_params(
        data["ic"], path, "ic", _IC_FIELDS, frozenset()
    )

    run = data.get("run", {})
    if not isinstance(run, Mapping):
        raise ScenarioPackError(
            path, f"run must be a table, got {type(run).__name__}", field="run"
        )
    unknown_run = set(run) - _RUN_ALLOWED
    if unknown_run:
        raise ScenarioPackError(
            path,
            f"unknown run keys {sorted(unknown_run)}; allowed: "
            f"{sorted(_RUN_ALLOWED)}",
            field=f"run.{sorted(unknown_run)[0]}",
        )
    for key in _RUN_ALLOWED:
        value = run.get(key)
        if value is not None and (not isinstance(value, int) or value < 1):
            raise ScenarioPackError(
                path, f"run.{key} must be a positive integer, got {value!r}",
                field=f"run.{key}",
            )

    scenario = Scenario(
        name=name,
        family=family,
        provenance=provenance,
        config=config_params,
        ic=ic_params,
        title=title,
        description=description,
        tags=tuple(raw_tags),
        steps=int(run.get("steps", 10)),
        ranks=int(run.get("ranks", 1)),
        path=path,
    )
    # Materialize both typed objects now: any value the SolverConfig /
    # InitialCondition constructors reject fails pack validation here,
    # wrapped with the pack path, instead of at first use.
    try:
        scenario.solver_config()
        scenario.initial_condition()
    except ConfigurationError as exc:
        raise ScenarioPackError(path, str(exc)) from exc
    except TypeError as exc:
        raise ScenarioPackError(path, f"bad field value: {exc}") from exc
    return scenario
