"""The scenario registry: discovery, filtering and lookup of packs.

The registry is the single source of truth for *named workloads*, the
way :func:`repro.core.available_br_solvers` is for BR solvers and the
backend registry is for compute engines.  It scans one or more pack
roots — the repo's ``scenarios/`` directory plus any extra directories
named in ``$REPRO_SCENARIO_PATH`` (``os.pathsep``-separated) — loads
every ``*.json`` / ``*.toml`` pack through the schema-validating
:func:`~repro.scenarios.loader.load_pack`, and rejects duplicate names
across roots (two packs claiming one name is a configuration bug, not a
shadowing feature).

Consumers:

* ``rocketrig --scenario <name>`` / ``--list-scenarios`` (CLI),
* the ``scenario`` deck axis (campaign sweeps over packs),
* ``examples/`` scripts (thin pack loaders),
* the docs gallery generator and CI's ``scenario-validate`` step.
"""

from __future__ import annotations

import difflib
import os
from pathlib import Path
from typing import Iterable, Optional

from repro.scenarios.loader import PACK_SUFFIXES, Scenario, ScenarioPackError, load_pack
from repro.util.errors import ConfigurationError

__all__ = [
    "get_scenario",
    "iter_scenarios",
    "load_registry",
    "pack_roots",
    "scenario_families",
]

#: Extra pack directories, searched before the builtin root.
ENV_ROOTS = "REPRO_SCENARIO_PATH"


def _builtin_root() -> Optional[Path]:
    """The repo's ``scenarios/`` directory, if packs ship alongside us.

    Walks up from this file looking for a ``scenarios`` directory that
    actually contains pack files (the first candidate parent is the
    package itself, which holds only ``.py``).  Returns ``None`` when
    the library is used without its pack set — the registry is then
    empty rather than broken.
    """
    for parent in Path(__file__).resolve().parents:
        candidate = parent / "scenarios"
        if candidate.is_dir() and _pack_files(candidate):
            return candidate
    return None


def pack_roots(extra: Optional[Iterable["str | os.PathLike"]] = None) -> tuple[Path, ...]:
    """Directories scanned for packs, in search order.

    ``extra`` (and ``$REPRO_SCENARIO_PATH`` entries) come before the
    builtin ``scenarios/`` root; every root's packs land in one flat
    namespace — duplicates are an error, not a shadow.
    """
    roots: list[Path] = []
    if extra is not None:
        roots += [Path(os.fspath(p)) for p in extra]
    env = os.environ.get(ENV_ROOTS, "")
    roots += [Path(p) for p in env.split(os.pathsep) if p]
    builtin = _builtin_root()
    if builtin is not None:
        roots.append(builtin)
    seen: set[Path] = set()
    unique = []
    for root in roots:
        resolved = root.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(root)
    return tuple(unique)


def _pack_files(root: Path) -> list[Path]:
    if not root.is_dir():
        return []
    return sorted(
        p for p in root.iterdir()
        if p.is_file() and p.suffix.lower() in PACK_SUFFIXES
    )


def load_registry(
    roots: Optional[Iterable["str | os.PathLike"]] = None,
) -> dict[str, Scenario]:
    """Load every pack under the given roots (default :func:`pack_roots`).

    Returns ``{name: Scenario}`` in sorted-name order.  Raises
    :class:`ScenarioPackError` on the first malformed pack and on
    duplicate names, naming both claiming files.
    """
    search = (
        tuple(Path(os.fspath(r)) for r in roots) if roots is not None
        else pack_roots()
    )
    registry: dict[str, Scenario] = {}
    for root in search:
        for path in _pack_files(root):
            scenario = load_pack(path)
            clash = registry.get(scenario.name)
            if clash is not None:
                raise ScenarioPackError(
                    path,
                    f"duplicate scenario name {scenario.name!r} "
                    f"(already defined by {clash.path})",
                    field="name",
                )
            registry[scenario.name] = scenario
    return dict(sorted(registry.items()))


def iter_scenarios(
    family: Optional[str] = None,
    tag: Optional[str] = None,
    roots: Optional[Iterable["str | os.PathLike"]] = None,
) -> list[Scenario]:
    """Registry scenarios, optionally filtered, sorted (family, name)."""
    scenarios = load_registry(roots).values()
    return sorted(
        (
            s for s in scenarios
            if (family is None or s.family == family)
            and (tag is None or tag in s.tags)
        ),
        key=lambda s: (s.family, s.name),
    )


def scenario_families(
    roots: Optional[Iterable["str | os.PathLike"]] = None,
) -> list[str]:
    """Distinct pack families, sorted."""
    return sorted({s.family for s in load_registry(roots).values()})


def get_scenario(
    name: str,
    roots: Optional[Iterable["str | os.PathLike"]] = None,
) -> Scenario:
    """Look up one scenario by name.

    Unknown names raise :class:`ConfigurationError` listing the
    registry (with close-match suggestions), so a typo'd
    ``--scenario``/deck axis fails with the fix in the message.
    """
    registry = load_registry(roots)
    try:
        return registry[name]
    except KeyError:
        suggestions = difflib.get_close_matches(name, registry, n=3)
        hint = f" (did you mean {', '.join(suggestions)}?)" if suggestions else ""
        raise ConfigurationError(
            f"unknown scenario {name!r}{hint}; available: "
            f"{sorted(registry)}"
        ) from None
