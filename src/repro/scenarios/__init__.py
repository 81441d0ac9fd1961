"""The scenario library: the paper's benchmark setups as data.

The paper's cases (single-mode rollup, multi-mode spectra, localized
sech²/gaussian bumps, Atwood/CFL families) live as *scenario packs*,
one JSON or TOML file each under the repo's ``scenarios/`` directory.
A pack is a :class:`~repro.campaign.CampaignDeck` with no axes, read by
:meth:`~repro.campaign.CampaignDeck.from_file` like any deck (so
``rocketrig campaign scenarios/atwood-low.json`` runs it), plus
metadata that never enters a run hash: ``family``, ``title``,
``description``, ``tags`` and a mandatory ``provenance`` citing where
in the paper the numbers come from.

This module is the directory listing: :func:`load_registry` reads every
pack on ``$REPRO_SCENARIO_PATH`` (``os.pathsep``-separated, searched
first) and in the builtin ``scenarios/``, and adds the rules only a
pack obeys; :func:`get_scenario` looks one up by name.  Its readers are
``rocketrig --scenario`` / ``--list-scenarios``, a deck's ``scenario``
key, the ``examples/`` scripts and the docs gallery
(``python -m repro.scenarios.gallery``)::

    from repro.scenarios import get_scenario

    pack = get_scenario("singlemode-rollup")
    spec = pack.expand()[0]        # the pack's config, ic, steps, ranks

Authoring guide: ``docs/scenarios.md``.
"""

from __future__ import annotations

import difflib
import os
import re
from pathlib import Path
from typing import NoReturn

from repro.campaign.deck import _CITATION_KEYS, CampaignDeck, DeckError
from repro.util.errors import ConfigurationError

__all__ = ["get_scenario", "load_registry"]

#: Extra pack directories, searched before the builtin one.
ENV_ROOTS = "REPRO_SCENARIO_PATH"

#: The packs that ship with the repo.
BUILTIN_ROOT = Path(__file__).resolve().parents[3] / "scenarios"

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")

_PROVENANCE_KEYS = frozenset(("source", "notes", "retrieved") + _CITATION_KEYS)


def _check_pack(pack: CampaignDeck) -> None:
    """The rules a pack adds to the deck schema, so a pack that loads is
    a pack that runs; each failure is a :class:`DeckError` naming the
    pack's file and field."""

    def fail(message: str, field: str | None = None) -> NoReturn:
        raise DeckError(message, field, pack.path)

    stem = Path(pack.path).stem
    if not isinstance(pack.name, str) or not _NAME_RE.match(pack.name):
        fail(f"name {pack.name!r} must match {_NAME_RE.pattern} (lowercase "
             "letters, digits, '-', '_')", "name")
    if pack.name != stem:
        fail(f"name {pack.name!r} must equal the file stem {stem!r} so "
             "--scenario names map one-to-one onto pack files", "name")
    for key in ("family", "title", "description"):
        value = getattr(pack, key)
        if not isinstance(value, str) or (key == "family" and not value.strip()):
            fail(f"expected a string (non-empty for family), got {value!r}", key)
    if not isinstance(pack.tags, list) or not all(
        isinstance(t, str) and t.strip() for t in pack.tags
    ):
        fail(f"tags must be a list of non-empty strings, got {pack.tags!r}",
             "tags")
    provenance = pack.provenance
    if not provenance:
        fail("missing required key", "provenance")
    unknown = sorted(set(provenance) - _PROVENANCE_KEYS)
    if unknown:
        fail(f"unknown provenance keys {unknown}; allowed: "
             f"{sorted(_PROVENANCE_KEYS)}", f"provenance.{unknown[0]}")
    if "source" not in provenance:
        fail("provenance must name its source document", "provenance.source")
    for key, value in provenance.items():
        if not isinstance(value, str) or not value.strip():
            fail(f"expected a non-empty string, got {value!r}",
                 f"provenance.{key}")
    if not any(provenance.get(key) for key in _CITATION_KEYS):
        fail("provenance must cite where in the source the parameters "
             f"come from: at least one of {list(_CITATION_KEYS)}",
             "provenance")
    axes = sorted({**pack.grid, **pack.zip_axes})
    if axes:
        fail(f"a pack is one run and sweeps no axes, got {axes}",
             "grid" if pack.grid else "zip")
    if "scenario" in pack.base:
        fail("a pack cannot name another pack", "config.scenario")
    try:
        pack.expand()
    except DeckError as exc:
        fail(exc.message, exc.field and f"config.{exc.field}")
    except ConfigurationError as exc:
        fail(str(exc))
    except TypeError as exc:
        fail(f"bad field value: {exc}")


def load_registry() -> dict[str, CampaignDeck]:
    """Every pack on the search path, ``{name: deck}`` in name order.

    Directories on ``$REPRO_SCENARIO_PATH`` come first, then the builtin
    ``scenarios/``; one that does not exist holds no packs.  Every
    malformed pack and every name two files claim is collected, and one
    error reports them all: the :class:`DeckError` itself when there is
    one, else a :class:`ConfigurationError` listing each ``path:
    reason``.
    """
    env = os.environ.get(ENV_ROOTS, "")
    roots = [Path(p) for p in env.split(os.pathsep) if p] + [BUILTIN_ROOT]
    registry: dict[str, CampaignDeck] = {}
    errors: list[DeckError] = []
    seen: set[Path] = set()
    for root in roots:
        if not root.is_dir() or root.resolve() in seen:
            continue
        seen.add(root.resolve())
        for path in sorted(root.iterdir()):
            if not path.is_file() or path.suffix.lower() not in (".json", ".toml"):
                continue
            try:
                pack = CampaignDeck.from_file(path)
                _check_pack(pack)
                clash = registry.get(pack.name)
                if clash is not None:
                    raise DeckError(
                        f"duplicate scenario name {pack.name!r} (already "
                        f"defined by {clash.path})", "name", pack.path,
                    )
            except DeckError as exc:
                errors.append(exc)
                continue
            registry[pack.name] = pack
    if len(errors) == 1:
        raise errors[0]
    if errors:
        raise ConfigurationError(
            f"{len(errors)} malformed scenario packs:\n"
            + "\n".join(f"  {exc}" for exc in errors)
        )
    return dict(sorted(registry.items()))


def get_scenario(name: str) -> CampaignDeck:
    """Look up one pack by name.

    Unknown names raise :class:`ConfigurationError` listing the
    registry (with close-match suggestions), so a typo'd
    ``--scenario``/deck axis fails with the fix in the message.
    """
    registry = load_registry()
    try:
        return registry[name]
    except KeyError:
        suggestions = difflib.get_close_matches(name, registry, n=3)
        hint = f" (did you mean {', '.join(suggestions)}?)" if suggestions else ""
        raise ConfigurationError(
            f"unknown scenario {name!r}{hint}; available: "
            f"{sorted(registry)}"
        ) from None
