"""Docs gallery generator: scenario packs → ``docs/scenario_gallery.md``.

The gallery page is *generated from the packs' metadata* — name, title,
family, grid, solver order, initial condition, default run shape, tags
and the provenance citation — so the docs can never drift from the
data.  The committed page is kept in sync by CI::

    python -m repro.scenarios.gallery           # rewrite the page
    python -m repro.scenarios.gallery --check   # exit 1 if stale

:func:`build_gallery` is deterministic (sorted by family then name, no
timestamps), which is what makes the ``--check`` diff meaningful.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.batch import fleet_key
from repro.campaign import CampaignDeck
from repro.scenarios import BUILTIN_ROOT, load_registry

__all__ = ["build_gallery", "default_gallery_path", "main"]

_HEADER = """\
# Scenario gallery

> **Generated page — do not edit.**  Built from the packs under
> `scenarios/` by `python -m repro.scenarios.gallery`; CI's
> `scenario-validate` job fails if this file is stale.

Every scenario below is a validated pack in the
[scenario registry](scenarios.md): run one with
`rocketrig --scenario <name>`, sweep them with a `scenario` deck axis
(see [campaign orchestration](campaign.md)); `rocketrig campaign`
advances the fleet-eligible ones together
(see [batched fleets](batch.md)).
"""


def _ic_summary(scenario: CampaignDeck) -> str:
    ic = scenario.ic
    parts = [str(ic.get("kind", "single_mode"))]
    if "magnitude" in ic:
        parts.append(f"m={ic['magnitude']}")
    if "period" in ic:
        parts.append(f"p={ic['period']}")
    if "seed" in ic:
        parts.append(f"seed={ic['seed']}")
    return " ".join(parts)


def _row(scenario: CampaignDeck) -> str:
    cfg = scenario.base
    nodes = cfg.get("num_nodes", (64, 64))
    periodic = cfg.get("periodic", (True, True))
    bc = "periodic" if all(periodic) else "free"
    solver = cfg.get("order", "low")
    if solver in ("medium", "high"):
        solver += f"/{cfg.get('br_solver', 'exact')}"
    fleet = "yes" if fleet_key(scenario.expand()[0].config) else "no"
    return (
        f"| `{scenario.name}` | {nodes[0]}×{nodes[1]} {bc} | {solver} "
        f"| {_ic_summary(scenario)} | {scenario.steps}×{scenario.ranks} "
        f"| {fleet} | {scenario.citation()} |"
    )


def build_gallery() -> str:
    """Render the gallery markdown for every registered pack."""
    lines = [_HEADER]
    families: dict[str, list[CampaignDeck]] = {}
    for scenario in load_registry().values():
        families.setdefault(scenario.family, []).append(scenario)
    for family in sorted(families):
        members = sorted(families[family], key=lambda s: s.name)
        lines.append(f"## `{family}` family\n")
        for scenario in members:
            if scenario.title:
                desc = scenario.description.strip()
                lines.append(
                    f"**`{scenario.name}`** — {scenario.title}."
                    + (f"  {desc}" if desc else "")
                )
                lines.append("")
        lines.append(
            "| pack | grid | order/solver | initial condition "
            "| steps×ranks | fleet | provenance |"
        )
        lines.append("|---|---|---|---|---|---|---|")
        lines += [_row(s) for s in members]
        lines.append("")
        if any(s.tags for s in members):
            tags = sorted({t for s in members for t in s.tags})
            lines.append(f"Tags: {', '.join(f'`{t}`' for t in tags)}")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def default_gallery_path() -> Path:
    """``docs/scenario_gallery.md`` next to the builtin pack root."""
    return BUILTIN_ROOT.parent / "docs" / "scenario_gallery.md"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    check = "--check" in argv
    if check:
        argv.remove("--check")
    out = None
    if "--out" in argv:
        idx = argv.index("--out")
        try:
            out = Path(argv[idx + 1])
        except IndexError:
            raise SystemExit("scenario-gallery: --out needs a path")
        del argv[idx: idx + 2]
    if argv:
        raise SystemExit(f"scenario-gallery: unknown arguments {argv}")
    path = out if out is not None else default_gallery_path()
    content = build_gallery()
    if check:
        current = path.read_text(encoding="utf-8") if path.exists() else ""
        if current != content:
            print(f"scenario-gallery: {path} is stale; regenerate with "
                  f"python -m repro.scenarios.gallery")
            return 1
        print(f"scenario-gallery: {path} is in sync "
              f"({len(content.splitlines())} lines)")
        return 0
    os.makedirs(path.parent, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    print(f"scenario-gallery: wrote {path} "
          f"({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
