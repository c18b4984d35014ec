"""Phase budget: where a run's wall time went, read from its spans.

Every completed span already observes its duration into the histogram
``span.<name>.seconds`` of the metrics registry
(:mod:`repro.obs.spans`), and the metrics lens (:mod:`repro.obs.lens`)
folds pool tasks' histograms into the parent's registry.  So the
budget is computed at export time from one registry snapshot: per
phase, ``calls`` is the histogram count and ``seconds`` its sum, plus
the ``wall_seconds`` the command took around its own run.  Nothing is
installed before the run and nothing runs per span.

Phases nest (``campaign.cell.*`` ⊃ ``runner.round.*`` ⊃
``prober.round``), so phase seconds are inclusive and do not add up;
:func:`render_budget` shows each phase as a share of wall time.  A
phase that ran in several pool workers at once sums their seconds, so
its share can pass 100%.

The budget is *execution metadata* (wall timings), outside every
byte-identity surface.  Function-level hotspots come from the stdlib
profiler instead::

    python -m cProfile -o run.pstats -m repro reproduce --scale 0.06
"""

from __future__ import annotations

import json
from typing import List

from .metrics import get_registry

__all__ = [
    "BUDGET_SCHEMA_VERSION",
    "DEFAULT_TOP_N",
    "export_budget",
    "load_budget",
    "phase_budget",
    "render_budget",
]

#: Bumped when the payload layout changes.  Schema 1 was the retired
#: ``phase_profile`` artifact, which :func:`load_budget` rejects.
BUDGET_SCHEMA_VERSION = 2

#: Phase rows rendered by default.
DEFAULT_TOP_N = 20

_KIND = "phase_budget"
_PREFIX, _SUFFIX = "span.", ".seconds"


def phase_budget(snapshot: dict, wall_seconds: float) -> dict:
    """The budget of one :meth:`MetricsRegistry.snapshot`: one phase
    per ``span.<name>.seconds`` histogram."""
    phases = {
        name[len(_PREFIX):-len(_SUFFIX)]: {
            "calls": int(data["count"]),
            "seconds": data["sum"],
        }
        for name, data in sorted(snapshot["histograms"].items())
        if name.startswith(_PREFIX) and name.endswith(_SUFFIX)
    }
    return {
        "schema": BUDGET_SCHEMA_VERSION,
        "kind": _KIND,
        "wall_seconds": wall_seconds,
        "phases": phases,
    }


def export_budget(path: str, wall_seconds: float) -> dict:
    """Write the budget of the process-wide registry to *path* as JSON;
    returns the payload."""
    payload = phase_budget(get_registry().snapshot(), wall_seconds)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return payload


def load_budget(path: str) -> dict:
    """Read a budget written by :func:`export_budget`; ValueError on
    anything else, including a schema-1 ``phase_profile`` artifact."""
    with open(path, "r", encoding="utf-8") as stream:
        try:
            payload = json.load(stream)
        except json.JSONDecodeError as exc:
            raise ValueError("%s: not JSON (%s)" % (path, exc)) from None
    if not isinstance(payload, dict):
        raise ValueError("%s: not a phase-budget artifact" % path)
    if payload.get("kind") == "phase_profile":
        raise ValueError(
            "%s: a schema-1 phase_profile artifact; the phase profiler "
            "is gone, re-run with --profile-out to write a phase budget"
            % path
        )
    if payload.get("kind") != _KIND:
        raise ValueError("%s: not a phase-budget artifact" % path)
    if payload.get("schema") != BUDGET_SCHEMA_VERSION:
        raise ValueError(
            "%s: budget schema %r not supported (this build reads %d)"
            % (path, payload.get("schema"), BUDGET_SCHEMA_VERSION)
        )
    phases = payload.get("phases")
    if not (
        isinstance(payload.get("wall_seconds"), (int, float))
        and isinstance(phases, dict)
        and all(
            isinstance(data, dict) and {"calls", "seconds"} <= set(data)
            for data in phases.values()
        )
    ):
        raise ValueError("%s: malformed phase budget" % path)
    return payload


def render_budget(payload: dict, top: int = DEFAULT_TOP_N) -> str:
    """The *top* phases by inclusive seconds, each as a share of the
    run's wall time."""
    wall = payload["wall_seconds"]
    lines: List[str] = [
        "phase budget: %.3fs wall" % wall,
        "",
        "%-44s %8s %12s %6s" % ("phase", "calls", "seconds", "%wall"),
    ]
    ranked = sorted(
        payload["phases"].items(),
        key=lambda item: (-item[1]["seconds"], item[0]),
    )
    for name, data in ranked[:top]:
        seconds = data["seconds"]
        lines.append("%-44s %8d %12.6f %5.1f%%" % (
            name[:44], data["calls"], seconds,
            100.0 * seconds / wall if wall > 0 else 0.0,
        ))
    if len(ranked) > top:
        lines.append("... %d more phase(s)" % (len(ranked) - top))
    return "\n".join(lines)
