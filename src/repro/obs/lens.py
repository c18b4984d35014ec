"""One observability-lens protocol: isolate, ship, merge.

Three lenses observe a run: metrics plus spans, provenance and
frontier.  Each keeps one process-global instance that hot paths
check directly (``get_registry()``, ``active_recorder()``,
``active_frontier()``).  Work executed in another process must not
write into the instance it inherited across ``fork``; it records into
fresh local instances and ships their contents back, and the parent
folds them in task order, so the parent's streams equal those of a run
that executed everything in one process.  Every lens does that the
same way, through four operations:

``isolate()``
    Context manager installing a fresh local instance configured like
    the active one (nothing when the lens is inactive), restoring the
    previous instance on exit.
``payload()``
    The installed instance's contents in picklable form (None when
    the lens is inactive).
``merge(payload)``
    Fold a payload into the active instance.
``for_spec(spec)``
    A fresh instance when an :class:`~repro.api.ExperimentSpec` asks
    for capture and none is active, else None.  Its event list becomes
    a spec artifact (``result.<result_field>``, and the campaign's
    ``cells/<digest>.<artifact>`` JSONL file).

:data:`LENSES` is the registry: a fixed tuple, no registration API.
The scheduler runs every pool task through :func:`run_isolated` and
folds the returned ``obs`` dict with :func:`merge_obs`; inline tasks
record straight into the current process's lenses.  This is the only
module that isolates or merges observability state.  The phase budget
(:mod:`repro.obs.budget`) is not a lens: it reads the merged span
histograms at export time.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Optional, Tuple

from . import spans
from .frontier import FrontierTrace, active_frontier, use_frontier
from .metrics import MetricsRegistry, get_registry, use_registry
from .provenance import (
    DEFAULT_CAPACITY,
    ProvenanceRecorder,
    active_recorder,
    use_provenance,
)

__all__ = [
    "LENSES",
    "Lens",
    "attach_artifacts",
    "capture_for_spec",
    "merge_obs",
    "run_isolated",
]


class Lens:
    """Base of the three lenses, written for the event rings
    (:class:`~repro.obs.provenance.ProvenanceRecorder`,
    :class:`~repro.obs.frontier.FrontierTrace`).  Subclasses name
    ``active()`` (the process-global getter), ``use(instance)`` (its
    installing context manager) and ``fresh(like)``; spec-requestable
    lenses add ``for_spec``, ``result_field`` and ``artifact``."""

    name = ""
    #: ExperimentResult attribute receiving a spec-requested payload.
    result_field: Optional[str] = None
    #: Per-cell campaign artifact suffix (``<digest>.<artifact>``).
    artifact: Optional[str] = None

    def isolate(self):
        active = self.active()
        if active is None:
            return contextlib.nullcontext()
        return self.use(self.fresh(active))

    def payload(self) -> Any:
        active = self.active()
        return None if active is None else active.events()

    def merge(self, payload: Any) -> None:
        self.active().extend(payload)

    def for_spec(self, spec) -> Any:
        return None


class _MetricsLens(Lens):
    """Metrics registry plus span trees: a pool task records into a
    fresh registry on an empty span stack; the parent merges the
    snapshot and grafts the completed trees under its open span."""

    name = "metrics"

    @contextlib.contextmanager
    def isolate(self):
        fresh = MetricsRegistry(enabled=get_registry().enabled)
        with use_registry(fresh), spans.detached_trace():
            yield

    def payload(self) -> dict:
        return {
            "metrics": get_registry().snapshot(),
            "spans": [root.as_dict() for root in spans.finished_roots()],
        }

    def merge(self, payload: dict) -> None:
        get_registry().merge_snapshot(payload["metrics"])
        for tree in payload["spans"]:
            spans.attach_completed(tree)


class _ProvenanceLens(Lens):
    name = "provenance"
    result_field = "provenance_events"
    artifact = "provenance.jsonl"
    active = staticmethod(active_recorder)
    use = use_provenance

    def fresh(self, like: ProvenanceRecorder) -> ProvenanceRecorder:
        return ProvenanceRecorder(like.capacity, like.prefix_filter)

    def for_spec(self, spec):
        if not spec.wants_provenance or active_recorder() is not None:
            return None
        return ProvenanceRecorder(
            capacity=spec.provenance_capacity or DEFAULT_CAPACITY,
            prefix_filter=spec.provenance_prefixes or None,
        )


class _FrontierLens(Lens):
    name = "frontier"
    result_field = "frontier_events"
    artifact = "frontier.jsonl"
    active = staticmethod(active_frontier)
    use = use_frontier

    def fresh(self, like: FrontierTrace) -> FrontierTrace:
        return FrontierTrace(like.capacity)

    def for_spec(self, spec):
        if not spec.wants_frontier or active_frontier() is not None:
            return None
        return FrontierTrace(capacity=spec.frontier_capacity)


#: The lenses, in isolate/merge order.  Fixed: adding a lens means
#: adding it here.
LENSES: Tuple[Lens, ...] = (
    _MetricsLens(), _ProvenanceLens(), _FrontierLens(),
)


def run_isolated(fn: Callable, args: Tuple) -> Tuple[Any, Dict[str, Any]]:
    """Run ``fn(*args)`` under isolated lenses; returns its value and
    the ``obs`` dict of non-None payloads keyed by lens name."""
    with contextlib.ExitStack() as stack:
        for lens in LENSES:
            stack.enter_context(lens.isolate())
        value = fn(*args)
        obs = {lens.name: lens.payload() for lens in LENSES}
    return value, {name: p for name, p in obs.items() if p is not None}


def merge_obs(obs: Dict[str, Any]) -> None:
    """Fold one task's ``obs`` dict into this process's lenses, in
    lens order.  A payload exists only for a lens that was active when
    the pool forked, and a pool lives within one run, so that lens is
    still active here."""
    for lens in LENSES:
        payload = obs.get(lens.name)
        if payload is not None:
            lens.merge(payload)


@contextlib.contextmanager
def capture_for_spec(spec):
    """Install every lens *spec* asks for that is not already active.
    Yields a dict that, when the block completes, holds each installed
    lens's payload keyed by lens name (the spec artifacts)."""
    artifacts: Dict[str, Any] = {}
    with contextlib.ExitStack() as stack:
        installed = []
        for lens in LENSES:
            instance = lens.for_spec(spec)
            if instance is not None:
                stack.enter_context(lens.use(instance))
                installed.append(lens)
        yield artifacts
        for lens in installed:
            artifacts[lens.name] = lens.payload()


def attach_artifacts(result, artifacts: Dict[str, Any]) -> None:
    """Set each spec artifact on its ``ExperimentResult`` field."""
    for lens in LENSES:
        if lens.name in artifacts:
            setattr(result, lens.result_field, artifacts[lens.name])
