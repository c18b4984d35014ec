"""Decision provenance: the evidence chain behind every classification.

The reproduction's headline output (Table 1) is an *inference*: a
per-prefix category derived from which interface each probing round's
responses returned on.  This module records the chain of custody from
raw route selections to those categories as a stream of plain-dict
events:

- ``kind="selection"`` — one BGP decision-process run: the candidate
  routes that entered, the attribute values compared at each step, the
  survivors of each step, and the winning step.  Emitted by the
  event-driven engine (``source="engine"``), the bulk fastpath
  (``source="fastpath"``), and the experiment runner's per-round
  capture at each probed prefix's origin AS (``source="round"``).
- ``kind="signal"`` — one probing round's outcome for one prefix: the
  interface kinds seen and the derived round signal
  (re/commodity/both/none), i.e. exactly what
  :mod:`repro.core.classify` consumes.

Events are held in a bounded ring buffer (:class:`ProvenanceRecorder`)
so a heavily-loaded process can leave provenance enabled without
unbounded growth; ``repro reproduce --provenance-out FILE.jsonl``
drains the ring to JSON lines after the run.  Recording is **off by
default**: the hot paths pay one function call returning ``None``
per decision (guarded, with the rest of the obs stack, by
``benchmarks/bench_obs_overhead.py``).

Determinism: events are plain dicts built from simulation state only
(no wall clocks, no object ids).  The sharded runner records each
prefix's signal event in the parent from the rebuilt responses, in
shard order, and pool tasks ship their recorder's events back through
the provenance lens (:mod:`repro.obs.lens`), folded in task order — so
the merged stream is byte-identical to a serial run's at every
``--workers`` / ``--shard-size`` (asserted in
``tests/test_differential.py``).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

__all__ = [
    "ProvenanceRecorder",
    "active_recorder",
    "enable_provenance",
    "disable_provenance",
    "set_recorder",
    "use_provenance",
    "signal_from_kinds",
    "selection_event",
    "signal_event",
    "degradation_event",
    "DEFAULT_CAPACITY",
]

#: Default ring-buffer capacity (events).  A full ``reproduce`` run at
#: scale 0.1 emits a few thousand round-capture selections and signal
#: events per experiment; engine-level selections during convergence
#: can exceed any fixed bound, which is exactly what the ring is for.
DEFAULT_CAPACITY = 65_536


def signal_from_kinds(kinds: Iterable[str]) -> str:
    """Map the set of interface kinds one round's responses arrived on
    to the round-signal label (the single implementation shared by
    :mod:`repro.core.classify` and the provenance stream)."""
    kinds = set(kinds)
    if not kinds:
        return "none"
    if len(kinds) > 1:
        return "both"
    return "re" if "re" in kinds else "commodity"


def _route_summary(route, index: int) -> dict:
    """Flatten one candidate route into JSON-safe provenance fields."""
    return {
        "index": index,
        "neighbor": route.learned_from,
        "localpref": route.localpref,
        "path_len": route.path.length,
        "path": list(route.path.asns),
        "med": route.med,
        "tag": route.tag,
    }


def selection_event(
    source: str,
    asn: int,
    prefix,
    candidates,
    steps: List[dict],
    winner_index: Optional[int],
    winning_step: Optional[str],
    time: Optional[float] = None,
    round_index: Optional[int] = None,
    config: Optional[str] = None,
    selection_prefix=None,
) -> dict:
    """Build one ``kind="selection"`` event.

    ``prefix`` keys the event (for round captures this is the *probed*
    prefix whose classification the selection justifies);
    ``selection_prefix``, when different, names the prefix the routes
    are actually for (the measurement prefix).
    """
    event = {
        "kind": "selection",
        "source": source,
        "asn": asn,
        "prefix": str(prefix),
        "candidates": [
            _route_summary(route, i) for i, route in enumerate(candidates)
        ],
        "steps": steps,
        "winner": winner_index,
        "winning_step": winning_step,
    }
    if selection_prefix is not None and selection_prefix != prefix:
        event["selection_prefix"] = str(selection_prefix)
    if time is not None:
        event["time"] = time
    if round_index is not None:
        event["round"] = round_index
    if config is not None:
        event["config"] = config
    return event


def signal_event(
    prefix,
    round_index: int,
    config: str,
    signal: str,
    probes: int,
    responses: int,
    origins: List[int],
) -> dict:
    """Build one ``kind="signal"`` event for one (prefix, round)."""
    return {
        "kind": "signal",
        "prefix": str(prefix),
        "round": round_index,
        "config": config,
        "signal": signal,
        "probes": probes,
        "responses": responses,
        "origins": origins,
    }


def degradation_event(
    round_index: int,
    config: str,
    shard_id: int,
    action: str,
    attempts: int,
    recovered: bool,
    detail: str = "",
) -> dict:
    """Build one ``kind="degradation"`` event: a shard execution that
    needed recovery (see
    :class:`~repro.experiment.records.DegradationRecord`).

    Degradation events describe how a run *executed*, never what it
    measured, so :meth:`ProvenanceRecorder.export_jsonl` excludes them
    by default — the exported evidence stream of a run that survived a
    worker crash stays byte-identical to a fault-free run's.  They
    remain queryable in the ring (``events(kind="degradation")``) for
    ``repro explain`` narratives and debugging.
    """
    return {
        "kind": "degradation",
        "round": round_index,
        "config": config,
        "shard": shard_id,
        "action": action,
        "attempts": attempts,
        "recovered": recovered,
        "detail": detail,
    }


class ProvenanceRecorder:
    """A bounded, thread-safe ring buffer of provenance events.

    Parameters
    ----------
    capacity:
        Maximum retained events; the oldest are dropped first.  The
        drop count is retained (``dropped``) so exports can state what
        the ring shed.
    prefix_filter:
        Optional collection of prefixes (objects or strings).  When
        set, only events for those prefixes are recorded — ``repro
        explain`` uses this to keep a full nine-round evidence chain
        for one prefix without ring pressure from the rest of the run.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        prefix_filter: Optional[Iterable] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("provenance capacity must be >= 1")
        self.capacity = capacity
        self.prefix_filter: Optional[frozenset] = (
            frozenset(str(p) for p in prefix_filter)
            if prefix_filter is not None
            else None
        )
        self._events: Deque[dict] = deque(maxlen=capacity)
        self._dropped = 0
        self._lock = threading.Lock()
        # Per-prefix-object filter verdicts: hot callers re-check the
        # same few Prefix values thousands of times per convergence
        # run, and stringifying on every call is the dominant cost of
        # a filtered recorder.  Bounded by the distinct prefixes seen.
        self._wants_cache: Dict[object, bool] = {}

    # -- recording ----------------------------------------------------

    def wants(self, prefix) -> bool:
        """True if events for *prefix* pass the filter (cheap when no
        filter is set — the common, unfiltered case)."""
        if self.prefix_filter is None:
            return True
        verdict = self._wants_cache.get(prefix)
        if verdict is None:
            verdict = str(prefix) in self.prefix_filter
            self._wants_cache[prefix] = verdict
        return verdict

    def record(self, event: dict) -> None:
        """Append one event (callers check :meth:`wants` first when
        building the event is the expensive part)."""
        with self._lock:
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(event)

    def extend(self, events: Iterable[dict]) -> None:
        """Append *events* in order — the lens-merge entry point.

        Filtering already happened where the events were built (an
        isolated recorder carries the same ``prefix_filter``), so this
        appends verbatim: pool-task streams merged in task order
        reproduce the serial stream byte for byte.
        """
        for event in events:
            self.record(event)

    # -- queries ------------------------------------------------------

    @property
    def dropped(self) -> int:
        return self._dropped

    def __len__(self) -> int:
        return len(self._events)

    def events(
        self,
        kind: Optional[str] = None,
        prefix=None,
        source: Optional[str] = None,
    ) -> List[dict]:
        """Retained events, oldest first, optionally filtered."""
        prefix_text = str(prefix) if prefix is not None else None
        with self._lock:
            out = list(self._events)
        if kind is not None:
            out = [e for e in out if e.get("kind") == kind]
        if prefix_text is not None:
            out = [e for e in out if e.get("prefix") == prefix_text]
        if source is not None:
            out = [e for e in out if e.get("source") == source]
        return out

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._dropped = 0

    # -- export -------------------------------------------------------

    def export_jsonl(
        self, stream, include_degradations: bool = False
    ) -> int:
        """Write retained events to *stream* as one JSON object per
        line (sorted keys, so exports diff cleanly); returns the line
        count.

        ``kind="degradation"`` events are skipped unless
        *include_degradations* is set: they record how the run
        executed (shard retries/fallbacks), not what it measured, and
        excluding them keeps the exported evidence stream
        byte-identical between a recovered run and a fault-free one.
        """
        count = 0
        for event in self.events():
            if (
                not include_degradations
                and event.get("kind") == "degradation"
            ):
                continue
            stream.write(json.dumps(event, sort_keys=True))
            stream.write("\n")
            count += 1
        return count

    def export_jsonl_file(
        self, path: str, include_degradations: bool = False
    ) -> int:
        with open(path, "w", encoding="utf-8") as stream:
            return self.export_jsonl(
                stream, include_degradations=include_degradations
            )


# -- process-wide recorder (None = disabled) --------------------------

_lock = threading.Lock()
_recorder: Optional[ProvenanceRecorder] = None


def active_recorder() -> Optional[ProvenanceRecorder]:
    """The process-wide recorder, or None when provenance is disabled.

    This is the hot-path check: call sites do ``rec =
    active_recorder()`` and skip all event construction when it
    returns None, so a disabled recorder costs one call per decision.
    """
    return _recorder


def set_recorder(
    recorder: Optional[ProvenanceRecorder],
) -> Optional[ProvenanceRecorder]:
    """Install *recorder* (or None to disable); returns the previous
    one."""
    global _recorder
    with _lock:
        previous = _recorder
        _recorder = recorder
    return previous


def enable_provenance(
    capacity: int = DEFAULT_CAPACITY,
    prefix_filter: Optional[Iterable] = None,
) -> ProvenanceRecorder:
    """Install and return a fresh process-wide recorder."""
    recorder = ProvenanceRecorder(capacity, prefix_filter=prefix_filter)
    set_recorder(recorder)
    return recorder


def disable_provenance() -> Optional[ProvenanceRecorder]:
    """Disable recording; returns the recorder that was active."""
    return set_recorder(None)


class use_provenance:
    """Context manager installing a recorder for a ``with`` block —
    the isolation primitive for tests (mirrors
    :class:`repro.obs.metrics.use_registry`)::

        with use_provenance() as rec:
            engine.run_to_fixpoint()
            assert rec.events(kind="selection")
    """

    def __init__(
        self, recorder: Optional[ProvenanceRecorder] = None
    ) -> None:
        # Explicit None check: an *empty* recorder is falsy (__len__).
        self.recorder = (
            recorder if recorder is not None else ProvenanceRecorder()
        )
        self._previous: Optional[ProvenanceRecorder] = None

    def __enter__(self) -> ProvenanceRecorder:
        self._previous = set_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        set_recorder(self._previous)


def round_signal_summary(responses) -> Dict[str, object]:
    """Aggregate one prefix's round responses into signal-event fields
    (shared by the serial prober, the sharded runner's merge and the
    round-frontier rows, so every path builds identical events)."""
    kinds = set()
    origins = set()
    responded = 0
    for response in responses:
        if response.responded:
            responded += 1
            if response.interface_kind:
                kinds.add(response.interface_kind)
            if response.origin_asn is not None:
                origins.add(response.origin_asn)
    return {
        "signal": signal_from_kinds(kinds),
        "probes": len(responses),
        "responses": responded,
        "origins": sorted(origins),
    }
