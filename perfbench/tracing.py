"""Span tracing around the program's layer entry points.

The benchmark records spans from its own files: :func:`install` wraps
each entry point listed in :data:`ENTRY_POINTS` at the name its callers
bind (a module global for functions imported with ``from ... import``,
the class attribute for methods), so the program itself is unchanged.
Spans carry a name, start, end and the id of the span that was open
when they started.  They are kept in memory and written out when the
run ends.  Only entry points whose calls take about a millisecond or
more are wrapped; per-probe and per-walk work is read as counts from
the program's own metrics registry instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) for every wrapped entry point.
#: A function imported by several modules is listed once per module
#: that calls it, because each caller resolves its own binding.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("topology.build", "workloads", "build_ecosystem"),
    ("topology.build", "repro.core.report", "build_ecosystem"),
    ("topology.build", "repro.api", "build_ecosystem"),
    ("topology.build", "repro.whatif", "build_ecosystem"),
    ("seeds.select", "workloads", "select_seeds"),
    ("seeds.select", "repro.experiment.campaign", "select_seeds"),
    ("seeds.select", "repro.experiment.runner", "select_seeds"),
    ("seeds.select", "repro.api", "select_seeds"),
    ("engine.fixpoint", "repro.bgp.engine", "PropagationEngine.run_to_fixpoint"),
    ("engine.delta", "repro.bgp.engine", "PropagationEngine.apply_delta"),
    ("fastpath.propagate", "repro.collectors.rib", "propagate_fastpath"),
    ("collectors.rib", "repro.core.ripe", "build_collector_rib"),
    ("probing.round", "repro.probing.prober", "Prober.probe_round"),
    ("forwarding.capture", "repro.probing.forwarding", "RibSnapshot.capture"),
    ("runner.run", "repro.experiment.runner", "ExperimentRunner.run"),
    ("core.figure5", "repro.core.report", "build_figure5"),
    ("core.classify", "repro.core.report", "classify_experiment"),
    ("core.report", "repro.core.report", "build_table1"),
    ("core.report", "repro.core.report", "build_table2"),
    ("core.report", "repro.core.report", "build_table3"),
    ("core.report", "repro.core.report", "build_table4"),
    ("core.report", "repro.core.report", "build_figure8"),
    ("core.report", "repro.core.report", "build_churn_report"),
    ("core.report", "repro.core.report", "operator_ground_truth"),
    ("core.report", "repro.core.report", "PaperReproduction.render"),
    ("whatif.advance", "repro.whatif", "WhatIfSession.advance_to_config"),
    ("whatif.predict", "repro.whatif", "WhatIfSession.predict_batch"),
    ("whatif.apply", "repro.whatif", "WhatIfSession.apply"),
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        #: ``engine.delta`` results, for the touched-AS total.
        self.touched_ases = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            span = Span(span_id, name, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if name == "engine.delta":
                self.touched_ases += result.touched_ases
            return result

        return traced

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def seconds(self, name: str) -> float:
        """Total wall time inside *name* spans, counting a span nested
        in another of the same name once."""
        by_id = {span.span_id: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and by_id[parent].name != name:
                parent = by_id[parent].parent
            if parent is None:
                total += span.end - span.start
        return total

    def write(self, path: str, labels: Dict[str, object]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "labels": labels,
                    "spans": [
                        [s.span_id, s.name, s.start, s.end, s.parent]
                        for s in self.spans
                    ],
                },
                handle,
            )
            handle.write("\n")


class install:
    """Context manager wrapping every entry point with *tracer*'s spans
    and restoring the original bindings on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for name, module_name, path in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            # A class's own __dict__ entry, so that a classmethod stays
            # a classmethod: wrap its function.
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.tracer.wrap(name, raw.__func__))
            else:
                wrapped = self.tracer.wrap(name, raw)
            self._saved.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, raw in reversed(self._saved):
            setattr(owner, attribute, raw)
        self._saved.clear()
