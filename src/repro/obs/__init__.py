"""repro.obs — observability: metrics, timing spans, structured logs.

Zero-dependency instrumentation for the engine → runner → CLI stack:

- :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket
  histograms in a thread-safe registry (process singleton plus
  isolated registries for tests) with JSON snapshot export;
- :mod:`repro.obs.spans` — ``with span("engine.run_to_fixpoint"):``
  wall-time histograms that nest into a lightweight trace tree;
- :mod:`repro.obs.logging` — ``get_logger(name)`` emitting key=value
  or JSON lines on stderr, silent until configured;
- :mod:`repro.obs.provenance` — decision-provenance event stream
  (route-selection steps, per-round prefix signals) in a bounded ring
  buffer with JSONL export, disabled until a recorder is installed;
- :mod:`repro.obs.export` — render completed span trees to Chrome
  trace-event JSON (``chrome://tracing`` / Perfetto loadable) and
  metrics snapshots to OpenMetrics text (Prometheus tooling);
- :mod:`repro.obs.telemetry` — :class:`TelemetrySampler`: periodic
  background sampling of the registry into a bounded time-series ring
  plus append-only JSONL, turning counters into rate-able series;
- :mod:`repro.obs.benchtrack` — benchmark trajectory: append-only
  ``BENCH_HISTORY.jsonl`` plus latest-vs-baseline regression diffs;
- :mod:`repro.obs.frontier` — convergence-frontier analytics: bounded
  event trace of per-window frontier sizes, causality depths,
  quiescence curves, and per-round signal diffs (byte-identical
  across execution modes; ``--frontier-out``);
- :mod:`repro.obs.lens` — the one protocol that isolates the metrics,
  provenance and frontier lenses in pool tasks and merges their
  payloads back in task order;
- :mod:`repro.obs.budget` — the phase budget: per-phase calls and
  seconds read straight from the span histograms at export time
  (``--profile-out`` / ``repro profile``).

Everything is off-by-default and adds near-zero overhead when idle:
hot paths accumulate into locals and flush per convergence run or per
probing round (guarded by ``benchmarks/bench_obs_overhead.py``).
"""

from .logging import configure as configure_logging
from .logging import get_logger, reset as reset_logging
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from .provenance import (
    ProvenanceRecorder,
    active_recorder,
    disable_provenance,
    enable_provenance,
    use_provenance,
)
from .frontier import (
    FrontierTrace,
    active_frontier,
    disable_frontier,
    enable_frontier,
    use_frontier,
)
from .spans import SpanRecord, current_span, finished_roots, reset_trace, span
from .telemetry import TelemetrySampler

__all__ = [
    "TelemetrySampler",
    "FrontierTrace",
    "active_frontier",
    "enable_frontier",
    "disable_frontier",
    "use_frontier",
    "ProvenanceRecorder",
    "active_recorder",
    "enable_provenance",
    "disable_provenance",
    "use_provenance",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "SpanRecord",
    "span",
    "current_span",
    "finished_roots",
    "reset_trace",
    "get_logger",
    "configure_logging",
    "reset_logging",
]
