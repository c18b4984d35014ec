"""Guard: frontier analytics stay under 5% overhead.

The frontier trace is opt-in, but "opt-in" only stays honest if
turning it on is affordable and leaving it off is free:

- **enabled** — a :class:`~repro.obs.frontier.FrontierTrace` installed
  (per-delivery windowed accounting in the engine hot loop);
- **disabled** — the default: one ``active_frontier()`` ``None`` check
  per run.

The enabled run must stay within ``OVERHEAD_BUDGET`` of the disabled
one.  The phase budget (``--profile-out``) is not measured here: it is
read from the span histograms at export time and costs nothing per
span.  The emitted ``BENCH_profile.json`` is a record of the
measurement, not a second gate: ``repro bench-diff`` on a history
holding a single run has no baseline to compare against and exits 0.

Run directly (``python benchmarks/bench_profile.py``) or via pytest
(``PYTHONPATH=src python -m pytest benchmarks/bench_profile.py``).
"""

from __future__ import annotations

import time

from repro import (
    PropagationEngine,
    REEcosystemConfig,
    SeedTree,
    build_ecosystem,
)
from repro.obs.frontier import FrontierTrace, use_frontier

#: Allowed frontier-trace overhead, as a fraction of baseline.
OVERHEAD_BUDGET = 0.05

#: Alternating timed trials per variant; min-of-N rejects scheduler
#: noise, alternation rejects thermal / cache drift.
TRIALS = 7

BENCH_SCALE = 0.1
BENCH_SEED = 42


def _one_convergence(ecosystem) -> float:
    """Wall seconds for announce + run_to_fixpoint on a fresh engine."""
    engine = PropagationEngine(ecosystem.topology, SeedTree(BENCH_SEED))
    engine.announce(
        ecosystem.commodity_origin, ecosystem.measurement_prefix,
        tag="commodity",
    )
    start = time.perf_counter()
    engine.run_to_fixpoint()
    return time.perf_counter() - start


def measure(ecosystem):
    """(enabled_best, disabled_best, events) wall seconds, interleaved.

    "Enabled" runs under a fresh frontier trace; "disabled" is the
    default no-trace state.
    """
    enabled_times = []
    disabled_times = []
    events = 0
    # Warm-up, untimed: touch every code path once.
    with use_frontier(FrontierTrace()):
        _one_convergence(ecosystem)
    _one_convergence(ecosystem)
    for _ in range(TRIALS):
        trace = FrontierTrace()
        with use_frontier(trace):
            enabled_times.append(_one_convergence(ecosystem))
        events = len(trace)
        disabled_times.append(_one_convergence(ecosystem))
    return min(enabled_times), min(disabled_times), events


def test_profile(bench_emit=None):
    ecosystem = build_ecosystem(
        REEcosystemConfig(scale=BENCH_SCALE), seed=BENCH_SEED
    )
    enabled, disabled, events = measure(ecosystem)
    overhead = enabled / disabled - 1.0
    print(
        "\nfrontier overhead: enabled %.4fs  disabled %.4fs  "
        "overhead %+.2f%%  (%d frontier events)"
        % (enabled, disabled, 100.0 * overhead, events)
    )
    if bench_emit is not None:
        bench_emit["overhead_pct"] = round(100.0 * overhead, 2)
        bench_emit["frontier_events"] = events
    assert events > 0, "enabled run recorded no frontier events"
    assert enabled <= disabled * (1.0 + OVERHEAD_BUDGET), (
        "frontier overhead %.1f%% exceeds %.0f%% budget"
        % (100.0 * overhead, 100.0 * OVERHEAD_BUDGET)
    )


if __name__ == "__main__":
    test_profile()
    print("ok")
