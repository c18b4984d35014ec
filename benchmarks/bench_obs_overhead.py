"""Guard: instrumentation must add <5% overhead to a fixpoint run.

Compares event-driven convergence wall time with the default (enabled)
metrics registry against a disabled registry handing out no-op
instruments.  The engine flushes metrics once per run and the hot loop
only touches plain locals, so the measured overhead should be far
below the 5% budget; this benchmark keeps it that way.

A second guard covers decision provenance
(:mod:`repro.obs.provenance`): with no recorder installed — the
default — every route selection pays exactly one function call
returning ``None``, and even an *installed* recorder whose prefix
filter matches nothing must stay within the same 5% budget (one
``wants()`` set lookup per selection, no event construction).

One fixpoint at the bench scale takes 10–17 ms, and a shared 2-CPU
host drifts by a third over a second or so, so a trial times at least
:data:`MIN_SAMPLE_SECONDS` per variant and alternates the two variants
fixpoint by fixpoint (ABBA), which cancels drift slower than one
fixpoint; the reported overhead is the trial with the median ratio.

Run directly (``python benchmarks/bench_obs_overhead.py``) or via
pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import contextlib
import gc
import math
import time

from repro import (
    PropagationEngine,
    REEcosystemConfig,
    SeedTree,
    build_ecosystem,
)
from repro.obs import MetricsRegistry, use_registry
from repro.obs.provenance import ProvenanceRecorder, use_provenance

#: Allowed instrumentation overhead, as a fraction of baseline.
OVERHEAD_BUDGET = 0.05

#: Timed trials per comparison; the median trial's ratio is reported,
#: so one preempted trial cannot decide the gate.
TRIALS = 7

#: Least timed seconds per variant in one trial.
MIN_SAMPLE_SECONDS = 0.2

BENCH_SCALE = 0.1
BENCH_SEED = 42


def _one_convergence(ecosystem) -> float:
    """Wall seconds for run_to_fixpoint on a freshly announced engine.

    The collector runs before, not during, the timed run: a full
    collection walks the whole ecosystem, and where it lands would be
    noise larger than the budget."""
    engine = PropagationEngine(ecosystem.topology, SeedTree(BENCH_SEED))
    engine.announce(
        ecosystem.commodity_origin, ecosystem.measurement_prefix,
        tag="commodity",
    )
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        engine.run_to_fixpoint()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _runs_per_sample(ecosystem) -> int:
    """Fixpoints per variant a trial needs to last
    :data:`MIN_SAMPLE_SECONDS`, from the fastest of three untimed
    runs."""
    one = min(_one_convergence(ecosystem) for _ in range(3))
    return max(1, math.ceil(MIN_SAMPLE_SECONDS / one))


def _compare(ecosystem, variant, baseline):
    """(variant, baseline) summed wall seconds of the median-ratio
    trial.  *variant* and *baseline* make the context each fixpoint
    runs in; within a trial they alternate ABBA, one fixpoint each."""
    for make in (variant, baseline):
        with make():
            _one_convergence(ecosystem)
    runs = _runs_per_sample(ecosystem)
    trials = []
    for _ in range(TRIALS):
        sums = [0.0, 0.0]
        for run in range(runs):
            for side in ((0, 1) if run % 2 == 0 else (1, 0)):
                with (variant, baseline)[side]():
                    sums[side] += _one_convergence(ecosystem)
        trials.append(tuple(sums))
    trials.sort(key=lambda pair: pair[0] / pair[1])
    return trials[len(trials) // 2]


def measure(ecosystem):
    """(enabled, disabled) wall seconds of the median trial."""
    return _compare(
        ecosystem,
        lambda: use_registry(MetricsRegistry()),
        lambda: use_registry(MetricsRegistry(enabled=False)),
    )


def measure_provenance(ecosystem):
    """(filtered, disabled) wall seconds of the median trial.

    "Filtered" installs a recorder whose prefix filter matches no
    probed prefix: ``wants()`` runs per selection but no event is ever
    built — the worst case a ``repro explain`` replay imposes on the
    rest of the run.  "Disabled" is the default no-recorder state.
    """
    filter_recorder = ProvenanceRecorder(
        prefix_filter=["203.0.113.0/24"]   # matches nothing probed
    )
    return _compare(
        ecosystem,
        lambda: use_provenance(filter_recorder),
        contextlib.nullcontext,
    )


def test_obs_overhead_under_budget():
    ecosystem = build_ecosystem(
        REEcosystemConfig(scale=BENCH_SCALE), seed=BENCH_SEED
    )
    enabled, disabled = measure(ecosystem)
    overhead = enabled / disabled - 1.0
    print(
        "\nobs overhead: enabled %.4fs  disabled %.4fs  overhead %+.2f%%"
        % (enabled, disabled, 100.0 * overhead)
    )
    assert enabled <= disabled * (1.0 + OVERHEAD_BUDGET), (
        "instrumentation overhead %.1f%% exceeds %.0f%% budget"
        % (100.0 * overhead, 100.0 * OVERHEAD_BUDGET)
    )


def test_provenance_overhead_under_budget():
    ecosystem = build_ecosystem(
        REEcosystemConfig(scale=BENCH_SCALE), seed=BENCH_SEED
    )
    filtered, disabled = measure_provenance(ecosystem)
    overhead = filtered / disabled - 1.0
    print(
        "\nprovenance overhead: filtered %.4fs  disabled %.4fs  "
        "overhead %+.2f%%"
        % (filtered, disabled, 100.0 * overhead)
    )
    assert filtered <= disabled * (1.0 + OVERHEAD_BUDGET), (
        "provenance overhead %.1f%% exceeds %.0f%% budget"
        % (100.0 * overhead, 100.0 * OVERHEAD_BUDGET)
    )


if __name__ == "__main__":
    test_obs_overhead_under_budget()
    test_provenance_overhead_under_budget()
    print("ok")
