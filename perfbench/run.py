"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload reproduce --seed 20250605 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload

The program is imported from ``src/`` next to this directory; nothing
is installed.  Each run is one fresh process: before importing the
program the script re-executes itself with ``PYTHONHASHSEED`` derived
from the workload seed, so hash-order effects on timing repeat with
the seed.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` the run
adds one traced pass and reports the per-layer metrics instead.  The
run writes only under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "_out")

WORKLOAD_NAMES = ("reproduce", "campaign", "whatif")
#: Set-ups per run; ``setup_s`` is the import time plus their median.
SETUP_REPS = 3


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` a workload seed runs under."""
    return str(seed % 4294967296)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=20250605)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def peak_rss_mb(with_children: bool) -> float:
    """``ru_maxrss`` of this process (plus its largest reaped child,
    for the campaign's pool workers), in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def run_all(args) -> int:
    """Every workload, one fresh process each; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = entry
    print(json.dumps(combined, sort_keys=True))
    return 0


def layer_metrics(tracer, counters, m, traced_wall, untraced_wall):
    """The per-layer metrics of one traced pass (see README.md)."""
    def count(name):
        return float(counters.get(name, 0.0))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "topology.build_s": (tracer.seconds("topology.build"), "s"),
        "seeds.select_s": (tracer.seconds("seeds.select"), "s"),
        "engine.fixpoint_calls": (
            float(tracer.calls("engine.fixpoint")), "count"),
        "engine.fixpoint_s": (tracer.seconds("engine.fixpoint"), "s"),
        "engine.messages_delivered": (
            count("engine.messages_delivered"), "count"),
        "engine.best_change_frac": (ratio(
            count("engine.best_changes"),
            count("engine.messages_delivered")), "ratio"),
        "engine.delta_calls": (float(tracer.calls("engine.delta")), "count"),
        "engine.delta_s": (tracer.seconds("engine.delta"), "s"),
        "engine.delta_touched_ases": (float(tracer.touched_ases), "count"),
        "fastpath.calls": (
            float(tracer.calls("fastpath.propagate")), "count"),
        "fastpath.s": (tracer.seconds("fastpath.propagate"), "s"),
        "fastpath.iterations": (count("fastpath.iterations"), "count"),
        "fastpath.decision_cache_hit_frac": (ratio(
            count("fastpath.decision_cache_hits"),
            count("fastpath.decision_cache_hits")
            + count("fastpath.decision_cache_misses")), "ratio"),
        "collectors.rib_calls": (
            float(tracer.calls("collectors.rib")), "count"),
        "collectors.rib_s": (tracer.seconds("collectors.rib"), "s"),
        "probing.rounds": (float(tracer.calls("probing.round")), "count"),
        "probing.round_s": (tracer.seconds("probing.round"), "s"),
        "probing.probes_sent": (count("prober.probes_sent"), "count"),
        "probing.response_frac": (ratio(
            count("prober.responses"), count("prober.probes_sent")),
            "ratio"),
        "forwarding.capture_calls": (
            float(tracer.calls("forwarding.capture")), "count"),
        "forwarding.capture_s": (tracer.seconds("forwarding.capture"), "s"),
        "runner.run_s": (tracer.seconds("runner.run"), "s"),
        "campaign.cell_p50_s": (0.0, "s"),
        "campaign.cell_max_s": (0.0, "s"),
        "campaign.pool_idle_frac": (0.0, "ratio"),
        "campaign.cells_failed": (0.0, "count"),
        "core.figure5_s": (tracer.seconds("core.figure5"), "s"),
        "core.classify_s": (tracer.seconds("core.classify"), "s"),
        "core.report_s": (tracer.seconds("core.report"), "s"),
        "whatif.advance_s": (tracer.seconds("whatif.advance"), "s"),
        "whatif.predict_s": (tracer.seconds("whatif.predict"), "s"),
        "whatif.apply_s": (tracer.seconds("whatif.apply"), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
    metrics.update(m.layer)
    return metrics


def main() -> int:
    args = parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    wanted = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
            dict(os.environ, PYTHONHASHSEED=wanted),
        )

    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    import_s = time.perf_counter() - started
    from tracing import Tracer
    from repro.obs.metrics import get_registry

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.set_up()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + median(setups)

    # A traced run spends half its budget on the untraced loop that
    # the trace overhead is measured against.
    m = workload.measure(args.seconds / (2.0 if args.trace else 1.0))

    pin = workloads.PINNED[args.workload] \
        if args.seed == workloads.DEFAULT_SEED else None
    for name, digest in sorted(m.digests.items()):
        status = "unpinned" if pin is None else (
            "ok" if digest == pin else "MISMATCH (pin %s)" % pin)
        print("digest %s %s %s" % (name, digest, status))
        if pin is not None and digest != pin:
            m.failed = m.attempted

    end_to_end = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (1e3 * median(m.op_seconds), "ms"),
        "ops_per_s": (m.completed / m.loop_seconds, "1/s"),
        "peak_rss_mb": (
            peak_rss_mb(args.workload == "campaign"), "MB"),
    }
    print("workload %s seed %d PYTHONHASHSEED %s operations timed %d"
          % (args.workload, args.seed, wanted, len(m.op_seconds)))
    reported = dict(end_to_end)
    reported.update(m.extra)
    reported["failed_frac"] = (m.failed / max(1, m.attempted), "ratio")
    for name, (value, unit) in reported.items():
        print("  %-22s %14.4f %s" % (name, value, unit))

    metrics = end_to_end
    if args.trace:
        tracer = Tracer()
        traced_wall, untraced_wall = workload.traced(tracer, m)
        counters = get_registry().snapshot()["counters"]
        metrics = layer_metrics(tracer, counters, m, traced_wall,
                                untraced_wall)
        for name, (value, unit) in metrics.items():
            print("  %-34s %14.4f %s" % (name, value, unit))
        path = os.path.join(
            OUT, "trace-%s-%d.json" % (args.workload, args.seed))
        tracer.write(path, {
            "workload": args.workload, "seed": args.seed,
            "PYTHONHASHSEED": wanted,
            "pass": "inline" if args.workload == "campaign" else "serial",
        })
        print("spans written to %s" % os.path.relpath(path))

    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": max(1, m.attempted),
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
