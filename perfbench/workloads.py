"""The benchmark's three workloads: ``reproduce``, ``campaign`` and
``whatif``.

Each workload is one closed-loop client: it issues its next operation
only after the previous one returned.  A workload object does its
set-up in :meth:`set_up` (called several times, so the runner can take
a median), runs its timed loop in :meth:`measure`, and checks every
output it produced.  Inputs are a pure function of the workload seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import time
from statistics import median
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import REEcosystemConfig
from repro.api import ExperimentSpec, WhatIfSession, run_campaign
from repro.bgp.engine import LinkFlap, LocalprefEdit, PrependChange
from repro.core.report import reproduce_paper
from repro.errors import ReproError
from repro.experiment.campaign import identity_view, plan_grid
from repro.obs.metrics import get_registry
from repro.rng import SeedTree, derive_seed
from repro.seeds.selection import select_seeds
from repro.topology.re_ecosystem import build_ecosystem

from tracing import Tracer, install

#: The workload seed the output digests below are pinned for (the
#: artefact benchmarks' ``BENCH_SEED``).
DEFAULT_SEED = 20250605

#: Pinned output digests at :data:`DEFAULT_SEED`.  Any other seed has
#: no pin; its digests are printed so two commits can be compared.
PINNED = {
    "reproduce":
        "272413bf927a8893f9a4dd14a9a2e754bbfd52b185cb55373569442dedc0361d",
    "campaign":
        "341ec64f1ad2e37e3ab0239171cc8eed914329a05191a8253372d6e1116a6490",
    "whatif":
        "afc7dd30dabe1b7c15255646f7c15d285d7e1fe9586b834e7d93082434c32bd9",
}

#: Scale of the reproduce and campaign workloads (the CI scale).
#: Paper scale (1.0) takes about three minutes per reproduction, which
#: does not fit a per-change benchmark run.
SCALE = 0.25
#: The what-if workload runs at paper scale: its operations are
#: milliseconds, and this is the scale interactive use targets.
WHATIF_SCALE = 1.0
#: Prefixes per what-if query: one ``predict`` is tens of microseconds,
#: too short to time steadily on its own.
QUERY_PREFIXES = 64
#: Share of the run budget the what-if read phase lasts; the write
#: phase takes about as long again.
READ_SHARE = 0.5
#: The what-if write steps' kinds, in the order they cycle.  Half the
#: flaps sit on links adjacent to the announcement origins.  Localpref
#: edits come three times a cycle so that the delta median falls among
#: the cheap deltas, not on the boundary to the expensive ones.
STEP_CYCLE = ("flap-origin", "localpref", "flap-random", "localpref",
              "localpref", "prepend")
#: Leading read-phase queries whose predictions are digested and
#: pinned; every run makes at least these, the traced pass exactly.
PINNED_QUERIES = 200
#: Write steps per run, a fixed sequence, all pinned.  A fixed count
#: keeps the session's growing journal, and so peak memory and the
#: cold-replay check's cost, independent of host speed.
WRITE_STEPS = 20 * len(STEP_CYCLE)
#: Campaign cell fan-out: the host has two CPUs.
POOL_WORKERS = 2


@dataclass
class Measurement:
    """What one timed loop did.

    ``op_seconds`` are the latencies of the workload's operation (the
    end-to-end latency metrics); ``extra`` holds workload-specific
    end-to-end figures reported alongside them; ``digests`` are the
    output digests checked against :data:`PINNED`."""

    op_seconds: List[float] = field(default_factory=list)
    loop_seconds: float = 0.0
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile, at most p99, that has at least ten
    samples beyond it, as ``(value, percentile)``."""
    ordered = sorted(values)
    index = len(ordered) - 1 - max(10, len(ordered) // 100)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _repeat(fn, seconds: float) -> List[float]:
    """Call *fn* until *seconds* would be exceeded by one more call of
    the median length so far (always at least once); the walls."""
    walls: List[float] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - started + median(walls) > seconds:
            return walls


class Reproduce:
    """``reproduce_paper`` at scale 0.25 on a prebuilt ecosystem, then
    ``render()`` — the repository's unit of truth.  The fastpath,
    collector and core layers do most of the work (Figure 5's
    collector view alone is about three quarters)."""

    name = "reproduce"

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.ecosystem = None
        self.digest: Optional[str] = None
        self.failed = 0

    def set_up(self) -> None:
        ecosystem = build_ecosystem(
            REEcosystemConfig(scale=SCALE), seed=self.seed
        )
        select_seeds(ecosystem, seed_tree=SeedTree(self.seed).child("seeds"))
        self.ecosystem = ecosystem

    def op(self) -> None:
        try:
            text = reproduce_paper(
                seed=self.seed, ecosystem=self.ecosystem, workers=1
            ).render()
        except ReproError:
            self.failed += 1
            return
        digest = _sha256(text)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.failed += 1

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        walls = _repeat(self.op, seconds)
        m.op_seconds = walls
        m.loop_seconds = sum(walls)
        m.completed = m.attempted = len(walls)
        m.failed = self.failed
        m.digests["reproduce"] = self.digest
        m.extra["reproduce_s"] = (median(walls), "s")
        return m

    def traced(self, tracer: Tracer, m: Measurement) -> Tuple[float, float]:
        """One traced set-up plus one traced reproduction; returns the
        traced and the untraced median reproduction wall."""
        get_registry().reset()
        with install(tracer):
            self.set_up()
            started = time.perf_counter()
            self.op()
            wall = time.perf_counter() - started
        return wall, median(m.op_seconds)


class Campaign:
    """``run_campaign`` over 2 seeds × {baseline, flaky-probes} ×
    {surf, internet2} at scale 0.25 in a two-process fork pool, into a
    fresh directory each time.  Probing and the engine do most of the
    work; no fastpath calls.  Every cell builds its own ecosystem and
    checkpoints to disk."""

    name = "campaign"

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.grid = None
        self.runs = 0

    def set_up(self) -> None:
        seeds = [
            derive_seed(self.seed, "campaign-%d" % index) % (2 ** 31)
            for index in range(2)
        ]
        self.grid = plan_grid(
            seeds, scenarios=("baseline", "flaky-probes"),
            experiments=("surf", "internet2"), scale=SCALE,
        )

    def _directory(self) -> str:
        self.runs += 1
        path = os.path.join(self.out_dir, "campaign-%d" % self.runs)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _run(self, **kwargs):
        """One campaign; ``(result or None, wall, digest or None)``."""
        directory = self._directory()
        started = time.perf_counter()
        try:
            result = run_campaign(
                self.grid, directory, resume=False, **kwargs
            )
        except ReproError:
            return None, time.perf_counter() - started, None
        wall = time.perf_counter() - started
        with open(os.path.join(directory, "campaign_summary.json"),
                  "r", encoding="utf-8") as handle:
            summary = handle.read()
        cells = [
            identity_view(result.records[spec.digest()])
            for spec in self.grid
        ]
        digest = _sha256(summary + json.dumps(cells, sort_keys=True))
        shutil.rmtree(directory, ignore_errors=True)
        return result, wall, digest

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        cell_walls: List[float] = []
        idle: List[float] = []
        digests = set()
        cells_failed = 0

        def once() -> None:
            nonlocal cells_failed
            result, wall, digest = self._run(pool_workers=POOL_WORKERS)
            m.attempted += len(self.grid)
            if result is None or result.failures:
                failed = len(self.grid) if result is None \
                    else len(result.failures)
                m.failed += failed
                cells_failed += failed
                return
            digests.add(digest)
            walls = [r["wall_seconds"] for r in result.records.values()]
            cell_walls.extend(walls)
            m.completed += 1
            capacity = wall * POOL_WORKERS
            idle.append((capacity - sum(walls)) / capacity)

        m.op_seconds = _repeat(once, seconds)
        m.loop_seconds = sum(m.op_seconds)
        if len(digests) > 1:
            m.failed = m.attempted
        m.digests["campaign"] = min(digests) if digests else None
        m.extra["cells_per_min"] = (
            60.0 * len(cell_walls) / m.loop_seconds, "1/min")
        if cell_walls:
            m.layer["campaign.cell_p50_s"] = (median(cell_walls), "s")
            m.layer["campaign.cell_max_s"] = (max(cell_walls), "s")
            m.layer["campaign.pool_idle_frac"] = (median(idle), "ratio")
        m.layer["campaign.cells_failed"] = (float(cells_failed), "count")
        return m

    def traced(self, tracer: Tracer, m: Measurement) -> Tuple[float, float]:
        """Forked cells do not return spans, so the layer spans come
        from one pass over the same grid on the inline backend: one
        untraced pass for the overhead baseline, then one traced.
        Returns the traced and the untraced inline pass walls."""
        _, untraced, _ = self._run(backend="inline")
        get_registry().reset()
        with install(tracer):
            _, wall, _ = self._run(backend="inline")
        return wall, untraced


class WhatIf:
    """A warm ``WhatIfSession`` for internet2 at paper scale, driven by
    one closed-loop client: queries over the cached configurations
    (read phase), then seed-drawn deltas each followed by a query at
    the current configuration (write phase)."""

    name = "whatif"

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.spec = ExperimentSpec(
            experiment="internet2", seed=seed, scale=WHATIF_SCALE
        )
        self.session: Optional[WhatIfSession] = None

    def set_up(self) -> None:
        self.session = None  # release the previous session first
        session = WhatIfSession(self.spec)
        for config in session.schedule.configs:
            session.advance_to_config(config)
        self.session = session

    # ----- inputs -----------------------------------------------------

    def _inputs(self):
        session = self.session
        topology = session.ecosystem.topology
        self.prefixes = sorted(
            str(plan.prefix) for plan in session.ecosystem.studied_prefixes()
        )
        self.configs = list(session.schedule.configs)
        self.origin_links = sorted(
            (origin, neighbor)
            for origin in session.host.origin_asns()
            for neighbor in topology.neighbors(origin)
        )
        self.links = [(link.a, link.b) for link in topology.links()]

    def _query(self, rng: random.Random, config: Optional[str]) -> list:
        prefixes = [rng.choice(self.prefixes) for _ in range(QUERY_PREFIXES)]
        return self.session.predict_batch(prefixes, config)

    def _steps(self, rng: random.Random) -> Iterator[tuple]:
        """Endless seed-drawn write steps, each a tuple of deltas, with
        kinds in :data:`STEP_CYCLE` order.  Origin-adjacent links and
        prepend changes cycle through seed-shuffled lists, so every run
        repeats the same expensive deltas; random links and localpref
        edits are drawn uniformly.  Every step restores what it
        changed, so the network does not drift over a run."""
        session = self.session
        topology = session.ecosystem.topology
        prefix = session.ecosystem.measurement_prefix
        re_p, comm_p = session.schedule.parsed_configs()[
            self.configs.index(session.current_config)
        ]
        origin_links = list(self.origin_links)
        rng.shuffle(origin_links)
        prepends = [
            (origin, current, value)
            for origin, current in ((session.re_origin, re_p),
                                    (session.commodity_origin, comm_p))
            for value in range(4) if value != current
        ]
        rng.shuffle(prepends)
        origin_links = itertools.cycle(origin_links)
        prepends = itertools.cycle(prepends)
        for kind in itertools.cycle(STEP_CYCLE):
            if kind.startswith("flap"):
                a, b = (
                    next(origin_links)
                    if kind == "flap-origin" else rng.choice(self.links)
                )
                yield LinkFlap(a, b, "down"), LinkFlap(a, b, "up")
            elif kind == "localpref":
                a, b = rng.choice(self.links)
                if rng.random() < 0.5:
                    a, b = b, a
                current = topology.node(a).policy.localpref_for(
                    b, topology.rel(a, b)
                )
                value = max(0, current + rng.choice((-50, -20, 20, 50)))
                yield LocalprefEdit(a, b, value), LocalprefEdit(a, b, current)
            else:
                origin, current, value = next(prepends)
                yield (PrependChange(origin, prefix, value),
                       PrependChange(origin, prefix, current))

    # ----- the loop ---------------------------------------------------

    def _loop(self, m: Measurement, read_seconds: float):
        """The read phase (at least :data:`PINNED_QUERIES` queries, for
        *read_seconds*), then the :data:`WRITE_STEPS` write steps; fills
        *m* and returns ``(query walls, delta walls, pinned digest)``.
        Each phase draws from its own generator, so the write phase's
        inputs do not depend on how many queries the read phase made."""
        session = self.session
        queries: List[float] = []
        deltas: List[float] = []
        pinned = hashlib.sha256()
        self.touched: List[int] = []

        def query(rng, config, pin) -> None:
            m.attempted += 1
            t0 = time.perf_counter()
            try:
                predictions = self._query(rng, config)
            except ReproError:
                m.failed += 1
                return
            queries.append(time.perf_counter() - t0)
            if pin:
                for p in predictions:
                    pinned.update(repr(
                        (p.prefix, p.config, p.signal, p.deliveries)
                    ).encode("utf-8"))

        rng = random.Random("%d-read" % self.seed)
        started = time.perf_counter()
        read_until = started + read_seconds
        index = 0
        while index < PINNED_QUERIES or time.perf_counter() < read_until:
            query(rng, rng.choice(self.configs), index < PINNED_QUERIES)
            index += 1
        rng = random.Random("%d-write" % self.seed)
        for step in itertools.islice(self._steps(rng), WRITE_STEPS):
            pinned.update(repr(step).encode("utf-8"))
            for delta in step:
                m.attempted += 1
                t0 = time.perf_counter()
                try:
                    outcome = session.apply(delta)
                except ReproError:
                    m.failed += 1
                    continue
                deltas.append(time.perf_counter() - t0)
                self.touched.append(outcome.touched_ases)
                query(rng, None, True)
        m.loop_seconds = time.perf_counter() - started
        m.completed = len(queries) + len(deltas)
        return queries, deltas, pinned.hexdigest()

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        self._inputs()
        queries, deltas, pinned = self._loop(m, seconds * READ_SHARE)
        # Untimed: the warm state must equal a cold replay of the
        # session's whole journal.
        if self.session.replay_cold().rib_state() != \
                self.session.rib_state():
            m.failed = m.attempted
        m.digests["whatif"] = pinned
        m.op_seconds = deltas
        query_tail, query_pct = tail(queries)
        delta_tail, delta_pct = tail(deltas)
        m.extra["query_p50_ms"] = (1e3 * median(queries), "ms")
        m.extra["query_p%.1f_ms" % query_pct] = (1e3 * query_tail, "ms")
        m.extra["delta_p50_ms"] = (1e3 * median(deltas), "ms")
        m.extra["delta_p%.1f_ms" % delta_pct] = (1e3 * delta_tail, "ms")
        m.extra["queries"] = (float(len(queries)), "count")
        m.extra["deltas"] = (float(len(deltas)), "count")
        m.extra["touched_ases_max"] = (float(max(self.touched)), "count")
        return m

    def traced(self, tracer: Tracer, m: Measurement) -> Tuple[float, float]:
        """A traced fresh set-up, the pinned queries and the same write
        steps; returns the traced and the untraced median delta wall."""
        get_registry().reset()
        with install(tracer):
            self.set_up()
            self._inputs()
            _, deltas, _ = self._loop(Measurement(), 0.0)
        return median(deltas), median(m.op_seconds)


WORKLOADS = {
    cls.name: cls for cls in (Reproduce, Campaign, WhatIf)
}
