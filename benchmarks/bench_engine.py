"""Raw substrate performance: propagation engines and bulk RIB builds.

Not a paper table — these benches track the cost of the three hot
paths that bound full-scale (scale=1.0) reproduction time: one
event-driven convergence of the measurement prefix, one fastpath
propagation, and the memoized collector-RIB build over every studied
prefix.
"""

from conftest import BENCH_SEED, show

from repro import Announcement, propagate_fastpath
from repro.bgp.engine import PropagationEngine
from repro.collectors import build_collector_rib
from repro.rng import SeedTree


def test_engine_convergence(benchmark, bench_ecosystem, bench_emit):
    eco = bench_ecosystem

    def run():
        engine = PropagationEngine(eco.topology, SeedTree(BENCH_SEED))
        engine.announce(eco.commodity_origin, eco.measurement_prefix,
                        tag="commodity")
        engine.announce(eco.internet2_origin, eco.measurement_prefix,
                        tag="re")
        return engine.run_to_fixpoint()

    stats = benchmark(run)
    show(
        "Engine — event-driven convergence",
        [
            ("messages delivered", "-", "%d" % stats.messages_delivered),
            ("best changes", "-", "%d" % stats.best_changes),
            ("simulated convergence time", "minutes",
             "%.0f s" % stats.duration),
        ],
    )
    assert stats.messages_delivered > 0
    bench_emit.update(
        messages_delivered=stats.messages_delivered,
        best_changes=stats.best_changes,
        topology_ases=len(eco.topology),
    )


def test_fastpath_propagation(benchmark, bench_ecosystem, bench_emit):
    eco = bench_ecosystem
    announcements = [
        Announcement(eco.measurement_prefix, eco.internet2_origin, tag="re"),
        Announcement(eco.measurement_prefix, eco.commodity_origin,
                     tag="commodity"),
    ]
    result = benchmark(propagate_fastpath, eco.topology, announcements)
    assert len(result.best) >= 0.9 * len(eco.topology)
    bench_emit.update(
        ases_with_route=len(result.best),
        topology_ases=len(eco.topology),
    )


def test_collector_rib_build(benchmark, bench_ecosystem, bench_emit):
    eco = bench_ecosystem
    rib = benchmark.pedantic(
        build_collector_rib, args=(eco, [eco.ripe_asn]),
        rounds=1, iterations=1,
    )
    show(
        "Collector RIB — memoized bulk build",
        [
            ("prefixes resolved", "-",
             "%d" % len(rib.routes_of(eco.ripe_asn))),
            ("fastpath runs", "-", "%d" % rib.fastpath_runs),
            ("memo hits", "-", "%d" % rib.memo_hits),
        ],
    )
    assert rib.memo_hits > 0
    origins = {p.origin_asn for p in eco.studied_prefixes()}
    assert rib.fastpath_runs < len(origins)
    bench_emit.update(
        fastpath_runs=rib.fastpath_runs,
        memo_hits=rib.memo_hits,
        prefixes_resolved=len(rib.routes_of(eco.ripe_asn)),
    )
