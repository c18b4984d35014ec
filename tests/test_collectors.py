"""Tests for the collector substrate: update ingestion, RIB snapshots,
and the churn report."""

from types import SimpleNamespace

import pytest

from repro.bgp.engine import UpdateEvent
from repro.bgp.attributes import Announcement, ASPath, Route
from repro.bgp.fastpath import propagate_fastpath
from repro.collectors import Collector, build_churn_report, build_collector_rib
from repro.collectors.rib import (
    _origin_signature,
    neighbor_is_re,
    observe_origin_prepending,
)
from repro.core.report import experiment_collector
from repro.netutil import Prefix
from repro.topology.graph import Topology
from repro.topology.re_config import PrependClass

MEAS = Prefix.parse("163.253.63.0/24")


def _event(time, asn, tag="commodity", weight=None, withdraw=False):
    route = None
    if not withdraw:
        route = Route(
            prefix=MEAS, path=ASPath((asn, 396955)), learned_from=asn,
            localpref=100, tag=tag,
        )
    return UpdateEvent(
        time=time, asn=asn, prefix=MEAS, route=route, session_weight=weight
    )


class TestCollector:
    def test_ingest_filters_to_feeders(self):
        collector = Collector("c", {1: 3})
        added = collector.ingest([_event(0.0, 1), _event(1.0, 2)])
        assert added == 1

    def test_session_weighting(self):
        collector = Collector("c", {1: 3})
        collector.ingest([_event(0.0, 1)])
        assert collector.message_count() == 3

    def test_session_weight_override(self):
        collector = Collector("c", {1: 10})
        collector.ingest([_event(0.0, 1, weight=1)])
        assert collector.message_count() == 1

    def test_window_and_tag_filters(self):
        collector = Collector("c", {1: 1})
        collector.ingest([
            _event(0.0, 1, tag="re"),
            _event(10.0, 1, tag="commodity"),
        ])
        assert collector.message_count(start=5.0) == 1
        assert collector.message_count(end=5.0) == 1
        assert collector.message_count(tag="re") == 1

    def test_withdraw_recorded_without_origin(self):
        collector = Collector("c", {1: 1})
        collector.ingest([_event(0.0, 1, withdraw=True)])
        assert collector.updates[0].origin_asn is None

    def test_origins_seen(self):
        collector = Collector("c", {1: 1})
        collector.ingest([_event(0.0, 1), _event(1.0, 1, withdraw=True)])
        assert collector.origins_seen(1) == [396955]
        assert collector.origins_seen(2) == []


class TestChurnReport:
    def test_phases_split_at_commodity_change(
        self, ecosystem, internet2_result
    ):
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        assert report.re_phase.end == report.commodity_phase.start
        assert report.re_phase.updates >= 0
        assert report.commodity_phase.updates > 0

    def test_commodity_phase_much_heavier(
        self, ecosystem, internet2_result
    ):
        """Figure 3's headline: sparse R&E phase vs heavy commodity
        phase (162 vs 9,168 in the paper)."""
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        assert report.commodity_phase.updates > 10 * report.re_phase.updates

    def test_re_phase_extra_updates_are_commodity(
        self, ecosystem, internet2_result
    ):
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        assert report.re_phase.commodity_tagged <= report.re_phase.updates

    def test_series_cumulative(self, ecosystem, internet2_result):
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        values = [count for _, count in report.series]
        assert values == sorted(values)
        assert values[-1] == (
            report.re_phase.updates + report.commodity_phase.updates
        )

    def test_quiet_before_probing(self, ecosystem, internet2_result):
        """The paper saw activity settled well before each round."""
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        assert report.min_quiet_minutes is not None
        assert report.min_quiet_minutes > 10.0

    def test_summary_rows(self, ecosystem, internet2_result):
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        rows = report.summary_rows()
        assert any("commodity prepends phase" in row for row in rows)


class TestCollectorRIB:
    def test_observer_routes_cover_most_prefixes(self, ecosystem):
        rib = build_collector_rib(ecosystem, [ecosystem.ripe_asn])
        routes = rib.routes_of(ecosystem.ripe_asn)
        assert len(routes) > 0.95 * len(ecosystem.studied_prefixes())

    def test_memoization_effective(self, ecosystem):
        rib = build_collector_rib(ecosystem, [ecosystem.ripe_asn])
        assert rib.memo_hits > 0
        assert rib.fastpath_runs + rib.memo_hits == len(
            {p.origin_asn for p in ecosystem.studied_prefixes()}
        )

    def test_paths_end_at_origin(self, ecosystem):
        rib = build_collector_rib(ecosystem, [ecosystem.ripe_asn])
        for prefix, entry in list(
            rib.routes_of(ecosystem.ripe_asn).items()
        )[:200]:
            assert entry.origin_asn == ecosystem.prefix_plans[prefix].origin_asn

    def test_memoized_matches_direct(self, ecosystem):
        """Every origin's entry, memo hit or not, equals a direct
        fastpath run for one of its prefixes."""
        from repro import Announcement, propagate_fastpath

        rib = build_collector_rib(ecosystem, [ecosystem.ripe_asn])
        first_plan = {}
        for plan in ecosystem.studied_prefixes():
            first_plan.setdefault(plan.origin_asn, plan)
        assert len(first_plan) == rib.fastpath_runs + rib.memo_hits
        for plan in first_plan.values():
            direct = propagate_fastpath(
                ecosystem.topology,
                [Announcement(plan.prefix, plan.origin_asn)],
            ).route_at(ecosystem.ripe_asn)
            entry = rib.route(ecosystem.ripe_asn, plan.prefix)
            if direct is None:
                assert entry is None
            else:
                assert entry.path == direct.path.asns

    def test_neighbor_is_re(self, ecosystem):
        assert neighbor_is_re(ecosystem.topology, ecosystem.geant_asn)
        assert not neighbor_is_re(ecosystem.topology, ecosystem.lumen_asn)


# Two origins, 10 and 11, with the same neighbors and relationships;
# each builder makes them differ in one more input the fastpath reads
# on the origin's own edges, and returns the observer that sees it.


def _two_homed(topo):
    """10 and 11 are customers of 2 and 3; 3 is a customer of 2; the
    observer 5 is a customer of 2, which prefers the direct route."""
    for asn in (2, 3, 5, 10, 11):
        topo.add_as(asn, "as%d" % asn)
    for origin in (10, 11):
        topo.add_provider(origin, 2)
        topo.add_provider(origin, 3)
    topo.add_provider(3, 2)
    topo.add_provider(5, 2)
    return 5


def _upstream_localpref_override(topo):
    observer = _two_homed(topo)
    topo.node(2).policy.set_neighbor_localpref(10, 50)
    return observer


def _origin_tag_filter(topo):
    observer = _two_homed(topo)
    topo.node(10).policy.no_export_tags[2] = {""}
    return observer


def _origin_fabric_link(topo):
    """10 and 11 are customers of 3 and peers of 2, over the R&E fabric
    for 10 only; 2 is a fabric peer of the observer 4, which gives 2
    and its customer 3 the same localpref."""
    for asn in (2, 3, 4, 10, 11):
        topo.add_as(asn, "as%d" % asn)
    topo.add_peering(10, 2, fabric=True)
    topo.add_peering(11, 2)
    for origin in (10, 11):
        topo.add_provider(origin, 3)
    topo.add_provider(3, 4)
    topo.add_peering(2, 4, fabric=True)
    topo.node(4).policy.set_neighbor_localpref(2, 300)
    return 4


@pytest.mark.parametrize("build", [
    _upstream_localpref_override,
    _origin_tag_filter,
    _origin_fabric_link,
])
def test_origin_signature_covers_origin_edge_policy(build):
    topo = Topology()
    observer = build(topo)
    prefixes = {10: Prefix.parse("10.0.0.0/24"),
                11: Prefix.parse("11.0.0.0/24")}
    for origin, prefix in prefixes.items():
        topo.originate(origin, prefix)
    assert _origin_signature(topo, 10) != _origin_signature(topo, 11)

    rib = build_collector_rib(
        SimpleNamespace(topology=topo), [observer], prefixes.values()
    )
    assert (rib.fastpath_runs, rib.memo_hits) == (2, 0)
    direct = {
        origin: propagate_fastpath(
            topo, [Announcement(prefix, origin)]
        ).route_at(observer).path.asns
        for origin, prefix in prefixes.items()
    }
    for origin, prefix in prefixes.items():
        assert rib.route(observer, prefix).path == direct[origin]
    # Reusing 10's run for 11 would have been wrong: the paths differ
    # beyond the origin ASN.
    assert direct[10][:-1] != direct[11][:-1]


class TestPrependObservation:
    def test_matches_ground_truth_classes(self, ecosystem):
        observations = observe_origin_prepending(ecosystem)
        mismatches = 0
        checked = 0
        for plan in ecosystem.studied_prefixes():
            truth = ecosystem.members.get(plan.origin_asn)
            if truth is None or truth.behind_transit is not None:
                continue
            observation = observations[plan.prefix]
            checked += 1
            if truth.prepend_class is PrependClass.NO_COMMODITY:
                ok = not observation.has_commodity
            elif truth.prepend_class is PrependClass.MORE_COMMODITY:
                ok = (
                    observation.has_commodity
                    and observation.commodity_prepends > observation.re_prepends
                )
            elif truth.prepend_class is PrependClass.MORE_RE:
                ok = (
                    observation.has_commodity
                    and observation.re_prepends > observation.commodity_prepends
                )
            else:
                ok = (
                    observation.has_commodity
                    and observation.re_prepends == observation.commodity_prepends
                )
            if not ok:
                mismatches += 1
        assert checked > 0
        assert mismatches == 0

    def test_every_studied_prefix_observed(self, ecosystem):
        observations = observe_origin_prepending(ecosystem)
        assert len(observations) == len(ecosystem.studied_prefixes())
