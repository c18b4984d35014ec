"""Tests for the bulk fastpath engine, including the engine-vs-fastpath
oracle (with age tie-breaking disabled, both engines must converge to
identical routes) and the differential check of the view-based
relaxation against the frozen reference in
``tests/fastpath_reference.py``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Announcement,
    REEcosystemConfig,
    build_ecosystem,
    propagate_fastpath,
)
from repro.bgp.engine import PropagationEngine
from repro.bgp.fastpath import FastpathView
from repro.bgp.rpki import ROA, ROATable
from repro.collectors.rib import _origin_signature, build_collector_rib
from repro.errors import EngineError
from repro.netutil import Prefix
from repro.obs import use_frontier, use_provenance, use_registry
from repro.rng import SeedTree
from repro.topology.graph import Topology

from tests.fastpath_reference import (
    propagate_fastpath as reference_fastpath,
)
from tests.test_property_routing import random_topology

PFX = Prefix.parse("192.0.2.0/24")


def diamond():
    """1 announces; 4 hears via 2 (short) and 3 (long)."""
    topo = Topology()
    for asn in (1, 2, 3, 5, 4):
        topo.add_as(asn, "as%d" % asn)
    topo.add_provider(1, 2)
    topo.add_provider(1, 3)
    topo.add_provider(5, 3)  # make 3's side longer via 5? (unused leg)
    topo.add_provider(2, 4)
    topo.add_provider(3, 4)
    return topo


class TestFastpathBasics:
    def test_simple_reachability(self):
        topo = diamond()
        result = propagate_fastpath(topo, [Announcement(PFX, 1)])
        assert result.route_at(4) is not None
        assert result.route_at(4).origin_asn == 1

    def test_shortest_path_chosen(self):
        topo = diamond()
        result = propagate_fastpath(
            topo, [Announcement(PFX, 1, prepends={3: 2})]
        )
        assert result.route_at(4).path.asns == (2, 1)

    def test_offers_contain_alternatives(self):
        topo = diamond()
        result = propagate_fastpath(topo, [Announcement(PFX, 1)])
        candidates = result.candidates_at(4)
        assert {r.learned_from for r in candidates} == {2, 3}

    def test_empty_announcements_rejected(self):
        with pytest.raises(EngineError):
            propagate_fastpath(diamond(), [])

    def test_mismatched_prefixes_rejected(self):
        other = Prefix.parse("198.51.100.0/24")
        with pytest.raises(EngineError):
            propagate_fastpath(
                diamond(),
                [Announcement(PFX, 1), Announcement(other, 2)],
            )

    def test_valley_free_respected(self):
        """A route learned from a provider never flows to another
        provider."""
        topo = Topology()
        for asn in (1, 2, 3):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(2, 1)  # 1 provides 2
        topo.add_provider(2, 3)  # 3 provides 2
        result = propagate_fastpath(topo, [Announcement(PFX, 1)])
        assert result.route_at(2) is not None
        assert result.route_at(3) is None

    def test_two_origins(self):
        topo = diamond()
        result = propagate_fastpath(
            topo,
            [
                Announcement(PFX, 1, tag="a", default_prepends=3),
                Announcement(PFX, 5, tag="b"),
            ],
        )
        # 4 hears a long path from 1 and a short one from 5 via 3.
        assert result.route_at(4).tag == "b"


class TestIncumbentSelection:
    """Selection compares a changed offer with the incumbent, and falls
    back to the whole adj-RIB-in when the incumbent's own neighbor
    changes; these cases pin the fallbacks the ecosystems rarely hit."""

    @staticmethod
    def incumbent_withdrawn():
        """40 first picks 20's commodity route over 30's (lower
        neighbor ASN); then 20 switches to a preferred R&E route it
        does not export to 40 and withdraws, leaving 30's offer as
        40's only candidate."""
        topo = Topology()
        for asn in (1, 2, 10, 20, 30, 40):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(1, 20)   # commodity origin
        topo.add_provider(1, 30)
        topo.add_provider(2, 10)   # R&E origin, one hop further away
        topo.add_provider(10, 20)
        topo.add_provider(40, 20)
        topo.add_provider(40, 30)
        topo.node(20).policy.set_neighbor_localpref(10, 400)
        topo.node(20).policy.no_export_tags[40] = {"re"}
        announcements = [
            Announcement(PFX, 1, tag="commodity"),
            Announcement(PFX, 2, tag="re"),
        ]
        return topo, announcements

    def test_incumbent_withdrawal_falls_back_to_the_rest(self):
        topo, announcements = self.incumbent_withdrawn()
        result = propagate_fastpath(topo, announcements)
        assert result.route_at(20).tag == "re"
        assert result.route_at(40).path.asns == (30, 1)
        _assert_same(result, reference_fastpath(topo, announcements))

    def test_provenance_matches_reference(self):
        topo, announcements = self.incumbent_withdrawn()
        events = []
        for propagate in (propagate_fastpath, reference_fastpath):
            with use_provenance() as recorder:
                propagate(topo, announcements)
            events.append(recorder.events())
        assert events[0] and events[0] == events[1]


class TestEngineOracle:
    """The event-driven engine and the fastpath must agree at fixpoint
    when route age cannot influence selection."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("prepends", [0, 2])
    def test_agreement_on_ecosystem(self, seed, prepends):
        eco = build_ecosystem(REEcosystemConfig(scale=0.04), seed=seed)
        topo = eco.topology
        for node in topo.ases():
            node.policy.age_tiebreak = False
        announcements = [
            Announcement(
                eco.measurement_prefix, eco.internet2_origin,
                default_prepends=prepends, tag="re",
            ),
            Announcement(
                eco.measurement_prefix, eco.commodity_origin,
                tag="commodity",
            ),
        ]
        fast = propagate_fastpath(topo, announcements)

        engine = PropagationEngine(topo, SeedTree(seed))
        engine.announce(eco.commodity_origin, eco.measurement_prefix,
                        tag="commodity")
        engine.run_to_fixpoint()
        engine.announce(eco.internet2_origin, eco.measurement_prefix,
                        default_prepends=prepends, tag="re")
        engine.run_to_fixpoint()

        for asn in topo.nodes:
            a = engine.best_route(asn, eco.measurement_prefix)
            b = fast.route_at(asn)
            key_a = (a.tag, a.path.asns) if a else None
            key_b = (b.tag, b.path.asns) if b else None
            assert key_a == key_b, "AS %d: %r != %r" % (asn, key_a, key_b)

    def test_agreement_is_route_type_stable_with_age(self):
        """Even with age tie-breaking on, the *route type* (R&E vs
        commodity) agrees wherever localpref or length decides."""
        eco = build_ecosystem(REEcosystemConfig(scale=0.04), seed=5)
        topo = eco.topology
        announcements = [
            Announcement(eco.measurement_prefix, eco.internet2_origin,
                         tag="re"),
            Announcement(eco.measurement_prefix, eco.commodity_origin,
                         tag="commodity"),
        ]
        fast = propagate_fastpath(topo, announcements)
        engine = PropagationEngine(topo, SeedTree(5))
        engine.announce(eco.commodity_origin, eco.measurement_prefix,
                        tag="commodity")
        engine.announce(eco.internet2_origin, eco.measurement_prefix,
                        tag="re")
        engine.run_to_fixpoint()
        differing_type = 0
        total = 0
        for asn in topo.nodes:
            a = engine.best_route(asn, eco.measurement_prefix)
            b = fast.route_at(asn)
            if a is None or b is None:
                assert (a is None) == (b is None)
                continue
            total += 1
            if a.tag != b.tag:
                differing_type += 1
        # Ties broken differently are possible but must be rare.
        assert differing_type <= total * 0.05


def _signature_runs(ecosystem):
    """``(prefix, origin)`` of every collector-signature representative,
    in ``build_collector_rib``'s order."""
    by_origin = {}
    for plan in ecosystem.studied_prefixes():
        by_origin.setdefault(plan.origin_asn, []).append(plan.prefix)
    seen = set()
    runs = []
    for origin in sorted(by_origin):
        signature = _origin_signature(ecosystem.topology, origin)
        if signature not in seen:
            seen.add(signature)
            runs.append((by_origin[origin][0], origin))
    return runs


def _measurement(ecosystem):
    return [
        Announcement(ecosystem.measurement_prefix,
                     ecosystem.internet2_origin, tag="re"),
        Announcement(ecosystem.measurement_prefix,
                     ecosystem.commodity_origin, tag="commodity"),
    ]


def _assert_same(result, reference):
    assert result.prefix == reference.prefix
    assert result.best == reference.best
    assert result.offers == reference.offers


_WORK_COUNTERS = (
    "fastpath.iterations",
    "fastpath.selections",
    "fastpath.decision_cache_hits",
    "fastpath.decision_cache_misses",
)


def _counted(propagate, *args, **kwargs):
    """*propagate*'s result and its work counters, read from a fresh
    registry."""
    with use_registry() as registry:
        result = propagate(*args, **kwargs)
    return result, {name: registry.counter_value(name)
                    for name in _WORK_COUNTERS}


class TestViewDifferential:
    """The view-based relaxation against the frozen pre-view reference
    on the TEST_SCALE ecosystem."""

    def test_reused_view_matches_reference_per_signature(self, ecosystem):
        topology = ecosystem.topology
        view = FastpathView(topology)
        runs = _signature_runs(ecosystem)
        assert len(runs) > 20
        for prefix, origin in runs:
            announcements = [Announcement(prefix=prefix, origin_asn=origin)]
            reference, expected = _counted(
                reference_fastpath, topology, announcements
            )
            shared, shared_counts = _counted(
                propagate_fastpath, topology, announcements, view=view
            )
            one_shot, one_shot_counts = _counted(
                propagate_fastpath, topology, announcements
            )
            _assert_same(shared, reference)
            _assert_same(one_shot, reference)
            # A fresh view misses its decision-process cache exactly
            # where the reference's per-call cache does; a shared one
            # moves only misses to hits.
            assert one_shot_counts == expected
            assert shared_counts["fastpath.iterations"] == (
                expected["fastpath.iterations"]
            )
            assert shared_counts["fastpath.selections"] == (
                expected["fastpath.selections"]
            )
            assert (
                shared_counts["fastpath.decision_cache_hits"]
                + shared_counts["fastpath.decision_cache_misses"]
                == expected["fastpath.decision_cache_hits"]
                + expected["fastpath.decision_cache_misses"]
            )

    def test_compact_paths_match_routes_per_signature(self, ecosystem):
        """``path_at`` reads the path ``route_at`` materialises, and the
        collector RIB's observer entry is that path."""
        topology = ecosystem.topology
        observer = ecosystem.ripe_asn
        rib = build_collector_rib(ecosystem, [observer])
        for prefix, origin in _signature_runs(ecosystem):
            announcements = [Announcement(prefix=prefix, origin_asn=origin)]
            compact = propagate_fastpath(topology, announcements)
            paths = {asn: compact.path_at(asn) for asn in topology.nodes}
            routes = propagate_fastpath(topology, announcements)
            for asn, path in paths.items():
                route = routes.route_at(asn)
                assert path == (None if route is None else route.path.asns)
            entry = rib.route(observer, prefix)
            if paths[observer] is None:
                assert entry is None
            else:
                assert entry.path == paths[observer]

    def test_measurement_plain(self, ecosystem):
        announcements = _measurement(ecosystem)
        _assert_same(
            propagate_fastpath(ecosystem.topology, announcements),
            reference_fastpath(ecosystem.topology, announcements),
        )

    def test_measurement_with_down_links(self, ecosystem):
        topology = ecosystem.topology
        down = []
        for origin in (ecosystem.internet2_origin,
                       ecosystem.commodity_origin):
            for neighbor in sorted(topology.neighbors(origin))[:2]:
                down.append(frozenset((origin, neighbor)))
        announcements = _measurement(ecosystem)
        result = propagate_fastpath(topology, announcements,
                                    down_links=down)
        _assert_same(
            result,
            reference_fastpath(topology, announcements, down_links=down),
        )
        assert result.best != propagate_fastpath(
            topology, announcements
        ).best

    def test_measurement_with_rov(self, ecosystem):
        topology = ecosystem.topology
        # Only the R&E origin is authorised, so ROV-enforcing ASes drop
        # the commodity announcement on import.
        roas = ROATable([ROA(ecosystem.measurement_prefix,
                             ecosystem.internet2_origin)])
        enforcing = sorted(topology.nodes)[::7]
        saved = {asn: topology.node(asn).policy.enforce_rov
                 for asn in enforcing}
        try:
            for asn in enforcing:
                topology.node(asn).policy.enforce_rov = True
            announcements = _measurement(ecosystem)
            result = propagate_fastpath(topology, announcements,
                                        roa_table=roas)
            reference = reference_fastpath(topology, announcements,
                                           roa_table=roas)
        finally:
            for asn, value in saved.items():
                topology.node(asn).policy.enforce_rov = value
        _assert_same(result, reference)
        assert result.best != propagate_fastpath(
            topology, announcements
        ).best
        assert all(
            route.tag == "re"
            for asn, route in result.best.items()
            if asn in saved and route.learned_from is not None
        )

    def test_measurement_with_tag_filters(self, ecosystem):
        topology = ecosystem.topology
        announcements = _measurement(ecosystem)
        plain = propagate_fastpath(topology, announcements)
        # Every third AS holding a re-exported R&E route loses it: its
        # neighbor stops exporting "re"-tagged routes to it.
        edges = [
            (route.learned_from, asn)
            for asn, route in sorted(plain.best.items())
            if route.tag == "re" and route.path.length > 1
        ][::3]
        saved = {sender: dict(topology.node(sender).policy.no_export_tags)
                 for sender, _ in edges}
        try:
            for sender, receiver in edges:
                topology.node(sender).policy.no_export_tags[receiver] = {"re"}
            result = propagate_fastpath(topology, announcements)
            reference = reference_fastpath(topology, announcements)
        finally:
            for asn, tags in saved.items():
                current = topology.node(asn).policy.no_export_tags
                current.clear()
                current.update(tags)
        _assert_same(result, reference)
        assert result.best != plain.best

    def test_provenance_and_frontier_streams_match(self, ecosystem):
        announcements = _measurement(ecosystem)
        streams = []
        for propagate in (propagate_fastpath, reference_fastpath):
            with use_provenance() as recorder, use_frontier() as trace:
                propagate(ecosystem.topology, announcements)
            streams.append((recorder.events(), trace.events()))
        (events, frontier), (ref_events, ref_frontier) = streams
        assert events and frontier
        assert events == ref_events
        assert frontier == ref_frontier

    def test_view_reuse_leaks_no_state(self, ecosystem):
        topology = ecosystem.topology
        (prefix_a, origin_a), (prefix_b, origin_b) = (
            _signature_runs(ecosystem)[:2]
        )
        first = [Announcement(prefix=prefix_a, origin_asn=origin_a)]
        second = [Announcement(prefix=prefix_b, origin_asn=origin_b)]
        view = FastpathView(topology)
        a1 = propagate_fastpath(topology, first, view=view)
        propagate_fastpath(topology, second, view=view)
        a2 = propagate_fastpath(topology, first, view=view)
        _assert_same(a2, a1)
        _assert_same(a1, propagate_fastpath(topology, first))

    def test_view_of_another_topology_rejected(self, ecosystem):
        with pytest.raises(EngineError):
            propagate_fastpath(
                diamond(), [Announcement(PFX, 1)],
                view=FastpathView(ecosystem.topology),
            )


@settings(max_examples=150, deadline=None)
@given(random_topology(), st.data())
def test_matches_reference_on_random_topologies(case, data):
    """On random small topologies with up to two tagged origins, tag
    filters and failed links, the relaxation matches the reference,
    counters included."""
    topo, origin, prepends = case
    announcements = [
        Announcement(PFX, origin, default_prepends=prepends, tag="re")
    ]
    second = data.draw(st.integers(min_value=1, max_value=len(topo)))
    if second != origin:
        announcements.append(Announcement(PFX, second, tag="commodity"))
    links = sorted(
        (a, b) for a in topo.nodes for b in topo.neighbors(a) if a < b
    )
    for a, b in links:
        for sender, receiver in ((a, b), (b, a)):
            if data.draw(st.integers(min_value=0, max_value=4)) == 0:
                topo.node(sender).policy.no_export_tags[receiver] = {"re"}
    down = []
    if links:
        down = [frozenset(link) for link in data.draw(
            st.lists(st.sampled_from(links), max_size=2)
        )]
    reference, expected = _counted(
        reference_fastpath, topo, announcements, down_links=down
    )
    result, counts = _counted(
        propagate_fastpath, topo, announcements, down_links=down
    )
    _assert_same(result, reference)
    assert counts == expected
