"""Tests for the measurement host, the return-path walker, and the
prober."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Announcement, Prefix, propagate_fastpath
from repro.errors import ExperimentError
from repro.netutil import parse_address
from repro.probing import (
    ForwardingOutcome,
    MeasurementHost,
    VLANInterface,
    walk_return_path,
)
from repro.probing.forwarding import (
    MAX_AS_HOPS,
    Catchment,
    _DEFAULT,
    _LOCAL,
    _NONE,
    _ROUTE,
    _walk,
    fastpath_rib,
)
from repro.probing.host import DEFAULT_SOURCE
from repro.probing.prober import Prober
from repro.rng import SeedTree
from repro.seeds.selection import ProbeMethod, ProbeTarget
from repro.topology.graph import Topology
from repro.topology.re_config import SystemPlan

MEAS = Prefix.parse("163.253.63.0/24")


def dual_homed_topology():
    """member(5) homed to re-origin(1) and commodity chain 3->2."""
    topo = Topology()
    for asn in (1, 2, 3, 5):
        topo.add_as(asn, "as%d" % asn)
    topo.add_provider(5, 1)
    topo.add_provider(5, 3)
    topo.add_provider(3, 2)
    return topo


class TestMeasurementHost:
    def test_source_must_be_inside_prefix(self):
        with pytest.raises(ExperimentError):
            MeasurementHost(MEAS, parse_address("10.0.0.1"))

    def test_default_source_inside(self):
        host = MeasurementHost(MEAS)
        assert MEAS.contains_address(DEFAULT_SOURCE)

    def test_attach_and_lookup(self):
        host = MeasurementHost(MEAS)
        iface = VLANInterface("v1", "re", "test")
        host.attach(1, iface)
        assert host.interface_for_origin(1) is iface
        assert host.origin_asns() == [1]

    def test_duplicate_attach_rejected(self):
        host = MeasurementHost(MEAS)
        host.attach(1, VLANInterface("v1", "re", "test"))
        with pytest.raises(ExperimentError):
            host.attach(1, VLANInterface("v2", "commodity", "test"))

    def test_unknown_origin(self):
        with pytest.raises(ExperimentError):
            MeasurementHost(MEAS).interface_for_origin(9)

    def test_for_experiment_surf_uses_tunnel(self):
        host = MeasurementHost.for_experiment(MEAS, 1125, 396955, "surf")
        assert host.interface_for_origin(1125).kind == "re"
        assert "tunnel" in host.interface_for_origin(1125).description.lower()
        assert host.interface_for_origin(396955).kind == "commodity"

    def test_for_experiment_internet2_uses_vrf(self):
        host = MeasurementHost.for_experiment(MEAS, 11537, 396955,
                                              "internet2")
        assert "VRF" in host.interface_for_origin(11537).description


class TestWalker:
    def _walk(self, topo, announcements, start, origins):
        result = propagate_fastpath(topo, announcements)
        return walk_return_path(
            topo, fastpath_rib(result), start, origins, MEAS
        )

    def test_walk_reaches_origin(self):
        topo = dual_homed_topology()
        path = self._walk(topo, [Announcement(MEAS, 1, tag="re")], 5, {1, 2})
        assert path.outcome is ForwardingOutcome.DELIVERED
        assert path.origin_asn == 1
        assert path.hops == [5, 1]

    def test_walk_follows_member_choice(self):
        topo = dual_homed_topology()
        topo.node(5).policy.set_neighbor_localpref(3, 150)
        topo.node(5).policy.set_neighbor_localpref(1, 100)
        path = self._walk(
            topo,
            [Announcement(MEAS, 1, tag="re"),
             Announcement(MEAS, 2, tag="commodity")],
            5, {1, 2},
        )
        assert path.origin_asn == 2
        assert path.hops == [5, 3, 2]

    def test_intermediate_policy_dominates(self):
        """§3.4: the member may prefer commodity, but once traffic
        reaches a transit, the transit's own choice rules."""
        topo = dual_homed_topology()
        # Give 3 its own link to 1 and make it prefer that (R&E) side.
        topo.add_peering(3, 1)
        topo.node(3).policy.set_neighbor_localpref(1, 300)
        topo.node(5).policy.set_neighbor_localpref(3, 150)  # member: comm
        path = self._walk(
            topo,
            [Announcement(MEAS, 1, tag="re"),
             Announcement(MEAS, 2, tag="commodity")],
            5, {1, 2},
        )
        assert path.hops[0:2] == [5, 3]
        assert path.origin_asn == 1  # transit pulled it back to R&E

    def test_no_route_no_default(self):
        topo = dual_homed_topology()
        path = self._walk(topo, [Announcement(MEAS, 2, tag="c")], 1, {2})
        # 1 never learns the route (2's announcement can't climb to 1).
        assert path.outcome is ForwardingOutcome.NO_ROUTE

    def test_default_route_rescues(self):
        topo = dual_homed_topology()
        topo.node(1).policy.default_route_via = 5
        # 1 has no route but defaults to its customer 5, which routes on.
        result = propagate_fastpath(
            topo, [Announcement(MEAS, 2, tag="c")]
        )
        path = walk_return_path(
            topo, fastpath_rib(result), 1, {2}, MEAS
        )
        assert path.outcome is ForwardingOutcome.DELIVERED
        assert path.used_default

    def test_default_loop_detected(self):
        topo = Topology()
        topo.add_as(1, "a")
        topo.add_as(2, "b")
        topo.add_peering(1, 2)
        topo.node(1).policy.default_route_via = 2
        topo.node(2).policy.default_route_via = 1
        path = walk_return_path(topo, lambda asn: None, 1, {99}, MEAS)
        assert path.outcome is ForwardingOutcome.LOOP


@st.composite
def step_maps(draw):
    """A random per-AS step map over ASes ``0..n-1``, its origin set,
    and every AS to query (three beyond the map) in a random order.

    The first ``chain`` ASes form a straight line (``a -> a + 1``), so
    walks run past the :data:`MAX_AS_HOPS` cut-off; the rest mix
    ``_ROUTE``/``_DEFAULT`` next hops anywhere (cycles, and next hops
    outside the map, which step to ``_NONE``), self-loops, ``_NONE``
    dead ends and ``_LOCAL`` holders."""
    n = draw(st.integers(1, 150))
    chain = draw(st.integers(0, n))
    steps = {}
    for asn in range(n):
        if asn < chain - 1:
            kind = draw(st.sampled_from((_ROUTE, _DEFAULT)))
            steps[asn] = (kind, asn + 1)
            continue
        shape = draw(st.sampled_from(
            ("route", "route", "default", "self", "none", "local")
        ))
        if shape == "none":
            steps[asn] = (_NONE, None)
        elif shape == "local":
            steps[asn] = (_LOCAL, None)
        elif shape == "self":
            steps[asn] = (_ROUTE, asn)
        else:
            kind = _ROUTE if shape == "route" else _DEFAULT
            steps[asn] = (kind, draw(st.integers(0, n + 2)))
    origins = draw(st.sets(st.integers(0, n + 2), max_size=3))
    order = draw(st.permutations(list(range(n + 3))))
    return steps, origins, order


class TestCatchment:
    @settings(max_examples=300, deadline=None)
    @given(step_maps())
    def test_matches_walk_from_every_start(self, case):
        steps, origins, order = case
        calls = []

        def step_of(asn):
            calls.append(asn)
            return steps.get(asn, (_NONE, None))

        catchment = Catchment(step_of, origins)
        for start in order:
            path = _walk(
                lambda asn: steps.get(asn, (_NONE, None)), start, origins
            )
            assert catchment(start) == (
                path.outcome, path.origin_asn, len(path.hops)
            )
        # Path compression: every AS's step runs at most once.
        assert len(calls) == len(set(calls))

    def test_ttl_and_loop_hop_counts(self):
        """The hop count depends on where the walk starts: a terminal
        at distance >= MAX_AS_HOPS becomes LOOP with MAX_AS_HOPS + 1
        hops, and a loop costs tail + cycle + 1 hops."""
        line = {asn: (_ROUTE, asn + 1) for asn in range(MAX_AS_HOPS)}
        catchment = Catchment(lambda asn: line.get(asn, (_NONE, None)),
                              {MAX_AS_HOPS})
        far, near = catchment(0), catchment(1)
        assert far == (ForwardingOutcome.LOOP, None, MAX_AS_HOPS + 1)
        assert near == (ForwardingOutcome.DELIVERED, MAX_AS_HOPS,
                        MAX_AS_HOPS)
        # 0 -> 1 -> 2 -> 3 -> 1: tail 1, cycle 3.
        ring = {0: (_ROUTE, 1), 1: (_ROUTE, 2), 2: (_DEFAULT, 3),
                3: (_ROUTE, 1)}
        catchment = Catchment(ring.__getitem__, ())
        assert catchment(2) == (ForwardingOutcome.LOOP, None, 4)
        assert catchment(0) == (ForwardingOutcome.LOOP, None, 5)


class TestProber:
    def _setup(self):
        topo = dual_homed_topology()
        host = MeasurementHost(MEAS)
        host.attach(1, VLANInterface("v1", "re", "re"))
        host.attach(2, VLANInterface("v2", "commodity", "comm"))
        address = MEAS.address_at(10)  # any address works as a target id
        target_prefix = Prefix.parse("198.51.100.0/24")
        address = target_prefix.address_at(10)
        system = SystemPlan(
            address=address, prefix=target_prefix, attached_asn=5,
            seed_source="isi", loss_probability=0.0,
        )
        target = ProbeTarget(
            address=address, prefix=target_prefix,
            method=ProbeMethod.ICMP_ECHO,
        )
        result = propagate_fastpath(
            topo,
            [Announcement(MEAS, 1, tag="re"),
             Announcement(MEAS, 2, tag="commodity")],
        )
        prober = Prober(topo, host, {address: system})
        return prober, {target_prefix: [target]}, fastpath_rib(result)

    def test_round_records_interface(self):
        prober, targets, rib = self._setup()
        round_result = prober.probe_round(
            "0-0", targets, rib, SeedTree(0), now=100.0
        )
        prefix = next(iter(targets))
        responses = round_result.responses[prefix]
        assert len(responses) == 1
        assert responses[0].responded
        assert responses[0].interface_kind == "re"
        assert responses[0].rtt_ms > 0
        assert round_result.interfaces_seen(prefix) == ["re"]

    def test_pacing_sets_duration(self):
        prober, targets, rib = self._setup()
        round_result = prober.probe_round(
            "0-0", targets, rib, SeedTree(0), now=0.0
        )
        assert round_result.duration == pytest.approx(
            round_result.probe_count() / prober.pps
        )

    def test_lossy_system_can_miss(self):
        prober, targets, rib = self._setup()
        prefix = next(iter(targets))
        address = targets[prefix][0].address
        prober.systems_by_address[address].loss_probability = 1.0
        round_result = prober.probe_round(
            "0-0", targets, rib, SeedTree(0), now=0.0
        )
        assert not round_result.responses[prefix][0].responded
        assert round_result.response_count() == 0

    def test_unknown_address_no_response(self):
        prober, targets, rib = self._setup()
        prefix = next(iter(targets))
        extra = ProbeTarget(
            address=prefix.address_at(99), prefix=prefix,
            method=ProbeMethod.ICMP_ECHO,
        )
        targets[prefix].append(extra)
        round_result = prober.probe_round(
            "0-0", targets, rib, SeedTree(0), now=0.0
        )
        assert round_result.response_count() == 1

    def test_rejects_bad_pps(self):
        topo = dual_homed_topology()
        host = MeasurementHost(MEAS)
        with pytest.raises(ExperimentError):
            Prober(topo, host, {}, pps=0)
