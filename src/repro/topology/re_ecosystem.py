"""Synthetic R&E ecosystem generator.

Builds the AS topology, policies, prefixes, probing plans, collector
feeders, and outage schedule that the SURF and Internet2 experiments
run against.  Every stochastic draw flows from the caller's seed; the
mixture weights live in :class:`~repro.topology.re_config.REEcosystemConfig`
and are calibrated so the paper's published distributions emerge from
policy draws rather than being copied into results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TopologyError
from ..geo import GeoDatabase
from ..geo.regions import (
    EUROPE_PROFILES,
    NON_EUROPE_PROFILES,
    US_STATE_PROFILES,
)
from ..netutil import Prefix
from ..obs.spans import span
from ..rng import SeedTree, sample_heavy_tailed_count, weighted_choice
from . import asns
from .alloc import PrefixAllocator
from .graph import ASClass, MemberSide, Topology
from .re_config import (
    EgressClass,
    FeederPlan,
    MemberTruth,
    OutageEvent,
    PrefixKind,
    PrefixPlan,
    PrependClass,
    REEcosystemConfig,
    SystemPlan,
)

MEASUREMENT_PREFIX = Prefix.parse("163.253.63.0/24")

#: Localpref values used by member policies.
LP_RE_HIGH = 150
LP_BASE = 100

_BACKBONES = (
    (asns.AS_INTERNET2, "Internet2"),
    (asns.AS_GEANT, "GEANT"),
    (asns.AS_NORDUNET, "NORDUnet"),
    (asns.AS_CANARIE, "CANARIE"),
    (asns.AS_AARNET, "AARNet"),
    (asns.AS_ESNET, "ESnet"),
)

#: Which backbone each country's NREN attaches to.
_HOME_BACKBONE = {
    "AU": asns.AS_AARNET,
    "NZ": asns.AS_AARNET,
    "JP": asns.AS_AARNET,
    "KR": asns.AS_AARNET,
    "TH": asns.AS_AARNET,
    "CA": asns.AS_CANARIE,
    "BR": asns.AS_INTERNET2,
}

_TIER1_NAMES = ("Lumen", "Cogent", "Arelion", "DTAG", "GTT", "Zayo",
                "Liberty", "PCCW", "Telxius", "Orange")
_TIER1_ASNS = (asns.AS_LUMEN, asns.AS_COGENT, asns.AS_ARELION, asns.AS_DT)


@dataclass
class Ecosystem:
    """Everything the experiments and analyses need, with ground truth."""

    config: REEcosystemConfig
    topology: Topology
    measurement_prefix: Prefix
    commodity_origin: int
    surf_origin: int
    internet2_origin: int
    surf_asn: int
    geant_asn: int
    lumen_asn: int
    nordunet_asn: int
    ripe_asn: int
    niks_asn: int
    asym_transits: List[int] = field(default_factory=list)
    members: Dict[int, MemberTruth] = field(default_factory=dict)
    prefix_plans: Dict[Prefix, PrefixPlan] = field(default_factory=dict)
    feeders: FeederPlan = field(default_factory=FeederPlan)
    outages: List[OutageEvent] = field(default_factory=list)
    geo: Optional[GeoDatabase] = None

    def re_origin_for(self, experiment: str) -> int:
        """The R&E announcement origin for an experiment name."""
        if experiment == "surf":
            return self.surf_origin
        if experiment == "internet2":
            return self.internet2_origin
        raise TopologyError("unknown experiment %r" % (experiment,))

    def studied_prefixes(self) -> List[PrefixPlan]:
        """The probing target set: member prefixes after covered-prefix
        exclusion (the paper's 17,989)."""
        return [
            plan
            for plan in self.prefix_plans.values()
            if plan.kind is not PrefixKind.COVERED
        ]

    def covered_prefixes(self) -> List[PrefixPlan]:
        return [
            plan
            for plan in self.prefix_plans.values()
            if plan.kind is PrefixKind.COVERED
        ]

    def seeded_prefixes(self) -> List[PrefixPlan]:
        """Prefixes with at least one planned responsive system."""
        return [
            plan for plan in self.studied_prefixes() if plan.alive_systems
        ]


@span("topology.build")
def build_ecosystem(
    config: Optional[REEcosystemConfig] = None, seed: int = 0
) -> Ecosystem:
    """Build the full synthetic ecosystem."""
    return _Builder(config or REEcosystemConfig(), seed).build()


class _Builder:
    def __init__(self, config: REEcosystemConfig, seed: int) -> None:
        self.config = config
        self.tree = SeedTree(seed).child("ecosystem")
        self.topo = Topology()
        self.alloc = PrefixAllocator()
        self.tier1s: List[int] = []
        self.shallow_transits: List[int] = []
        self.deep_transits: List[int] = []
        self.deep2_transits: List[int] = []
        self.nren_by_country: Dict[str, int] = {}
        self.regional_by_state: Dict[str, int] = {}
        self.members: Dict[int, MemberTruth] = {}
        self.prefix_plans: Dict[Prefix, PrefixPlan] = {}
        self.asym_transits: List[int] = []
        self._member_asn = itertools.count(asns.MEMBER_BASE)

    # ------------------------------------------------------------------

    def build(self) -> Ecosystem:
        self._build_commodity_core()
        self._build_re_core()
        self._build_nrens_and_regionals()
        self._build_members()
        self._build_asym_transits()
        self._build_measurement_and_ripe()
        self._plan_systems()
        ecosystem = Ecosystem(
            config=self.config,
            topology=self.topo,
            measurement_prefix=MEASUREMENT_PREFIX,
            commodity_origin=asns.AS_INTERNET2_BLEND,
            surf_origin=asns.AS_SURF_ORIGIN,
            internet2_origin=asns.AS_INTERNET2,
            surf_asn=asns.AS_SURF,
            geant_asn=asns.AS_GEANT,
            lumen_asn=asns.AS_LUMEN,
            nordunet_asn=asns.AS_NORDUNET,
            ripe_asn=asns.AS_RIPE,
            niks_asn=asns.AS_NIKS,
            asym_transits=list(self.asym_transits),
            members=self.members,
            prefix_plans=self.prefix_plans,
        )
        ecosystem.feeders = self._select_feeders(ecosystem)
        ecosystem.outages = self._plan_outages(ecosystem)
        ecosystem.geo = GeoDatabase.from_topology(self.topo)
        self.topo.validate()
        return ecosystem

    # ----- commodity core ------------------------------------------------

    def _build_commodity_core(self) -> None:
        rng = self.tree.child("commodity-core").rng()
        for index in range(self.config.n_tier1):
            if index < len(_TIER1_ASNS):
                asn = _TIER1_ASNS[index]
            else:
                asn = asns.TIER1_BASE + index
            name = _TIER1_NAMES[index % len(_TIER1_NAMES)]
            self.topo.add_as(asn, name, ASClass.TIER1)
            self.tier1s.append(asn)
        for a, b in itertools.combinations(self.tier1s, 2):
            self.topo.add_peering(a, b)

        n_transit = self.config.n_transits()
        n_deep = round(n_transit * self.config.deep_transit_share)
        n_deep2 = round(n_transit * self.config.deep2_transit_share)
        n_shallow = max(2, n_transit - n_deep - n_deep2)
        for index in range(n_transit):
            asn = asns.TRANSIT_BASE + index
            self.topo.add_as(asn, "transit-%d" % index, ASClass.TRANSIT)
            if index < n_shallow:
                # Shallow transit: customer of one or two tier-1s.
                self.shallow_transits.append(asn)
                for tier1 in rng.sample(self.tier1s, rng.choice((1, 2))):
                    self.topo.add_provider(asn, tier1)
            elif index < n_shallow + n_deep:
                # Deep transit: customer of shallow transits (longer
                # commodity chains, used to diversify AS path lengths).
                self.deep_transits.append(asn)
                uplinks = rng.sample(
                    self.shallow_transits,
                    min(rng.choice((1, 2)), len(self.shallow_transits)),
                )
                for uplink in uplinks:
                    self.topo.add_provider(asn, uplink)
            else:
                # Second-level deep transit: the long international
                # commodity chains behind §B's Peer-NREN observations.
                self.deep2_transits.append(asn)
                uplinks = rng.sample(
                    self.deep_transits or self.shallow_transits,
                    1,
                )
                for uplink in uplinks:
                    self.topo.add_provider(asn, uplink)
        # A little shallow-transit peering mesh for path diversity.
        for a, b in itertools.combinations(self.shallow_transits, 2):
            if rng.random() < 0.08 and not self.topo.has_link(a, b):
                self.topo.add_peering(a, b)

    # ----- R&E core ----------------------------------------------------------

    def _build_re_core(self) -> None:
        for asn, name in _BACKBONES:
            self.topo.add_as(asn, name, ASClass.RE_BACKBONE,
                             country="US" if name in ("Internet2", "ESnet")
                             else None)
        for (a, _), (b, __) in itertools.combinations(_BACKBONES, 2):
            self.topo.add_peering(a, b, fabric=True)

    # ----- NRENs and U.S. regionals --------------------------------------------

    def _build_nrens_and_regionals(self) -> None:
        rng = self.tree.child("re-edges").rng()
        nren_index = 0
        for profile in EUROPE_PROFILES + NON_EUROPE_PROFILES:
            if profile.code == "NL":
                asn = asns.AS_SURF
                name = "SURF"
            else:
                asn = asns.NREN_BASE + nren_index
                name = "NREN-%s" % profile.code
            nren_index += 1
            node = self.topo.add_as(asn, name, ASClass.NREN,
                                    country=profile.code)
            backbone = _HOME_BACKBONE.get(profile.code, asns.AS_GEANT)
            self.topo.add_provider(asn, backbone)
            node.policy.set_neighbor_localpref(backbone, LP_RE_HIGH)
            if profile.nren_shares_ripe_provider:
                commodity = asns.AS_DT
            else:
                commodity = rng.choice(self.tier1s)
            self.topo.add_provider(asn, commodity)
            node.policy.set_neighbor_localpref(commodity, LP_BASE)
            if profile.nren_prepends_commodity:
                node.policy.set_export_prepends(commodity, 2)
            if not (profile.nren_offers_commodity
                    or profile.nren_shares_ripe_provider):
                # An NREN that does not sell commodity transit keeps its
                # commodity uplink for its own egress but does not
                # announce member prefixes to it (the DFN-via-DT case is
                # the exception §4.3 highlights).
                node.policy.no_export_to.add(commodity)
            if asn == asns.AS_SURF:
                # §3.1: the R&E measurement announcement must never reach
                # commodity providers; SURF filters it toward its
                # commodity transit (it reaches SURF from customer 1125,
                # so Gao-Rexford alone would leak it).
                node.policy.no_export_tags[commodity] = {"re"}
            self.nren_by_country[profile.code] = asn

        for index, profile in enumerate(US_STATE_PROFILES):
            if profile.code == "NY":
                asn = asns.AS_NYSERNET
            elif profile.code == "CA":
                asn = asns.AS_CENIC
            else:
                asn = asns.REGIONAL_BASE + index
            node = self.topo.add_as(asn, profile.regional_name,
                                    ASClass.RE_REGIONAL, country="US",
                                    us_state=profile.code)
            self.topo.add_provider(asn, asns.AS_INTERNET2)
            node.policy.set_neighbor_localpref(asns.AS_INTERNET2, LP_RE_HIGH)
            if profile.regional_offers_commodity:
                commodity = rng.choice(self.tier1s)
                self.topo.add_provider(asn, commodity)
                node.policy.set_neighbor_localpref(commodity, LP_BASE)
                if profile.regional_prepends_commodity:
                    node.policy.set_export_prepends(commodity, 2)
            self.regional_by_state[profile.code] = asn

    # ----- members -----------------------------------------------------------

    def _region_allocation(self) -> List[Tuple[str, object]]:
        """Per-member region assignments: ('state', profile) or
        ('country', profile) entries, one per member to create."""
        total = self.config.n_members()
        n_us = round(total * self.config.us_member_share)
        out: List[Tuple[str, object]] = []

        def spread(profiles: Sequence, count: int, kind: str) -> None:
            weights = [p.member_weight for p in profiles]
            weight_sum = sum(weights)
            remainders = []
            allocated = 0
            for profile, weight in zip(profiles, weights):
                exact = count * weight / weight_sum
                take = int(exact)
                remainders.append((exact - take, profile))
                allocated += take
                out.extend((kind, profile) for _ in range(take))
            remainders.sort(key=lambda item: -item[0])
            for _, profile in remainders[: count - allocated]:
                out.append((kind, profile))

        spread(US_STATE_PROFILES, n_us, "state")
        spread(EUROPE_PROFILES + NON_EUROPE_PROFILES, total - n_us, "country")
        return out

    def _build_members(self) -> None:
        rng = self.tree.child("members").rng()
        config = self.config
        for kind, profile in self._region_allocation():
            asn = next(self._member_asn)
            if kind == "state":
                side = MemberSide.PARTICIPANT
                re_provider = self.regional_by_state[profile.code]
                country, us_state = "US", profile.code
                offers_commodity = profile.regional_offers_commodity
            else:
                side = MemberSide.PEER_NREN
                re_provider = self.nren_by_country[profile.code]
                country, us_state = profile.code, None
                offers_commodity = profile.nren_offers_commodity
            node = self.topo.add_as(asn, "member-%d" % asn, ASClass.MEMBER,
                                    country=country, us_state=us_state)
            self.topo.add_provider(asn, re_provider)

            truth = self._draw_member_policy(
                rng, asn, side, profile, offers_commodity
            )
            truth.re_neighbors = [re_provider]
            self.members[asn] = truth

            commodity = self._attach_commodity(rng, truth, side)
            self._apply_member_policy(node, truth, re_provider, commodity)
            self._originate_member_prefixes(rng, truth)

    def _draw_member_policy(
        self, rng, asn: int, side: MemberSide, profile, offers_commodity: bool
    ) -> MemberTruth:
        """Draw visibility, prepend class and egress class for a member."""
        config = self.config
        if offers_commodity:
            p_no_commodity = 1.0 - profile.member_extra_commodity
        elif getattr(profile, "nren_shares_ripe_provider", False):
            p_no_commodity = 0.28
        else:
            p_no_commodity = config.no_commodity_rate

        egress_names = (
            EgressClass.RE_PREFER,
            EgressClass.COMMODITY_PREFER,
            EgressClass.EQUAL,
        )
        if rng.random() < p_no_commodity:
            egress = weighted_choice(
                rng, egress_names, config.egress_no_commodity
            )
            hidden = (
                egress is not EgressClass.RE_PREFER
                or rng.random() < config.hidden_commodity_extra
            )
            truth = MemberTruth(
                asn=asn,
                egress_class=egress,
                prepend_class=PrependClass.NO_COMMODITY,
                side=side,
                visible_commodity=False,
                hidden_commodity=hidden,
            )
        else:
            bias = profile.member_prepend_bias
            if rng.random() < bias:
                prepend = PrependClass.MORE_COMMODITY
            else:
                prepend = weighted_choice(
                    rng,
                    (PrependClass.EQUAL, PrependClass.MORE_RE),
                    (0.88, 0.12),
                )
            conditional = {
                PrependClass.EQUAL: config.egress_given_equal,
                PrependClass.MORE_COMMODITY:
                    config.egress_given_more_commodity,
                PrependClass.MORE_RE: config.egress_given_more_re,
            }[prepend]
            egress = weighted_choice(rng, egress_names, conditional)
            truth = MemberTruth(
                asn=asn,
                egress_class=egress,
                prepend_class=prepend,
                side=side,
                visible_commodity=True,
            )
        if (
            side is MemberSide.PEER_NREN
            and truth.has_commodity_egress is False
            and truth.egress_class is EgressClass.EQUAL
        ):
            pass  # equal-localpref without commodity never observes a tie
        if (
            side is MemberSide.PEER_NREN
            and rng.random() < config.age_tiebreak_rate
        ):
            truth.egress_class = EgressClass.EQUAL
            truth.age_tiebreak_only = True
            if not truth.has_commodity_egress:
                truth.hidden_commodity = True
        truth.country = (
            "US" if side is MemberSide.PARTICIPANT else profile.code
        )
        truth.us_state = (
            profile.code if side is MemberSide.PARTICIPANT else None
        )
        return truth

    def _attach_commodity(
        self, rng, truth: MemberTruth, side: MemberSide
    ) -> Optional[int]:
        """Pick and wire the member's commodity provider, if any."""
        if not (truth.visible_commodity or truth.hidden_commodity):
            return None
        config = self.config
        deep_bias = (
            config.intl_deep_commodity_bias
            if side is MemberSide.PEER_NREN
            else 0.15
        )
        roll = rng.random()
        if roll < 0.12 and side is MemberSide.PARTICIPANT:
            provider = rng.choice(self.tier1s)
        elif rng.random() < deep_bias:
            if (
                side is MemberSide.PEER_NREN
                and self.deep2_transits
                and rng.random() < 0.55
            ):
                provider = rng.choice(self.deep2_transits)
            elif self.deep_transits:
                provider = rng.choice(self.deep_transits)
            else:
                provider = rng.choice(self.shallow_transits or self.tier1s)
        else:
            provider = rng.choice(self.shallow_transits or self.tier1s)
        self.topo.add_provider(truth.asn, provider)
        truth.commodity_neighbors = [provider]
        return provider

    def _apply_member_policy(
        self, node, truth: MemberTruth, re_provider: int,
        commodity: Optional[int],
    ) -> None:
        """Translate the drawn classes into a concrete RoutingPolicy."""
        rng = self.tree.child("member-policy-%d" % truth.asn).rng()
        policy = node.policy
        if truth.egress_class is EgressClass.RE_PREFER:
            policy.set_neighbor_localpref(re_provider, LP_RE_HIGH)
            if commodity is not None:
                policy.set_neighbor_localpref(commodity, LP_BASE)
        elif truth.egress_class is EgressClass.COMMODITY_PREFER:
            policy.set_neighbor_localpref(re_provider, LP_BASE)
            if commodity is not None:
                policy.set_neighbor_localpref(commodity, LP_RE_HIGH)
        else:  # EQUAL
            policy.set_neighbor_localpref(re_provider, LP_BASE)
            if commodity is not None:
                policy.set_neighbor_localpref(commodity, LP_BASE)
        if truth.age_tiebreak_only:
            policy.path_length_sensitive = False
        if truth.hidden_commodity and commodity is not None:
            policy.no_export_to.add(commodity)
        if commodity is not None and truth.visible_commodity:
            if truth.prepend_class is PrependClass.MORE_COMMODITY:
                count = weighted_choice(
                    rng,
                    self.config.prepend_more_commodity_counts,
                    self.config.prepend_more_commodity_weights,
                )
                policy.set_export_prepends(commodity, count)
            elif truth.prepend_class is PrependClass.MORE_RE:
                count = weighted_choice(
                    rng,
                    self.config.prepend_more_re_counts,
                    self.config.prepend_more_re_weights,
                )
                policy.set_export_prepends(re_provider, count)

    def _originate_member_prefixes(self, rng, truth: MemberTruth) -> None:
        config = self.config
        count = sample_heavy_tailed_count(
            rng, config.mean_prefixes_per_member,
            config.max_prefixes_per_member,
        )
        for _ in range(count):
            length = weighted_choice(
                rng, (24, 22, 21, 20, 16), (0.60, 0.12, 0.09, 0.09, 0.10)
            )
            prefix = self.alloc.allocate(length)
            self.topo.originate(truth.asn, prefix, side=truth.side)
            self.prefix_plans[prefix] = PrefixPlan(
                prefix=prefix, origin_asn=truth.asn, side=truth.side
            )
            if rng.random() < config.covered_prefix_rate:
                covered = self.alloc.carve_covered(prefix)
                self.topo.originate(truth.asn, covered, side=truth.side,
                                    tags=("covered",))
                self.prefix_plans[covered] = PrefixPlan(
                    prefix=covered, origin_asn=truth.asn, side=truth.side,
                    kind=PrefixKind.COVERED, covered_by=prefix,
                )

    # ----- asymmetric R&E transits (NIKS and friends) ------------------------

    def _build_asym_transits(self) -> None:
        rng = self.tree.child("asym").rng()
        config = self.config
        # NIKS is the canonical [always-RE in SURF, switch in Internet2]
        # instance with the largest cone.
        cells = [
            ("geant-peer", 102, "nordunet-provider", 50,
             config.niks_members_full, config.niks_prefixes_full,
             asns.AS_NIKS, "NIKS"),
        ]
        for index, cell in enumerate(config.asym_cells_full):
            cells.append(
                cell + (asns.ASYM_TRANSIT_BASE + index,
                        "asym-transit-%d" % index)
            )
        for (surf_kind, surf_lp, i2_kind, i2_lp, members_full,
             prefixes_full, asn, name) in cells:
            node = self.topo.add_as(asn, name, ASClass.NREN, country="RU"
                                    if name == "NIKS" else None)
            self._wire_asym_side(node, surf_kind, surf_lp)
            self._wire_asym_side(node, i2_kind, i2_lp)
            self.topo.add_provider(asn, asns.AS_ARELION)
            node.policy.set_neighbor_localpref(asns.AS_ARELION, 50)
            self.asym_transits.append(asn)
            n_members = config.scaled(members_full)
            n_prefixes = max(n_members, config.scaled(prefixes_full))
            self._build_asym_cone(rng, asn, node.country, n_members,
                                  n_prefixes)

    def _wire_asym_side(self, node, kind: str, localpref: int) -> None:
        topo = self.topo
        if kind == "geant-peer":
            topo.add_peering(node.asn, asns.AS_GEANT)
            node.policy.set_neighbor_localpref(asns.AS_GEANT, localpref)
        elif kind == "geant-provider":
            topo.add_provider(node.asn, asns.AS_GEANT)
            node.policy.set_neighbor_localpref(asns.AS_GEANT, localpref)
        elif kind == "i2-peer":
            topo.add_peering(node.asn, asns.AS_INTERNET2)
            node.policy.set_neighbor_localpref(asns.AS_INTERNET2, localpref)
        elif kind == "nordunet-provider":
            topo.add_provider(node.asn, asns.AS_NORDUNET)
            node.policy.set_neighbor_localpref(asns.AS_NORDUNET, localpref)
        else:
            raise TopologyError("unknown asym side kind %r" % (kind,))

    def _build_asym_cone(
        self, rng, transit_asn: int, country: Optional[str],
        n_members: int, n_prefixes: int,
    ) -> None:
        """Members single-homed behind an asymmetric transit; their
        return routing is entirely the transit's choice."""
        remaining = n_prefixes
        for index in range(n_members):
            asn = next(self._member_asn)
            self.topo.add_as(asn, "cone-%d-%d" % (transit_asn, index),
                             ASClass.MEMBER, country=country or "RU")
            self.topo.add_provider(asn, transit_asn)
            share = max(1, round(remaining / (n_members - index)))
            truth = MemberTruth(
                asn=asn,
                egress_class=EgressClass.RE_PREFER,
                prepend_class=PrependClass.NO_COMMODITY,
                side=MemberSide.PEER_NREN,
                country=country or "RU",
                visible_commodity=False,
                behind_transit=transit_asn,
                re_neighbors=[transit_asn],
            )
            self.members[asn] = truth
            for _ in range(share):
                prefix = self.alloc.allocate(24)
                self.topo.originate(asn, prefix, side=MemberSide.PEER_NREN)
                self.prefix_plans[prefix] = PrefixPlan(
                    prefix=prefix, origin_asn=asn,
                    side=MemberSide.PEER_NREN,
                )
            remaining -= share

    # ----- measurement hosts, RIPE ------------------------------------------

    def _build_measurement_and_ripe(self) -> None:
        topo = self.topo
        topo.add_as(asns.AS_INTERNET2_BLEND, "Meas-commodity",
                    ASClass.MEASUREMENT, country="US")
        topo.add_provider(asns.AS_INTERNET2_BLEND, asns.AS_LUMEN)
        topo.add_as(asns.AS_SURF_ORIGIN, "Meas-RE-SURF",
                    ASClass.MEASUREMENT, country="NL")
        topo.add_provider(asns.AS_SURF_ORIGIN, asns.AS_SURF)
        # The Internet2 experiment originates from AS 11537 itself.

        ripe = topo.add_as(asns.AS_RIPE, "RIPE", ASClass.MEMBER,
                           country="NL")
        topo.add_provider(asns.AS_RIPE, asns.AS_SURF)
        topo.add_provider(asns.AS_RIPE, asns.AS_DT)
        topo.add_provider(asns.AS_RIPE, asns.AS_ARELION)
        for neighbor in (asns.AS_SURF, asns.AS_DT, asns.AS_ARELION):
            ripe.policy.set_neighbor_localpref(neighbor, LP_BASE)
        self.members[asns.AS_RIPE] = MemberTruth(
            asn=asns.AS_RIPE,
            egress_class=EgressClass.EQUAL,
            prepend_class=PrependClass.EQUAL,
            side=MemberSide.PEER_NREN,
            country="NL",
            visible_commodity=True,
            re_neighbors=[asns.AS_SURF],
            commodity_neighbors=[asns.AS_DT, asns.AS_ARELION],
        )

    # ----- probing plans -------------------------------------------------------

    def _plan_systems(self) -> None:
        rng = self.tree.child("systems").rng()
        config = self.config
        for plan in self.prefix_plans.values():
            if plan.kind is PrefixKind.COVERED:
                continue
            plan.isi_covered = rng.random() < config.isi_coverage
            plan.censys_covered = rng.random() < config.censys_coverage
            if not (plan.isi_covered or plan.censys_covered):
                continue
            if rng.random() >= config.alive_given_covered:
                continue  # covered but no longer responsive
            if rng.random() < config.three_systems_rate:
                n_alive = 3
            else:
                n_alive = rng.choice((1, 2))
            kind = PrefixKind.NORMAL
            roll = rng.random()
            if roll < config.mixed_prefix_rate and n_alive == 3:
                kind = PrefixKind.MIXED
            elif roll < (config.mixed_prefix_rate
                         + config.interconnect_prefix_rate):
                kind = PrefixKind.INTERCONNECT
            plan.kind = kind
            self._attach_systems(rng, plan, n_alive)

    def _offnet_asn(self, rng, origin_asn: int) -> int:
        """An AS that an interconnect-router address actually belongs to
        (§4.1.2): the origin's commodity provider when it has one,
        otherwise a random transit."""
        truth = self.members.get(origin_asn)
        if truth is not None and truth.commodity_neighbors:
            return truth.commodity_neighbors[0]
        pool = self.shallow_transits or self.tier1s
        return rng.choice(pool)

    def _attach_systems(self, rng, plan: PrefixPlan, n_alive: int) -> None:
        config = self.config
        if plan.isi_covered and plan.censys_covered:
            source_mode = weighted_choice(
                rng, ("isi", "censys", "mixed"), (0.60, 0.25, 0.15)
            )
        elif plan.isi_covered:
            source_mode = "isi"
        else:
            source_mode = "censys"
        offsets = rng.sample(
            range(1, min(plan.prefix.num_addresses - 1, 240)),
            min(n_alive, plan.prefix.num_addresses - 2),
        )
        offnet = None
        if plan.kind in (PrefixKind.MIXED, PrefixKind.INTERCONNECT):
            offnet = self._offnet_asn(rng, plan.origin_asn)
        for index, offset in enumerate(offsets):
            if source_mode == "mixed":
                source = "isi" if index % 2 == 0 else "censys"
            else:
                source = source_mode
            attached = plan.origin_asn
            if plan.kind is PrefixKind.INTERCONNECT:
                attached = offnet
            elif plan.kind is PrefixKind.MIXED and index == len(offsets) - 1:
                attached = offnet
            loss = config.base_loss_probability
            if rng.random() < config.flaky_system_rate:
                loss = config.flaky_loss_probability
            plan.systems.append(
                SystemPlan(
                    address=plan.prefix.address_at(offset),
                    prefix=plan.prefix,
                    attached_asn=attached,
                    seed_source=source,
                    alive=True,
                    loss_probability=loss,
                )
            )

    # ----- collectors ------------------------------------------------------------

    def _select_feeders(self, ecosystem: Ecosystem) -> FeederPlan:
        rng = self.tree.child("feeders").rng()
        config = self.config
        plan = FeederPlan()
        candidates = (
            self.shallow_transits + self.deep_transits
            + self.deep2_transits + self.tier1s
        )
        n_commodity = min(config.n_commodity_feeders(), len(candidates))
        low, high = config.commodity_feeder_sessions
        for asn in rng.sample(candidates, n_commodity):
            plan.commodity_sessions[asn] = rng.randint(low, high)
        re_candidates = [asns.AS_GEANT, asns.AS_NORDUNET, asns.AS_CANARIE,
                         asns.AS_AARNET, asns.AS_SURF]
        low, high = config.re_feeder_sessions
        for asn in re_candidates[: config.n_re_feeders]:
            plan.re_sessions[asn] = rng.randint(low, high)

        # Member feeders for Table 3: responsive members with the
        # diversity the validation needs.
        responsive_members = sorted(
            {
                p.origin_asn
                for p in self.prefix_plans.values()
                if p.alive_systems and p.origin_asn in self.members
            }
        )
        vrf_candidates = [
            asn
            for asn in responsive_members
            if self.members[asn].egress_class is EgressClass.RE_PREFER
            and self.members[asn].visible_commodity
        ]
        n_member = min(config.n_member_feeders, len(responsive_members))
        chosen = rng.sample(responsive_members, n_member)
        vrf_pool = [asn for asn in vrf_candidates if asn in chosen]
        missing = config.n_vrf_split_feeders - len(vrf_pool)
        if missing > 0:
            extras = [a for a in vrf_candidates if a not in chosen][:missing]
            chosen = chosen[: n_member - len(extras)] + extras
            vrf_pool += extras
        plan.member_feeders = sorted(chosen)
        plan.vrf_split_feeders = sorted(
            vrf_pool[: config.n_vrf_split_feeders]
        )
        for asn in plan.vrf_split_feeders:
            self.topo.node(asn).tags.add("vrf-split")

        plan.tie_feeder = self._make_tie_feeder(rng, plan)
        return plan

    def _make_tie_feeder(self, rng, plan: FeederPlan) -> Optional[int]:
        """Engineer the Table 3 AS with no most-frequent inference: a
        member feeder with exactly two responsive prefixes in different
        categories (one normal, one on an interconnect router)."""
        for asn in plan.member_feeders:
            truth = self.members.get(asn)
            if truth is None or truth.egress_class is not EgressClass.RE_PREFER:
                continue
            responsive = [
                p for p in self.prefix_plans.values()
                if p.origin_asn == asn and p.alive_systems
            ]
            if len(responsive) != 2:
                continue
            normal = [p for p in responsive if p.kind is PrefixKind.NORMAL]
            if not normal:
                continue
            target = normal[-1]
            target.kind = PrefixKind.INTERCONNECT
            offnet = self._offnet_asn(rng, asn)
            for system in target.systems:
                system.attached_asn = offnet
            return asn
        return None

    # ----- outages ------------------------------------------------------------------

    def _plan_outages(self, ecosystem: Ecosystem) -> List[OutageEvent]:
        rng = self.tree.child("outages").rng()
        config = self.config
        feeder_set = set(ecosystem.feeders.member_feeders)
        responsive_counts: Dict[int, int] = {}
        for plan in self.prefix_plans.values():
            if plan.alive_systems and plan.kind is PrefixKind.NORMAL:
                responsive_counts[plan.origin_asn] = (
                    responsive_counts.get(plan.origin_asn, 0) + 1
                )
        victims = [
            truth
            for truth in self.members.values()
            if truth.egress_class is EgressClass.RE_PREFER
            and truth.visible_commodity
            and truth.asn not in feeder_set
            and truth.behind_transit is None
            and responsive_counts.get(truth.asn, 0) >= 1
        ]
        # The paper's unexpected switches and oscillations touched 1-3
        # prefixes each; prefer single-prefix victims so one outage does
        # not flip a large cone.
        victims.sort(
            key=lambda t: (responsive_counts[t.asn], rng.random()),
            reverse=True,
        )
        events: List[OutageEvent] = []

        def take(count: int, experiment: str, oscillate: bool) -> None:
            for _ in range(count):
                if not victims:
                    return
                truth = victims.pop()
                re_link = truth.re_neighbors[0]
                if oscillate:
                    events.append(
                        OutageEvent(
                            experiment=experiment,
                            down_after_round=2,
                            up_after_round=4,
                            a=truth.asn,
                            b=re_link,
                            victim_asn=truth.asn,
                        )
                    )
                else:
                    events.append(
                        OutageEvent(
                            experiment=experiment,
                            down_after_round=5,
                            up_after_round=None,
                            a=truth.asn,
                            b=re_link,
                            victim_asn=truth.asn,
                        )
                    )

        take(config.surf_switch_to_commodity, "surf", False)
        take(config.surf_oscillating, "surf", True)
        take(config.internet2_switch_to_commodity, "internet2", False)
        take(config.internet2_oscillating, "internet2", True)
        return events
