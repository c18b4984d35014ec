"""§4.3 / Figure 5: equal-localpref route selection at the RIPE analogue.

RIPE assigns commodity and R&E routes the same localpref (validated
with them), so the routes it selects toward R&E prefixes reveal which
regions' announcements win BGP tie-breaks.  The analysis computes, per
country and per U.S. state, the percentage of R&E-connected ASes with
at least one prefix reached over an R&E path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..collectors.rib import CollectorRIB, build_collector_rib, neighbor_is_re
from ..obs.spans import span


@dataclass
class RegionStat:
    """Per-region R&E reachability."""

    region: str
    total_ases: int = 0
    re_ases: int = 0

    @property
    def share(self) -> float:
        return self.re_ases / self.total_ases if self.total_ases else 0.0


@dataclass
class Figure5:
    """The Figure 5 reproduction as per-region tables."""

    observer_asn: int
    total_prefixes: int = 0
    re_prefixes: int = 0
    total_ases: int = 0
    re_ases: int = 0
    countries: Dict[str, RegionStat] = field(default_factory=dict)
    us_states: Dict[str, RegionStat] = field(default_factory=dict)
    min_region_ases: int = 4

    @property
    def re_prefix_share(self) -> float:
        return self.re_prefixes / self.total_prefixes if self.total_prefixes else 0.0

    @property
    def re_as_share(self) -> float:
        return self.re_ases / self.total_ases if self.total_ases else 0.0

    def eligible_countries(self) -> List[RegionStat]:
        """Regions with at least ``min_region_ases`` geolocated ASes,
        as in the paper's maps."""
        return sorted(
            (
                stat
                for stat in self.countries.values()
                if stat.total_ases >= self.min_region_ases
            ),
            key=lambda s: -s.share,
        )

    def eligible_states(self) -> List[RegionStat]:
        return sorted(
            (
                stat
                for stat in self.us_states.values()
                if stat.total_ases >= self.min_region_ases
            ),
            key=lambda s: -s.share,
        )

    def render(self) -> str:
        lines = [
            "Figure 5: share of ASes reached over R&E by the "
            "equal-localpref observer (AS %d)" % self.observer_asn,
            "  overall: %d/%d prefixes (%.1f%%), %d/%d ASes (%.1f%%)"
            % (
                self.re_prefixes, self.total_prefixes,
                100.0 * self.re_prefix_share,
                self.re_ases, self.total_ases,
                100.0 * self.re_as_share,
            ),
            "  countries (>= %d ASes):" % self.min_region_ases,
        ]
        for stat in self.eligible_countries():
            lines.append(
                "    %-3s %5.1f%%  (%d/%d ASes)"
                % (stat.region, 100.0 * stat.share, stat.re_ases,
                   stat.total_ases)
            )
        lines.append("  U.S. states (>= %d ASes):" % self.min_region_ases)
        for stat in self.eligible_states():
            lines.append(
                "    %-3s %5.1f%%  (%d/%d ASes)"
                % (stat.region, 100.0 * stat.share, stat.re_ases,
                   stat.total_ases)
            )
        return "\n".join(lines)


@span("core.figure5")
def build_figure5(
    ecosystem,
    rib: Optional[CollectorRIB] = None,
    observer_asn: Optional[int] = None,
) -> Figure5:
    """Compute per-region R&E reach for the equal-localpref observer."""
    observer = observer_asn if observer_asn is not None else ecosystem.ripe_asn
    if rib is None:
        rib = build_collector_rib(ecosystem, [observer])
    topology = ecosystem.topology
    geo = ecosystem.geo
    figure = Figure5(observer_asn=observer)

    as_re: Dict[int, bool] = {}
    as_region: Dict[int, Tuple[Optional[str], Optional[str]]] = {}

    for plan in ecosystem.studied_prefixes():
        entry = rib.route(observer, plan.prefix)
        if entry is None:
            continue
        figure.total_prefixes += 1
        via_re = neighbor_is_re(topology, entry.first_hop)
        if via_re:
            figure.re_prefixes += 1
        origin = plan.origin_asn
        as_re[origin] = as_re.get(origin, False) or via_re
        if origin not in as_region:
            record = geo.locate_prefix(plan.prefix) if geo else None
            if record is not None:
                as_region[origin] = (record.country, record.us_state)
            else:
                node = topology.node(origin)
                as_region[origin] = (node.country, node.us_state)

    figure.total_ases = len(as_re)
    figure.re_ases = sum(1 for reached in as_re.values() if reached)
    for asn, reached in as_re.items():
        country, us_state = as_region.get(asn, (None, None))
        if country:
            stat = figure.countries.setdefault(
                country, RegionStat(region=country)
            )
            stat.total_ases += 1
            if reached:
                stat.re_ases += 1
        if us_state:
            stat = figure.us_states.setdefault(
                us_state, RegionStat(region=us_state)
            )
            stat.total_ases += 1
            if reached:
                stat.re_ases += 1
    return figure
