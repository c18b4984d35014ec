"""Probe-seed selection pipeline (§3.2).

The pipeline mirrors the paper:

1. start from the studied prefix set and drop prefixes entirely covered
   by other prefixes (the paper's 437);
2. for each remaining prefix, probe up to ten score-ranked addresses
   from the ISI history analogue and up to ten randomly selected
   address/port tuples from the Censys analogue;
3. keep up to three currently-responsive targets per prefix, so that a
   single address assigned to another AS's interconnect router does not
   dominate the prefix's signal;
4. record the coverage funnel (Table-less §3.2 numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set

from ..netutil import Prefix, exclude_covered
from ..obs.spans import span
from ..rng import SeedTree
from .censys import CensysDataset
from .isi import ISIHistoryDataset


class ProbeMethod(Enum):
    ICMP_ECHO = "icmp-echo"
    TCP_SYN = "tcp-syn"
    UDP = "udp"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ProbeTarget:
    """One selected probe destination."""

    address: int
    prefix: Prefix
    method: ProbeMethod
    port: int = 0
    source: str = "isi"  # dataset the seed came from


@dataclass
class SeedFunnel:
    """The §3.2 coverage funnel."""

    studied_prefixes: int = 0
    covered_excluded: int = 0
    isi_covered: int = 0
    union_covered: int = 0
    responsive: int = 0
    three_targets: int = 0
    isi_seeded: int = 0
    censys_seeded: int = 0
    mixed_seeded: int = 0
    studied_ases: int = 0
    isi_covered_ases: int = 0
    union_covered_ases: int = 0
    responsive_ases: int = 0

    def as_rows(self) -> List[str]:
        """Render the funnel like the §3.2 prose."""
        def pct(n: int, d: int) -> str:
            return "%.1f%%" % (100.0 * n / d) if d else "-"

        rows = [
            "studied prefixes: %d (%d ASes); %d covered prefixes excluded"
            % (self.studied_prefixes, self.studied_ases,
               self.covered_excluded),
            "ISI-covered: %d (%s) across %d ASes"
            % (self.isi_covered, pct(self.isi_covered,
                                     self.studied_prefixes),
               self.isi_covered_ases),
            "ISI+Censys covered: %d (%s) across %d ASes"
            % (self.union_covered, pct(self.union_covered,
                                       self.studied_prefixes),
               self.union_covered_ases),
            "responsive: %d (%s) across %d ASes"
            % (self.responsive, pct(self.responsive,
                                    self.studied_prefixes),
               self.responsive_ases),
            "three targets: %d (%s of responsive)"
            % (self.three_targets, pct(self.three_targets,
                                       self.responsive)),
            "seed origin: icmp %s, tcp/udp %s, mixed %s (of responsive)"
            % (pct(self.isi_seeded, self.responsive),
               pct(self.censys_seeded, self.responsive),
               pct(self.mixed_seeded, self.responsive)),
        ]
        return rows


@dataclass
class SeedPlan:
    """Selected targets per prefix plus the coverage funnel."""

    targets: Dict[Prefix, List[ProbeTarget]] = field(default_factory=dict)
    funnel: SeedFunnel = field(default_factory=SeedFunnel)

    def responsive_prefixes(self) -> List[Prefix]:
        return sorted(self.targets, key=lambda p: (p.network, p.length))

    def total_targets(self) -> int:
        return sum(len(t) for t in self.targets.values())


@span("seeds.select")
def select_seeds(
    ecosystem,
    isi: Optional[ISIHistoryDataset] = None,
    censys: Optional[CensysDataset] = None,
    seed_tree: Optional[SeedTree] = None,
    max_isi: int = 10,
    max_censys: int = 10,
    want: int = 3,
) -> SeedPlan:
    """Run the §3.2 selection pipeline against an ecosystem.

    Datasets default to fresh syntheses from the ecosystem's ground
    truth.  Probing an address succeeds when it is a planned alive
    system (there is no round-level loss at seeding time; the seeding
    scan probed repeatedly until it had confidence).
    """
    tree = seed_tree or SeedTree(0)
    if isi is None:
        isi = ISIHistoryDataset.synthesize(ecosystem, tree)
    if censys is None:
        censys = CensysDataset.synthesize(ecosystem, tree)
    rng = tree.child("seed-selection").rng()

    plans = {plan.prefix: plan for plan in ecosystem.studied_prefixes()}
    all_prefixes = list(plans) + [
        plan.prefix for plan in ecosystem.covered_prefixes()
    ]
    kept, covered = exclude_covered(all_prefixes)
    kept = [prefix for prefix in kept if prefix in plans]

    alive: Dict[Prefix, Set[int]] = {
        prefix: {s.address for s in plan.alive_systems}
        for prefix, plan in plans.items()
    }

    plan_out = SeedPlan()
    funnel = plan_out.funnel
    funnel.studied_prefixes = len(kept)
    funnel.covered_excluded = len(covered)
    funnel.studied_ases = len(
        {plans[prefix].origin_asn for prefix in kept}
    )

    isi_ases: Set[int] = set()
    union_ases: Set[int] = set()
    responsive_ases: Set[int] = set()

    for prefix in kept:
        origin = plans[prefix].origin_asn
        has_isi = isi.covers(prefix)
        has_censys = censys.covers(prefix)
        if has_isi:
            funnel.isi_covered += 1
            isi_ases.add(origin)
        if has_isi or has_censys:
            funnel.union_covered += 1
            union_ases.add(origin)
        else:
            continue

        responsive: List[ProbeTarget] = []
        seen: Set[int] = set()
        for entry in isi.entries_for(prefix, max_isi):
            if len(responsive) >= want:
                break
            seen.add(entry.address)
            if entry.address in alive[prefix]:
                responsive.append(
                    ProbeTarget(
                        address=entry.address,
                        prefix=prefix,
                        method=ProbeMethod.ICMP_ECHO,
                        source="isi",
                    )
                )
        if len(responsive) < want and has_censys:
            services = censys.query(prefix)
            rng.shuffle(services)
            for service in services[:max_censys]:
                if len(responsive) >= want:
                    break
                if service.address in seen:
                    continue
                seen.add(service.address)
                if service.address in alive[prefix]:
                    method = (
                        ProbeMethod.TCP_SYN
                        if service.protocol == "tcp"
                        else ProbeMethod.UDP
                    )
                    responsive.append(
                        ProbeTarget(
                            address=service.address,
                            prefix=prefix,
                            method=method,
                            port=service.port,
                            source="censys",
                        )
                    )
        if not responsive:
            continue
        plan_out.targets[prefix] = responsive
        funnel.responsive += 1
        responsive_ases.add(origin)
        if len(responsive) >= want:
            funnel.three_targets += 1
        sources = {target.source for target in responsive}
        if sources == {"isi"}:
            funnel.isi_seeded += 1
        elif sources == {"censys"}:
            funnel.censys_seeded += 1
        else:
            funnel.mixed_seeded += 1

    funnel.isi_covered_ases = len(isi_ases)
    funnel.union_covered_ases = len(union_ases)
    funnel.responsive_ases = len(responsive_ases)
    return plan_out
