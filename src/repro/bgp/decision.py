"""The BGP decision process.

A :class:`DecisionProcess` is an ordered list of tie-breaking steps.  The
default order mirrors common router implementations and the paper's
analysis (§1, §A):

1. highest local preference;
2. shortest AS path (skipped by *path-length-insensitive* ASes, §A);
3. lowest MED;
4. oldest route (only when ``age_tiebreak`` is enabled — §A shows most
   R&E ASes broke ties with path length, with limited evidence for
   route-age tie-breaking);
5. lowest neighbor ASN (final deterministic tie-break, standing in for
   lowest router ID).

Each step is a pure filter: given the surviving candidate routes it
returns the subset that wins that step.  ``best()`` runs the steps in
order until one candidate survives.  :meth:`DecisionProcess.offer_key`
compiles the same steps into a sort key over the fastpath's compact
offers, so the fastpath can rank one new offer against its current best
instead of re-running the filters over every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..errors import PolicyError
from .attributes import Route


class Step(Enum):
    """Identifiers for the individual decision steps."""

    HIGHEST_LOCALPREF = "highest-localpref"
    SHORTEST_AS_PATH = "shortest-as-path"
    LOWEST_MED = "lowest-med"
    OLDEST_ROUTE = "oldest-route"
    LOWEST_NEIGHBOR_ASN = "lowest-neighbor-asn"


def _keep_min(routes: List[Route], key: Callable[[Route], float]) -> List[Route]:
    smallest = min(key(route) for route in routes)
    return [route for route in routes if key(route) == smallest]


def _highest_localpref(routes: List[Route]) -> List[Route]:
    return _keep_min(routes, lambda r: -r.localpref)


def _shortest_as_path(routes: List[Route]) -> List[Route]:
    return _keep_min(routes, lambda r: r.path.length)


def _lowest_med(routes: List[Route]) -> List[Route]:
    return _keep_min(routes, lambda r: r.med)


def _oldest_route(routes: List[Route]) -> List[Route]:
    return _keep_min(routes, lambda r: r.installed_at)


def _lowest_neighbor_asn(routes: List[Route]) -> List[Route]:
    """Final deterministic tie-break: lowest neighbor ASN wins.

    A route with ``learned_from=None`` has no neighbor to compare (it
    is locally originated, or synthesised without provenance); it maps
    to ``+inf`` so it *loses* to any route with a known neighbor rather
    than silently beating all of them.  Locally originated routes never
    reach this step in practice — their localpref
    (:data:`~repro.bgp.router.LOCAL_ROUTE_LOCALPREF`) wins step one.
    """
    return _keep_min(
        routes,
        lambda r: (
            r.learned_from
            if r.learned_from is not None
            else float("inf")
        ),
    )


_STEP_FUNCTIONS = {
    Step.HIGHEST_LOCALPREF: _highest_localpref,
    Step.SHORTEST_AS_PATH: _shortest_as_path,
    Step.LOWEST_MED: _lowest_med,
    Step.OLDEST_ROUTE: _oldest_route,
    Step.LOWEST_NEIGHBOR_ASN: _lowest_neighbor_asn,
}

#: Per step, the rank it gives a fastpath offer ``(learned_from,
#: path_asns, localpref, tag)`` (:mod:`repro.bgp.fastpath`): the key the
#: filter above keeps the minimum of.  Offers carry no MED and no install
#: time (every fastpath route has ``med=0`` and ``installed_at=0.0``),
#: so those steps rank all offers equal and add nothing to the key.
_STEP_OFFER_RANKS = {
    Step.HIGHEST_LOCALPREF: lambda offer: -offer[2],
    Step.SHORTEST_AS_PATH: lambda offer: len(offer[1]),
    Step.LOWEST_MED: None,
    Step.OLDEST_ROUTE: None,
    Step.LOWEST_NEIGHBOR_ASN: lambda offer: offer[0],
}

#: The raw attribute each step compares, for provenance reporting (the
#: filter functions above compare derived keys — e.g. negated
#: localpref — which would be confusing in an audit trail).
_STEP_VALUES = {
    Step.HIGHEST_LOCALPREF: lambda r: r.localpref,
    Step.SHORTEST_AS_PATH: lambda r: r.path.length,
    Step.LOWEST_MED: lambda r: r.med,
    Step.OLDEST_ROUTE: lambda r: r.installed_at,
    Step.LOWEST_NEIGHBOR_ASN: lambda r: r.learned_from,
}

DEFAULT_STEPS: Tuple[Step, ...] = (
    Step.HIGHEST_LOCALPREF,
    Step.SHORTEST_AS_PATH,
    Step.LOWEST_MED,
    Step.OLDEST_ROUTE,
    Step.LOWEST_NEIGHBOR_ASN,
)


@dataclass(frozen=True)
class DecisionProcess:
    """An ordered BGP decision process.

    Use :meth:`standard` for the default process; pass
    ``path_length_sensitive=False`` to model ASes that ignore AS path
    length (Appendix A case J), or ``age_tiebreak=False`` for routers
    that skip the oldest-route step.
    """

    steps: Tuple[Step, ...] = DEFAULT_STEPS

    @classmethod
    def standard(
        cls,
        path_length_sensitive: bool = True,
        age_tiebreak: bool = True,
    ) -> "DecisionProcess":
        steps = [Step.HIGHEST_LOCALPREF]
        if path_length_sensitive:
            steps.append(Step.SHORTEST_AS_PATH)
        steps.append(Step.LOWEST_MED)
        if age_tiebreak:
            steps.append(Step.OLDEST_ROUTE)
        steps.append(Step.LOWEST_NEIGHBOR_ASN)
        return cls(tuple(steps))

    @property
    def path_length_sensitive(self) -> bool:
        return Step.SHORTEST_AS_PATH in self.steps

    def best(self, routes: Iterable[Route]) -> Optional[Route]:
        """Return the single best route, or None if *routes* is empty.

        The final LOWEST_NEIGHBOR_ASN step guarantees a unique winner
        among routes from distinct neighbors; if two candidates from the
        same neighbor survive every step the process is ill-formed and a
        PolicyError is raised.
        """
        candidates = list(routes)
        if not candidates:
            return None
        for step in self.steps:
            if len(candidates) == 1:
                break
            candidates = _STEP_FUNCTIONS[step](candidates)
        if len(candidates) > 1:
            # Distinct routes from the same neighbor for the same prefix
            # should never coexist in an adj-RIB.
            raise PolicyError(
                "decision process did not yield a unique best route: %s"
                % ("; ".join(str(route) for route in candidates),)
            )
        return candidates[0]

    def best_verbose(
        self, routes: Iterable[Route]
    ) -> Tuple[Optional[Route], List[dict]]:
        """Run the decision process and narrate it.

        Returns ``(winner, steps)`` where *winner* is exactly what
        :meth:`best` would return and *steps* is one dict per executed
        step::

            {"step": "highest-localpref",
             "entering": [0, 1, 2],       # candidate indices in
             "values": [100, 100, 90],    # the attribute compared
             "survivors": [0, 1]}         # candidate indices out

        Indices refer to positions in the *routes* argument, so callers
        can pair them with their own candidate summaries.  Used by the
        provenance layer (:mod:`repro.obs.provenance`); the plain
        :meth:`best` stays allocation-free for the hot path.
        """
        candidates = list(routes)
        steps: List[dict] = []
        if not candidates:
            return None, steps
        index_of = {id(route): i for i, route in enumerate(candidates)}
        surviving = candidates
        for step in self.steps:
            if len(surviving) == 1:
                break
            value_of = _STEP_VALUES[step]
            entering = surviving
            surviving = _STEP_FUNCTIONS[step](surviving)
            steps.append({
                "step": step.value,
                "entering": [index_of[id(r)] for r in entering],
                "values": [value_of(r) for r in entering],
                "survivors": [index_of[id(r)] for r in surviving],
            })
        if len(surviving) > 1:
            raise PolicyError(
                "decision process did not yield a unique best route: %s"
                % ("; ".join(str(route) for route in surviving),)
            )
        return surviving[0], steps

    def offer_key(self) -> Callable[[tuple], tuple]:
        """This process as a sort key over fastpath offers.

        Among offers from distinct neighbors, the one with the smallest
        key is the one :meth:`best` picks from their routes: the key
        chains each step's rank from :data:`_STEP_OFFER_RANKS` up to the
        LOWEST_NEIGHBOR_ASN step, which leaves one offer standing.
        Without that step ties can survive every step, where
        :meth:`best` raises, so the key is refused with a PolicyError
        rather than left to pick a winner silently.
        """
        return _compile_offer_key(self.steps)

    def ranks_equal(self, a: Route, b: Route) -> bool:
        """True if *a* and *b* tie on every step before the final
        neighbor-ASN tie-break (useful in tests)."""
        for step in self.steps:
            if step is Step.LOWEST_NEIGHBOR_ASN:
                break
            survivors = _STEP_FUNCTIONS[step]([a, b])
            if len(survivors) == 1:
                return False
        return True


# Every AS a fastpath view selects at compiles a key, but the standard
# processes come in only four step orders.
@lru_cache(maxsize=64)
def _compile_offer_key(steps: Tuple[Step, ...]) -> Callable[[tuple], tuple]:
    if Step.LOWEST_NEIGHBOR_ASN not in steps:
        raise PolicyError(
            "decision process %s has no lowest-neighbor-asn step, so it "
            "cannot rank offers" % ([step.value for step in steps],)
        )
    ranks = []
    for step in steps:
        rank = _STEP_OFFER_RANKS[step]
        # A repeated step filters nothing its first run left.
        if rank is not None and rank not in ranks:
            ranks.append(rank)
        if step is Step.LOWEST_NEIGHBOR_ASN:
            break
    # At most three distinct ranks; unrolled by count, because the key
    # runs once per offer the fastpath ranks and a generator over
    # *ranks* would cost more than the ranks themselves.
    if len(ranks) == 1:
        (first,) = ranks
        return lambda offer: (first(offer),)
    if len(ranks) == 2:
        first, second = ranks
        return lambda offer: (first(offer), second(offer))
    first, second, third = ranks
    return lambda offer: (first(offer), second(offer), third(offer))


def explain_choice(process: DecisionProcess, routes: Sequence[Route]) -> List[str]:
    """Narrate the decision: one line per step describing the surviving
    candidates.  Intended for examples and debugging output."""
    lines: List[str] = []
    candidates = list(routes)
    if not candidates:
        return ["no candidate routes"]
    lines.append("%d candidate route(s)" % len(candidates))
    for step in process.steps:
        if len(candidates) == 1:
            break
        candidates = _STEP_FUNCTIONS[step](candidates)
        lines.append(
            "%s -> %d candidate(s): %s"
            % (
                step.value,
                len(candidates),
                "; ".join("[%s]" % route.path for route in candidates),
            )
        )
    return lines
