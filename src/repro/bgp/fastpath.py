"""Synchronous bulk route propagation.

``propagate_fastpath`` computes the converged loc-RIB entry of every AS
for one prefix (possibly announced by several origins, as with the
measurement prefix) without simulating message timing.  It is used for
the bulk collector-view analyses (Table 4, Figure 5) where churn and
route age are irrelevant, and as an oracle in tests: at fixpoint the
event-driven engine and the fastpath must agree whenever no AS uses the
route-age tie-break.

The relaxation is a FIFO policy-aware Bellman-Ford: ASes whose best
route changed re-export to eligible neighbors until quiescence.  Under
valley-free (Gao-Rexford + R&E fabric) export and monotone preferences
this converges to the unique stable solution.

Routes travel through the relaxation as compact offers, plain tuples
``(learned_from, path_asns, localpref, tag)``: a changed offer is a
tuple comparison, and a :class:`~repro.bgp.attributes.Route` is built
only when a caller reads :attr:`FastpathResult.best` or
:attr:`FastpathResult.offers` (``build_collector_rib`` reads paths with
:meth:`FastpathResult.path_at` and builds none).  Each receiver keeps
its best offer as the incumbent and ranks a changed offer from another
neighbor against it by the key :meth:`DecisionProcess.offer_key
<repro.bgp.decision.DecisionProcess.offer_key>` compiles from its
decision steps; a withdrawal from another neighbor leaves the incumbent
standing.  Only when the incumbent's own neighbor changes or withdraws
its offer, or there is no incumbent, does it take the minimum over its
whole adj-RIB-in (a lone candidate wins without being ranked).  Under
an active provenance recorder the candidates are built as routes and
:meth:`DecisionProcess.best_verbose` picks and narrates, so the
recorded events are those of a full selection.

The relaxation reads each edge's policy from a :class:`FastpathView`:
per sender, its neighbor rows (export prepends and tag filters, the
receiver's import localpref and ROV flag); for each session a sender
learns a route over, a tuple of export flags, one per row; and a
per-AS decision process with its offer key.  A view is filled on first use
and snapshots policy as it stands then, so it lives no longer than one
call that keeps policy fixed: ``propagate_fastpath`` builds a fresh one
when given none, and ``build_collector_rib`` shares one across its
propagations.  A view is never stored on a topology, an ecosystem or a
module global.
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from ..errors import EngineError
from ..netutil import Prefix
from ..obs import get_logger, get_registry, span
from ..obs.frontier import FastpathRunFrontier, active_frontier
from ..obs.provenance import active_recorder, selection_event
from ..topology.graph import Topology
from .attributes import Announcement, ASPath, Route
from .decision import DecisionProcess
from .policy import may_export
from .router import LOCAL_ROUTE_LOCALPREF
from .rpki import rov_drops_route

_MAX_ROUNDS_FACTOR = 40

_log = get_logger("repro.fastpath")

#: A compact offer: ``(learned_from, path_asns, localpref, tag)``, with
#: ``learned_from`` None for an origin's local route.
Offer = Tuple[Optional[int], Tuple[int, ...], int, str]


def _route(prefix: Prefix, offer: Offer) -> Route:
    learned_from, asns, localpref, tag = offer
    return Route(prefix=prefix, path=ASPath(asns),
                 learned_from=learned_from, localpref=localpref, tag=tag)


class FastpathResult:
    """Converged state for one prefix.

    ``best`` maps ASN to its selected route (origin ASes hold their
    local route).  ``offers`` maps ASN to the post-import routes each
    neighbor last offered it (an adj-RIB-in snapshot), which analyses
    use to see alternatives (e.g. the R&E route an AS did *not* pick).

    :func:`propagate_fastpath` hands both maps over as compact offers
    (:meth:`from_offers`); each builds its routes the first time it is
    read.  :meth:`path_at` reads a path without building any.
    """

    __slots__ = ("prefix", "_best", "_offers", "_compact")

    def __init__(self, prefix: Prefix) -> None:
        self.prefix = prefix
        self._best: Optional[Dict[int, Route]] = {}
        self._offers: Optional[Dict[int, Dict[int, Route]]] = {}
        self._compact: Optional[tuple] = None

    @classmethod
    def from_offers(
        cls,
        prefix: Prefix,
        best: Dict[int, Offer],
        offers: Dict[int, Dict[int, Offer]],
    ) -> "FastpathResult":
        result = cls(prefix)
        result._best = result._offers = None
        result._compact = (best, offers)
        return result

    @property
    def best(self) -> Dict[int, Route]:
        if self._best is None:
            prefix = self.prefix
            self._best = {
                asn: _route(prefix, offer)
                for asn, offer in self._compact[0].items()
            }
        return self._best

    @property
    def offers(self) -> Dict[int, Dict[int, Route]]:
        if self._offers is None:
            prefix = self.prefix
            self._offers = {
                asn: {
                    sender: _route(prefix, offer)
                    for sender, offer in rib.items()
                }
                for asn, rib in self._compact[1].items()
            }
        return self._offers

    def route_at(self, asn: int) -> Optional[Route]:
        return self.best.get(asn)

    def path_at(self, asn: int) -> Optional[Tuple[int, ...]]:
        """The AS path of *asn*'s best route, or None."""
        if self._compact is None:
            route = self.best.get(asn)
            return None if route is None else route.path.asns
        offer = self._compact[0].get(asn)
        return None if offer is None else offer[1]

    def candidates_at(self, asn: int) -> List[Route]:
        rib = self.offers.get(asn, {})
        return [rib[key] for key in sorted(rib)]

    def __repr__(self) -> str:
        return "FastpathResult(%s)" % (self.prefix,)


_NO_TAGS: FrozenSet[str] = frozenset()


class FastpathView:
    """The per-edge policy of one topology, compiled for the relaxation.

    Rows, export flags and deciders are filled on first use and never
    refreshed, so a view must not outlive a policy edit (see the module
    docstring for the lifetime rule).
    """

    __slots__ = ("topology", "deciders", "_rows", "_links", "_flags")

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: ASN → its :class:`DecisionProcess` and the process's
        #: :meth:`~DecisionProcess.offer_key`, filled by the relaxation.
        self.deciders: Dict[
            int, Tuple[DecisionProcess, Callable[[Offer], tuple]]
        ] = {}
        self._rows: Dict[int, Tuple[tuple, ...]] = {}
        self._links: Dict[Tuple[int, Optional[int]], Tuple[bool, ...]] = {}
        self._flags: Dict[tuple, Tuple[bool, ...]] = {}

    def rows(self, sender: int) -> Tuple[tuple, ...]:
        """*sender*'s export rows, one per neighbor in ASN order.

        A row is ``(receiver, head, prepends, no_export_tags,
        import_localpref, enforce_rov)``: the ASNs the sender puts in
        front of a path it re-exports to the receiver (itself, once
        plus its extra prepends toward it), those extra prepends, the
        tags the sender never exports to it; and the receiver's
        localpref for routes from the sender and its ROV flag.  Plain
        tuples keep the one-shot build cheap.
        """
        rows = self._rows.get(sender)
        if rows is None:
            topology = self.topology
            policy = topology.node(sender).policy
            built = []
            for receiver in sorted(topology.neighbors(sender)):
                receiver_policy = topology.node(receiver).policy
                prepends = policy.prepends_toward(receiver)
                built.append((
                    receiver,
                    (sender,) * (1 + prepends),
                    prepends,
                    frozenset(policy.no_export_tags.get(receiver, _NO_TAGS)),
                    receiver_policy.localpref_for(
                        sender, topology.rel(receiver, sender)
                    ),
                    receiver_policy.enforce_rov,
                ))
            rows = self._rows[sender] = tuple(built)
        return rows

    def link(
        self, sender: int, learned_from: Optional[int]
    ) -> Tuple[bool, ...]:
        """Export flags of a route *sender* learned from *learned_from*
        (None for its own route), aligned with :meth:`rows`: True where
        :func:`~repro.bgp.policy.may_export` allows the session and the
        receiver is not in the sender's ``no_export_to``.

        The flags depend on the learned session only through its
        relationship and fabric flag, so a sender's sessions share one
        tuple per such pair.
        """
        key = (sender, learned_from)
        flags = self._links.get(key)
        if flags is None:
            topology = self.topology
            if learned_from is None:
                session = (sender, None, False)
            else:
                session = (
                    sender,
                    topology.rel(sender, learned_from),
                    topology.is_fabric(sender, learned_from),
                )
            flags = self._flags.get(session)
            if flags is None:
                _, learned_rel, learned_fabric = session
                no_export_to = topology.node(sender).policy.no_export_to
                flags = self._flags[session] = tuple(
                    row[0] not in no_export_to
                    and may_export(
                        learned_rel,
                        topology.rel(sender, row[0]),
                        learned_fabric=learned_fabric,
                        to_fabric=topology.is_fabric(sender, row[0]),
                    )
                    for row in self.rows(sender)
                )
            self._links[key] = flags
        return flags


def propagate_fastpath(
    topology: Topology,
    announcements: Iterable[Announcement],
    prefix: Optional[Prefix] = None,
    roa_table=None,
    down_links: Optional[Iterable[frozenset]] = None,
    view: Optional[FastpathView] = None,
) -> FastpathResult:
    """Compute every AS's converged best route for one prefix.

    All *announcements* must share a prefix (pass *prefix* to check).
    *down_links* (an iterable of two-ASN frozensets, matching
    the engine's failed-link set) excludes those adjacencies from
    propagation, so the fastpath can oracle the engine's post-flap
    state too.  *view* shares compiled edge policy across calls over
    unchanged policy; it never changes the result.  Without one the
    call compiles its own.
    """
    announcements = list(announcements)
    if not announcements:
        raise EngineError("no announcements to propagate")
    the_prefix = announcements[0].prefix
    if prefix is not None and prefix != the_prefix:
        raise EngineError("prefix mismatch in fastpath call")
    for announcement in announcements:
        if announcement.prefix != the_prefix:
            raise EngineError("announcements for different prefixes")
    if view is None:
        view = FastpathView(topology)
    elif view.topology is not topology:
        raise EngineError("fastpath view built for another topology")

    failed: Set[frozenset] = set(down_links or ())
    best_of: Dict[int, Offer] = {}
    offers: Dict[int, Dict[int, Offer]] = {}
    deciders = view.deciders
    # The loop reads the view's filled caches directly; rows() and
    # link() fill them on a miss.
    view_rows = view._rows
    links = view._links
    cache_hits = cache_misses = selections = 0
    compactions = 0
    pending: List[int] = []
    pending_set: Set[int] = set()

    # Seed: origins install their local route and push first-hop offers.
    # One origin may hold several announcements of the prefix with
    # different tags (a multi-homed host announcing through separate
    # interfaces, Figure 6); export resolves which applies per neighbor
    # via the origin's tag-scoped export policy.
    origin_announcements: Dict[int, List[Announcement]] = {}
    for announcement in announcements:
        origin = announcement.origin_asn
        origin_announcements.setdefault(origin, []).append(announcement)
        best_of[origin] = (
            None, (origin,), LOCAL_ROUTE_LOCALPREF, announcement.tag
        )
        if origin not in pending_set:
            pending_set.add(origin)
            pending.append(origin)

    max_rounds = max(1, len(topology)) * _MAX_ROUNDS_FACTOR
    compact_after = len(topology) * _MAX_ROUNDS_FACTOR
    iterations = 0
    cursor = 0
    # One call returning None per propagation is the entire
    # disabled-state frontier cost; the run id derives from the trace's
    # recorded-event count, which the byte-identity contract keeps
    # equal across execution modes.
    trace_ring = active_frontier()
    acc = None
    if trace_ring is not None:
        acc = FastpathRunFrontier(
            trace_ring, trace_ring.total_recorded, the_prefix
        )
    recorder = active_recorder()
    if recorder is not None and not recorder.wants(the_prefix):
        recorder = None
    with span("fastpath.propagate"):
        while cursor < len(pending):
            asn = pending[cursor]
            cursor += 1
            pending_set.discard(asn)
            iterations += 1
            if iterations > max_rounds + len(pending):
                raise EngineError("fastpath failed to converge")
            # What this AS offers: nothing, its own announcements
            # (chosen per neighbor by tag), or its best route re-exported.
            best = best_of.get(asn)
            if best is None:
                exports = repeat(False)
                local = False
            else:
                learned_from, best_asns, _, best_tag = best
                exports = links.get((asn, learned_from))
                if exports is None:
                    exports = view.link(asn, learned_from)
                local = learned_from is None
                if local:
                    # Only seeded origins hold a local route.  Tag-scoped
                    # filters may dedicate announcements to interfaces,
                    # as on the Figure 6 host.
                    announced = origin_announcements[asn]
            rows = view_rows.get(asn)
            if rows is None:
                rows = view.rows(asn)
            for (receiver, head, prepends, no_export_tags, import_localpref,
                 enforce_rov), export in zip(rows, exports):
                if failed and frozenset((asn, receiver)) in failed:
                    continue
                offer = None
                if not export:
                    pass
                elif local:
                    for chosen in announced:
                        if chosen.tag not in no_export_tags:
                            offer = (
                                asn,
                                ASPath.origin_path(
                                    asn,
                                    prepends + chosen.prepends_toward(receiver),
                                ).asns,
                                import_localpref,
                                chosen.tag,
                            )
                            break
                elif (
                    best_tag not in no_export_tags
                    and receiver not in best_asns
                ):
                    offer = (asn, head + best_asns, import_localpref, best_tag)
                if (
                    offer is not None
                    and enforce_rov
                    and rov_drops_route(roa_table, the_prefix, offer[1][-1])
                ):
                    offer = None  # RPKI-invalid: rejected on import (§2.3)

                # Install the offer (or its withdrawal) at the receiver
                # and reselect if its adj-RIB-in changed.
                rib = offers.get(receiver)
                if rib is None:
                    rib = offers[receiver] = {}
                if offer is None:
                    touched = asn in rib
                    if touched:
                        del rib[asn]
                else:
                    touched = rib.get(asn) != offer
                    if touched:
                        rib[asn] = offer
                changed = False
                if touched:
                    decider = deciders.get(receiver)
                    if decider is None:
                        process = topology.node(
                            receiver
                        ).policy.decision_process()
                        decider = deciders[receiver] = (
                            process, process.offer_key()
                        )
                        cache_misses += 1
                    else:
                        cache_hits += 1
                    old = best_of.get(receiver)
                    # Local routes always win; an origin never changes
                    # its best.
                    if old is None or old[0] is not None:
                        selections += 1
                        if recorder is not None:
                            new = _select_recorded(
                                recorder, decider[0], the_prefix,
                                receiver, rib,
                            )
                        elif old is not None and old[0] != asn:
                            # The incumbent's offer stands: a
                            # withdrawal leaves it best, and an offer
                            # takes over only if it ranks first.
                            key = decider[1]
                            if offer is not None and key(offer) < key(old):
                                new = offer
                            else:
                                new = old
                        elif len(rib) > 1:
                            new = min(rib.values(), key=decider[1])
                        elif rib:
                            (new,) = rib.values()
                        else:
                            new = None
                        if new != old:
                            changed = True
                            if new is None:
                                del best_of[receiver]
                            else:
                                best_of[receiver] = new
                if changed and receiver not in pending_set:
                    pending_set.add(receiver)
                    pending.append(receiver)
                if acc is not None:
                    acc.note(
                        receiver if changed else None,
                        len(pending) - cursor,
                    )
            if cursor > compact_after:
                # Compact the queue so memory stays bounded on big runs.
                pending = pending[cursor:]
                cursor = 0
                compactions += 1

    if acc is not None:
        acc.finish()
    registry = get_registry()
    registry.counter("fastpath.prefixes_computed").inc()
    registry.counter("fastpath.iterations").inc(iterations)
    registry.counter("fastpath.decision_cache_hits").inc(cache_hits)
    registry.counter("fastpath.decision_cache_misses").inc(cache_misses)
    registry.counter("fastpath.queue_compactions").inc(compactions)
    registry.counter("fastpath.selections").inc(selections)
    registry.gauge("fastpath.ases_with_route").set(len(best_of))
    if _log.is_enabled_for("debug"):
        _log.debug(
            "fastpath converged",
            prefix=str(the_prefix),
            iterations=iterations,
            ases_with_route=len(best_of),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )
    return FastpathResult.from_offers(the_prefix, best_of, offers)


def _select_recorded(
    recorder,
    process: DecisionProcess,
    prefix: Prefix,
    receiver: int,
    rib: Dict[int, Offer],
) -> Optional[Offer]:
    """Select *receiver*'s best offer with the full, narrated decision
    process over its adj-RIB-in built as routes, and record the
    provenance event."""
    candidates = [_route(prefix, rib[sender]) for sender in sorted(rib)]
    chosen, steps = process.best_verbose(candidates)
    recorder.record(selection_event(
        source="fastpath",
        asn=receiver,
        prefix=prefix,
        candidates=candidates,
        steps=steps,
        winner_index=(
            next(i for i, r in enumerate(candidates) if r is chosen)
            if chosen is not None else None
        ),
        winning_step=steps[-1]["step"] if steps else None,
    ))
    return None if chosen is None else rib[chosen.learned_from]
