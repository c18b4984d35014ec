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

The relaxation reads each edge's policy from a :class:`FastpathView`:
per sender, its neighbor rows (relationship, fabric flag, export
prepends and filters, the receiver's import localpref and ROV flag),
plus a per-AS decision-process cache.  A view is filled on first use
and snapshots policy as it stands then, so it lives no longer than one
call that keeps policy fixed: ``propagate_fastpath`` builds a fresh one
when given none, and ``build_collector_rib`` shares one across its
propagations.  A view is never stored on a topology, an ecosystem or a
module global.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import EngineError
from ..netutil import Prefix
from ..obs import get_logger, get_registry, span
from ..obs.frontier import FastpathRunFrontier, active_frontier
from ..obs.provenance import active_recorder, selection_event
from ..topology.graph import Topology
from .attributes import Announcement, ASPath, Route
from .decision import DecisionProcess
from .policy import Rel, may_export
from .router import LOCAL_ROUTE_LOCALPREF
from .rpki import rov_drops_route

_MAX_ROUNDS_FACTOR = 40

_log = get_logger("repro.fastpath")


@dataclass
class FastpathResult:
    """Converged state for one prefix.

    ``best`` maps ASN to its selected route (origin ASes hold their
    local route).  ``offers`` maps ASN to the post-import routes each
    neighbor last offered it (an adj-RIB-in snapshot), which analyses
    use to see alternatives (e.g. the R&E route an AS did *not* pick).
    """

    prefix: Prefix
    best: Dict[int, Route] = field(default_factory=dict)
    offers: Dict[int, Dict[int, Route]] = field(default_factory=dict)

    def route_at(self, asn: int) -> Optional[Route]:
        return self.best.get(asn)

    def candidates_at(self, asn: int) -> List[Route]:
        rib = self.offers.get(asn, {})
        return [rib[key] for key in sorted(rib)]




_NO_TAGS: FrozenSet[str] = frozenset()


class FastpathView:
    """The per-edge policy of one topology, compiled for the relaxation.

    Rows, links and decision processes are filled on first use and
    never refreshed, so a view must not outlive a policy edit (see the
    module docstring for the lifetime rule).
    """

    __slots__ = ("topology", "processes", "_rows", "_links")

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: ASN → its :class:`DecisionProcess`, filled by the relaxation.
        self.processes: Dict[int, DecisionProcess] = {}
        self._rows: Dict[int, Tuple[tuple, ...]] = {}
        self._links: Dict[Tuple[int, int], Tuple[Rel, bool]] = {}

    def rows(self, sender: int) -> Tuple[tuple, ...]:
        """*sender*'s export rows, one per neighbor in ASN order.

        A row is ``(receiver, to_rel, to_fabric, prepends, no_export,
        no_export_tags, import_localpref, enforce_rov)``: the receiver's
        relationship from the sender and whether the link rides the R&E
        fabric; the sender's extra self-prepends toward it, whether it
        is in the sender's ``no_export_to`` and the tags the sender
        never exports to it; and the receiver's localpref for routes
        from the sender and its ROV flag.  Plain tuples keep the
        one-shot build cheap.
        """
        rows = self._rows.get(sender)
        if rows is None:
            topology = self.topology
            policy = topology.node(sender).policy
            neighbors = topology.neighbors(sender)
            built = []
            for receiver in sorted(neighbors):
                receiver_policy = topology.node(receiver).policy
                built.append((
                    receiver,
                    neighbors[receiver],
                    topology.is_fabric(sender, receiver),
                    policy.prepends_toward(receiver),
                    receiver in policy.no_export_to,
                    frozenset(policy.no_export_tags.get(receiver, _NO_TAGS)),
                    receiver_policy.localpref_for(
                        sender, topology.rel(receiver, sender)
                    ),
                    receiver_policy.enforce_rov,
                ))
            rows = self._rows[sender] = tuple(built)
        return rows

    def link(self, sender: int, neighbor: int) -> Tuple[Rel, bool]:
        """``(rel, fabric)`` of *neighbor* from *sender*, the inputs
        :func:`~repro.bgp.policy.may_export` needs for the session a
        route was learned over."""
        key = (sender, neighbor)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = (
                self.topology.rel(sender, neighbor),
                self.topology.is_fabric(sender, neighbor),
            )
        return link


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
    result = FastpathResult(prefix=the_prefix)
    best_of = result.best
    offers = result.offers
    processes = view.processes
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
        best_of[origin] = Route(
            prefix=the_prefix,
            path=ASPath((origin,)),
            learned_from=None,
            localpref=LOCAL_ROUTE_LOCALPREF,
            tag=announcement.tag,
        )
        if origin not in pending_set:
            pending_set.add(origin)
            pending.append(origin)

    max_rounds = max(1, len(topology)) * _MAX_ROUNDS_FACTOR
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
            local = best is not None and best.learned_from is None
            if local:
                # Only seeded origins hold a local route.  Tag-scoped
                # filters may dedicate announcements to interfaces, as
                # on the Figure 6 host.
                announced = origin_announcements[asn]
            elif best is not None:
                learned_rel, learned_fabric = view.link(
                    asn, best.learned_from
                )
                best_path = best.path
                best_asns = best_path.asns
                best_tag = best.tag
            for (receiver, to_rel, to_fabric, prepends, no_export,
                 no_export_tags, import_localpref,
                 enforce_rov) in view.rows(asn):
                if failed and frozenset((asn, receiver)) in failed:
                    continue
                path = None
                if best is None or no_export:
                    pass
                elif local:
                    for chosen in announced:
                        if chosen.tag not in no_export_tags:
                            path = ASPath.origin_path(
                                asn,
                                prepends + chosen.prepends_toward(receiver),
                            )
                            tag = chosen.tag
                            break
                elif (
                    best_tag not in no_export_tags
                    and may_export(learned_rel, to_rel,
                                   learned_fabric=learned_fabric,
                                   to_fabric=to_fabric)
                    and receiver not in best_asns
                ):
                    path = best_path.prepended_by(asn, 1 + prepends)
                    tag = best_tag
                if (
                    path is not None
                    and enforce_rov
                    and rov_drops_route(roa_table, the_prefix, path.origin)
                ):
                    path = None  # RPKI-invalid: rejected on import (§2.3)

                # Install the offer (or its withdrawal) at the receiver
                # and reselect if its adj-RIB-in changed.
                rib = offers.get(receiver)
                if rib is None:
                    rib = offers[receiver] = {}
                if path is None:
                    touched = asn in rib
                    if touched:
                        del rib[asn]
                else:
                    imported = Route(
                        prefix=the_prefix,
                        path=path,
                        learned_from=asn,
                        localpref=import_localpref,
                        tag=tag,
                    )
                    touched = rib.get(asn) != imported
                    if touched:
                        rib[asn] = imported
                changed = False
                if touched:
                    process = processes.get(receiver)
                    if process is None:
                        process = topology.node(
                            receiver
                        ).policy.decision_process()
                        processes[receiver] = process
                        cache_misses += 1
                    else:
                        cache_hits += 1
                    old = best_of.get(receiver)
                    # Local routes always win; an origin never changes
                    # its best.
                    if old is None or old.learned_from is not None:
                        selections += 1
                        candidates = [rib[key] for key in sorted(rib)]
                        if recorder is None:
                            new = process.best(candidates)
                        else:
                            new, steps = process.best_verbose(candidates)
                            recorder.record(selection_event(
                                source="fastpath",
                                asn=receiver,
                                prefix=the_prefix,
                                candidates=candidates,
                                steps=steps,
                                winner_index=(
                                    next(i for i, r in enumerate(candidates)
                                         if r is new)
                                    if new is not None else None
                                ),
                                winning_step=(
                                    steps[-1]["step"] if steps else None
                                ),
                            ))
                        if new is None:
                            if old is not None:
                                del best_of[receiver]
                                changed = True
                        elif old is None or old != new:
                            best_of[receiver] = new
                            changed = True
                if changed and receiver not in pending_set:
                    pending_set.add(receiver)
                    pending.append(receiver)
                if acc is not None:
                    acc.note(
                        receiver if changed else None,
                        len(pending) - cursor,
                    )
            if cursor > len(topology) * _MAX_ROUNDS_FACTOR:
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
    return result
