"""AS-level data-plane forwarding of response traffic.

A response leaves the probed system's AS and is forwarded hop-by-hop:
every transit AS uses its *own* best route for the measurement prefix
(§3.4 — intermediate policies can dominate the edge's).  The walk ends
at one of the announcement origins, identifying the arrival interface,
or fails (no route and no default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..netutil import Prefix
from ..topology.graph import Topology

#: Generous AS-level TTL; real AS paths never approach this.
MAX_AS_HOPS = 64

#: Step kinds returned by a plane's per-AS lookup: the AS either holds
#: a locally originated route (walk delivers there), forwards along a
#: learned route, falls back to a default route, or has nothing.
_LOCAL = 0
_ROUTE = 1
_DEFAULT = 2
_NONE = 3


class ForwardingOutcome(Enum):
    DELIVERED = "delivered"
    NO_ROUTE = "no-route"
    LOOP = "loop"


@dataclass
class ReturnPath:
    """The walk taken by a response."""

    outcome: ForwardingOutcome
    origin_asn: Optional[int]     # terminating announcement origin
    hops: List[int]               # AS-level path, starting AS first
    used_default: bool = False    # a default route carried some hop


def _walk(
    step_of: Callable[[int], Tuple[int, Optional[int]]],
    start_asn: int,
    origin_asns: Set[int],
) -> ReturnPath:
    """Shared walk core over a per-AS forwarding step function.

    ``step_of(asn)`` classifies the AS's forwarding state as one of
    ``(_LOCAL, None)``, ``(_ROUTE, next_hop)``, ``(_DEFAULT, next_hop)``
    or ``(_NONE, None)``.  Both the live-RIB walker and the snapshot
    walker reduce to this, so their semantics cannot drift apart.
    """
    hops: List[int] = [start_asn]
    current = start_asn
    used_default = False
    visited = {start_asn}
    for _ in range(MAX_AS_HOPS):
        if current in origin_asns:
            return ReturnPath(
                outcome=ForwardingOutcome.DELIVERED,
                origin_asn=current,
                hops=hops,
                used_default=used_default,
            )
        kind, next_hop = step_of(current)
        if kind == _NONE:
            return ReturnPath(
                outcome=ForwardingOutcome.NO_ROUTE,
                origin_asn=None,
                hops=hops,
                used_default=used_default,
            )
        if kind == _LOCAL:
            # Locally originated at a non-origin AS should not happen
            # for the measurement prefix; treat as delivery point.
            return ReturnPath(
                outcome=ForwardingOutcome.DELIVERED,
                origin_asn=current,
                hops=hops,
                used_default=used_default,
            )
        if kind == _DEFAULT:
            used_default = True
        if next_hop in visited:
            return ReturnPath(
                outcome=ForwardingOutcome.LOOP,
                origin_asn=None,
                hops=hops + [next_hop],
                used_default=used_default,
            )
        visited.add(next_hop)
        hops.append(next_hop)
        current = next_hop
    return ReturnPath(
        outcome=ForwardingOutcome.LOOP,
        origin_asn=None,
        hops=hops,
        used_default=used_default,
    )


def rib_step(
    topology: Topology,
    best_route_of: Callable[[int], object],
) -> Callable[[int], Tuple[int, Optional[int]]]:
    """The per-AS forwarding step function of a live RIB.

    ``best_route_of(asn)`` returns the AS's current best
    :class:`~repro.bgp.attributes.Route` for the measurement prefix (or
    None); adapters exist for both propagation engines.  An AS without
    a route falls back to its policy's default route, if any.
    """
    def step_of(asn: int) -> Tuple[int, Optional[int]]:
        route = best_route_of(asn)
        if route is None:
            default_via = topology.node(asn).policy.default_route_via
            if default_via is None:
                return _NONE, None
            return _DEFAULT, default_via
        if route.learned_from is None:
            return _LOCAL, None
        return _ROUTE, route.learned_from

    return step_of


def walk_return_path(
    topology: Topology,
    best_route_of: Callable[[int], object],
    start_asn: int,
    origin_asns: Set[int],
    prefix: Prefix,
) -> ReturnPath:
    """Walk from *start_asn* toward the measurement prefix over the
    live RIB (see :func:`rib_step`).  ``origin_asns`` are the
    announcement origins (walk terminators)."""
    return _walk(rib_step(topology, best_route_of), start_asn, origin_asns)


class Catchment:
    """Where a response from each AS ends up, over one frozen data plane.

    A lazy, memoised table from start AS to ``(outcome, origin_asn,
    hop_count)`` — exactly what :func:`_walk` returns as ``outcome``,
    ``origin_asn`` and ``len(hops)``, without building a hop list.
    Every AS forwards on its own state, so the plane is a functional
    graph: each non-terminal AS has one successor, and a walk's fate
    depends only on where it starts.  A query for an unknown AS walks
    until it meets a terminal (an origin, a ``_LOCAL`` holder or a
    ``_NONE`` dead end), an AS already in the table, or a repeat, then
    fills every AS on that chain in one backward pass (path
    compression).  Each AS's step function runs at most once.

    The table keeps each AS's *raw* distance ``r``: the hops to its
    terminal, or, for a walk that ends in a cycle, tail length plus
    cycle length (a cycle AS has ``r`` = the cycle length).  A
    predecessor's ``r`` is its successor's plus one in both cases.
    :func:`_walk` reports ``r + 1`` hops (its ``LOOP`` path repeats the
    first revisited AS), and its :data:`MAX_AS_HOPS` cut-off turns any
    walk with ``r >= MAX_AS_HOPS`` into ``LOOP`` with
    ``MAX_AS_HOPS + 1`` hops.  Both depend on the start AS, which is
    why the table keeps ``r`` and composes each start AS's answer from
    it.

    The step function must describe a data plane that does not change
    while the table is in use: one probing round's RIB, or a
    :class:`RibSnapshot`.
    """

    __slots__ = ("_step_of", "_origins", "_raw", "_answers")

    def __init__(
        self,
        step_of: Callable[[int], Tuple[int, Optional[int]]],
        origin_asns: Iterable[int],
    ) -> None:
        self._step_of = step_of
        self._origins = frozenset(origin_asns)
        #: asn -> (outcome, origin_asn, r) as described above.
        self._raw: Dict[int, Tuple[ForwardingOutcome, Optional[int], int]] = {}
        #: asn -> the composed ``(outcome, origin_asn, hop_count)``.
        self._answers: Dict[
            int, Tuple[ForwardingOutcome, Optional[int], int]
        ] = {}

    def __call__(
        self, start_asn: int
    ) -> Tuple[ForwardingOutcome, Optional[int], int]:
        answer = self._answers.get(start_asn)
        if answer is None:
            outcome, origin_asn, raw = self._fill(start_asn)
            if raw < MAX_AS_HOPS:
                answer = (outcome, origin_asn, raw + 1)
            else:
                answer = (ForwardingOutcome.LOOP, None, MAX_AS_HOPS + 1)
            self._answers[start_asn] = answer
        return answer

    def _fill(
        self, start_asn: int
    ) -> Tuple[ForwardingOutcome, Optional[int], int]:
        """Resolve *start_asn* and every AS its walk passes."""
        raw = self._raw
        origins = self._origins
        step_of = self._step_of
        chain: List[int] = []
        position: Dict[int, int] = {}
        current = start_asn
        while True:
            found = raw.get(current)
            if found is not None:
                break
            if current in origins:
                found = raw[current] = (
                    ForwardingOutcome.DELIVERED, current, 0
                )
                break
            kind, next_hop = step_of(current)
            if kind == _NONE:
                found = raw[current] = (ForwardingOutcome.NO_ROUTE, None, 0)
                break
            if kind == _LOCAL:
                found = raw[current] = (
                    ForwardingOutcome.DELIVERED, current, 0
                )
                break
            position[current] = len(chain)
            chain.append(current)
            entry = position.get(next_hop)
            if entry is not None:
                # The walk closed a cycle: every AS on it revisits
                # itself after one lap.
                cycle = chain[entry:]
                found = (ForwardingOutcome.LOOP, None, len(cycle))
                for asn in cycle:
                    raw[asn] = found
                del chain[entry:]
                break
            current = next_hop
        outcome, origin_asn, distance = found
        for asn in reversed(chain):
            distance += 1
            raw[asn] = (outcome, origin_asn, distance)
        return raw[start_asn]


@dataclass(frozen=True)
class RibSnapshot:
    """A frozen, picklable view of the data plane for one prefix.

    Captures just what a return-path walk needs — per-AS next hop,
    locally originated holders, and per-AS default routes — as plain
    int dictionaries, so a converged RIB can be shipped to worker
    processes without dragging the topology or router objects along.
    Walking a snapshot is bit-identical to walking the live RIB it was
    captured from (both reduce to the same :func:`_walk` core).
    """

    prefix: Prefix
    next_hop: Dict[int, int] = field(default_factory=dict)
    local: FrozenSet[int] = frozenset()
    default_via: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        topology: Topology,
        best_route_of: Callable[[int], object],
        prefix: Prefix,
    ) -> "RibSnapshot":
        """Snapshot every AS's forwarding state for *prefix*."""
        next_hop: Dict[int, int] = {}
        local = set()
        default_via: Dict[int, int] = {}
        for node in topology.ases():
            asn = node.asn
            route = best_route_of(asn)
            if route is None:
                if node.policy.default_route_via is not None:
                    default_via[asn] = node.policy.default_route_via
            elif route.learned_from is None:
                local.add(asn)
            else:
                next_hop[asn] = route.learned_from
        return cls(
            prefix=prefix,
            next_hop=next_hop,
            local=frozenset(local),
            default_via=default_via,
        )

    def _step_of(self, asn: int) -> Tuple[int, Optional[int]]:
        next_hop = self.next_hop.get(asn)
        if next_hop is not None:
            return _ROUTE, next_hop
        if asn in self.local:
            return _LOCAL, None
        default_via = self.default_via.get(asn)
        if default_via is not None:
            return _DEFAULT, default_via
        return _NONE, None

    def walk(self, start_asn: int, origin_asns: Set[int]) -> ReturnPath:
        """Walk the snapshot exactly as :func:`walk_return_path` walks
        the live RIB."""
        return _walk(self._step_of, start_asn, origin_asns)

    def catchment(self, origin_asns: Iterable[int]) -> Catchment:
        """A :class:`Catchment` over this snapshot."""
        return Catchment(self._step_of, origin_asns)


def engine_rib(engine, prefix: Prefix) -> Callable[[int], object]:
    """Adapter: best-route lookup over a PropagationEngine."""
    def lookup(asn: int):
        return engine.best_route(asn, prefix)
    return lookup


def fastpath_rib(result) -> Callable[[int], object]:
    """Adapter: best-route lookup over a FastpathResult."""
    def lookup(asn: int):
        return result.route_at(asn)
    return lookup
