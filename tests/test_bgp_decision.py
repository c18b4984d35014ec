"""Tests for the BGP decision process."""

import pytest
from hypothesis import given, strategies as st

from repro.bgp.attributes import ASPath, Route
from repro.bgp.decision import (
    DecisionProcess,
    Step,
    explain_choice,
)
from repro.errors import PolicyError
from repro.netutil import Prefix

PFX = Prefix.parse("192.0.2.0/24")


def route(neighbor, path_len=2, localpref=100, med=0, age=0.0, tag=""):
    return Route(
        prefix=PFX,
        path=ASPath(tuple(range(1000, 1000 + path_len - 1)) + (9999,)),
        learned_from=neighbor,
        localpref=localpref,
        med=med,
        installed_at=age,
        tag=tag,
    )


class TestStandardProcess:
    def test_empty_returns_none(self):
        assert DecisionProcess.standard().best([]) is None

    def test_single_route_wins(self):
        r = route(1)
        assert DecisionProcess.standard().best([r]) is r

    def test_localpref_dominates_path_length(self):
        long_but_preferred = route(1, path_len=6, localpref=200)
        short = route(2, path_len=2, localpref=100)
        best = DecisionProcess.standard().best([long_but_preferred, short])
        assert best is long_but_preferred

    def test_path_length_breaks_localpref_tie(self):
        a = route(1, path_len=4)
        b = route(2, path_len=2)
        assert DecisionProcess.standard().best([a, b]) is b

    def test_med_breaks_path_tie(self):
        a = route(1, med=10)
        b = route(2, med=5)
        assert DecisionProcess.standard().best([a, b]) is b

    def test_oldest_route_breaks_med_tie(self):
        older = route(1, age=10.0)
        newer = route(2, age=20.0)
        assert DecisionProcess.standard().best([older, newer]) is older

    def test_neighbor_asn_final_tiebreak(self):
        a = route(5, age=1.0)
        b = route(3, age=1.0)
        assert DecisionProcess.standard().best([a, b]) is b

    def test_unknown_neighbor_loses_final_tiebreak(self):
        """A route with no ``learned_from`` maps to +inf on the
        neighbor-ASN step: an *unknown* neighbor must lose the final
        tie-break, not silently beat every known one.  (Locally
        originated routes never reach this step in practice — their
        localpref wins step one.)"""
        unknown = Route(PFX, ASPath((64500,)), None, 100)
        known = route(1, path_len=1)
        best = DecisionProcess.standard().best([unknown, known])
        assert best is known

    def test_duplicate_survivors_raise(self):
        a = route(1)
        b = route(1, tag="x")  # same neighbor, distinct route
        with pytest.raises(PolicyError):
            DecisionProcess.standard().best([a, b])


class TestVariants:
    def test_path_length_insensitive_skips_length(self):
        process = DecisionProcess.standard(path_length_sensitive=False)
        assert not process.path_length_sensitive
        longer_but_older = route(1, path_len=8, age=0.0)
        shorter_newer = route(2, path_len=2, age=5.0)
        assert process.best([longer_but_older, shorter_newer]) is longer_but_older

    def test_no_age_tiebreak_falls_to_neighbor(self):
        process = DecisionProcess.standard(age_tiebreak=False)
        a = route(7, age=0.0)
        b = route(2, age=99.0)
        assert process.best([a, b]) is b

    def test_standard_has_expected_steps(self):
        steps = DecisionProcess.standard().steps
        assert steps[0] is Step.HIGHEST_LOCALPREF
        assert steps[-1] is Step.LOWEST_NEIGHBOR_ASN
        assert Step.SHORTEST_AS_PATH in steps

    def test_insensitive_process_lacks_path_step(self):
        steps = DecisionProcess.standard(path_length_sensitive=False).steps
        assert Step.SHORTEST_AS_PATH not in steps


class TestRanksEqual:
    def test_equal_routes_tie(self):
        a = route(1)
        b = route(2)
        assert DecisionProcess.standard().ranks_equal(a, b)

    def test_differing_localpref_not_equal(self):
        a = route(1, localpref=200)
        b = route(2)
        assert not DecisionProcess.standard().ranks_equal(a, b)


class TestExplain:
    def test_explains_empty(self):
        assert explain_choice(DecisionProcess.standard(), []) == [
            "no candidate routes"
        ]

    def test_explains_narrowing(self):
        lines = explain_choice(
            DecisionProcess.standard(),
            [route(1, path_len=4), route(2, path_len=2)],
        )
        assert any("shortest-as-path" in line for line in lines)


# Property tests: the decision process is a deterministic total choice.

neighbor_ids = st.integers(min_value=1, max_value=50)
route_strategy = st.builds(
    route,
    neighbor=neighbor_ids,
    path_len=st.integers(min_value=1, max_value=8),
    localpref=st.sampled_from([50, 100, 150, 200]),
    med=st.integers(min_value=0, max_value=3),
    age=st.floats(min_value=0, max_value=100, allow_nan=False),
)


def _distinct_neighbors(routes):
    seen = {}
    for r in routes:
        seen.setdefault(r.learned_from, r)
    return list(seen.values())


@given(st.lists(route_strategy, min_size=1, max_size=12))
def test_best_is_deterministic_and_order_independent(routes):
    routes = _distinct_neighbors(routes)
    process = DecisionProcess.standard()
    best = process.best(routes)
    assert best is process.best(list(reversed(routes)))
    assert best in routes


@given(st.lists(route_strategy, min_size=1, max_size=12))
def test_best_is_maximal_on_localpref(routes):
    routes = _distinct_neighbors(routes)
    best = DecisionProcess.standard().best(routes)
    assert best.localpref == max(r.localpref for r in routes)


@given(st.lists(route_strategy, min_size=2, max_size=12))
def test_removing_a_loser_preserves_best(routes):
    routes = _distinct_neighbors(routes)
    if len(routes) < 2:
        return
    process = DecisionProcess.standard()
    best = process.best(routes)
    losers = [r for r in routes if r is not best]
    reduced = [r for r in routes if r is not losers[0]]
    assert process.best(reduced) is best


# Fastpath offers ``(learned_from, path_asns, localpref, tag)`` from
# distinct neighbors; the routes they stand for carry med=0 and
# installed_at=0.0, as every fastpath route does.
offer_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=1, max_value=20),
                 min_size=1, max_size=8).map(tuple),
        st.sampled_from([50, 100, 150, 200]),
        st.sampled_from(["", "re", "commodity"]),
    ),
    min_size=1,
    max_size=12,
).flatmap(
    lambda bodies: st.lists(
        st.integers(min_value=1, max_value=60),
        min_size=len(bodies), max_size=len(bodies), unique=True,
    ).map(lambda senders: [
        (sender,) + body for sender, body in zip(senders, bodies)
    ])
)

standard_processes = st.sampled_from([
    DecisionProcess.standard(path_length_sensitive=sensitive,
                             age_tiebreak=age)
    for sensitive in (True, False)
    for age in (True, False)
])

# Any steps in any order, repeats allowed, with the neighbor step
# inserted somewhere.
shuffled_processes = st.tuples(
    st.lists(st.sampled_from(list(Step)), max_size=6),
    st.integers(min_value=0, max_value=6),
).map(lambda drawn: DecisionProcess(tuple(
    drawn[0][:drawn[1]] + [Step.LOWEST_NEIGHBOR_ASN] + drawn[0][drawn[1]:]
)))


def _offer_route(offer):
    learned_from, asns, localpref, tag = offer
    return Route(prefix=PFX, path=ASPath(asns), learned_from=learned_from,
                 localpref=localpref, tag=tag)


@given(offer_strategy, st.one_of(standard_processes, shuffled_processes))
def test_offer_key_minimum_is_best(offers, process):
    key = process.offer_key()
    best = process.best([_offer_route(offer) for offer in offers])
    assert min(offers, key=key)[0] == best.learned_from
    # The incumbent-vs-challenger rule the fastpath relies on: folding
    # the offers one at a time keeps the same winner.
    incumbent = offers[0]
    for challenger in offers[1:]:
        if key(challenger) < key(incumbent):
            incumbent = challenger
    assert incumbent[0] == best.learned_from


@given(st.lists(st.sampled_from(
    [step for step in Step if step is not Step.LOWEST_NEIGHBOR_ASN]
), max_size=6))
def test_offer_key_refused_without_neighbor_step(steps):
    process = DecisionProcess(tuple(steps))
    with pytest.raises(PolicyError):
        process.offer_key()


def test_offer_key_refused_where_best_raises():
    process = DecisionProcess((Step.HIGHEST_LOCALPREF,))
    tied = [(1, (1, 9), 100, ""), (2, (2, 9), 100, "")]
    with pytest.raises(PolicyError):
        process.best([_offer_route(offer) for offer in tied])
    with pytest.raises(PolicyError):
        process.offer_key()
