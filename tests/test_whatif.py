"""The what-if facade: warm sessions, delta parsing, snapshot-cached
queries, and the ``repro whatif`` CLI surface.

The heavyweight identity checks (warm state vs cold replay) live in
``test_differential.py::TestDeltaConvergence``; this module covers the
session/CLI semantics around them.
"""

import pytest

from repro.api import ExperimentSpec, Prediction, WhatIfSession
from repro.bgp.engine import (
    AnnounceDelta,
    LinkFlap,
    LocalprefEdit,
    PrependChange,
    WithdrawDelta,
)
from repro.cli import main
from repro.errors import ExperimentError
from repro.netutil import Prefix
from repro.obs.budget import load_budget
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.provenance import signal_from_kinds
from repro.probing.forwarding import (
    ForwardingOutcome,
    RibSnapshot,
    engine_rib,
)
from repro.whatif import parse_delta


@pytest.fixture(scope="module")
def session():
    return WhatIfSession(ExperimentSpec(seed=0, scale=0.04))


class TestParseDelta:
    def test_prepend(self, session):
        delta = parse_delta("prepend:re=3", session)
        assert isinstance(delta, PrependChange)
        assert delta.origin_asn == session.re_origin
        assert delta.prepends == 3

    def test_announce_with_and_without_amount(self, session):
        delta = parse_delta("announce:commodity=2", session)
        assert isinstance(delta, AnnounceDelta)
        assert delta.origin_asn == session.commodity_origin
        assert delta.default_prepends == 2
        assert delta.tag == "commodity"
        bare = parse_delta("announce:re", session)
        assert bare.default_prepends == 0
        assert bare.tag == "re"

    def test_withdraw(self, session):
        delta = parse_delta("withdraw:re", session)
        assert isinstance(delta, WithdrawDelta)
        assert delta.origin_asn == session.re_origin

    def test_localpref(self, session):
        delta = parse_delta("localpref:1125:1103=50", session)
        assert delta == LocalprefEdit(1125, 1103, 50)

    @pytest.mark.parametrize("kind,action", [
        ("flap", "flap"), ("down", "down"), ("up", "up"),
    ])
    def test_link_actions(self, session, kind, action):
        delta = parse_delta("%s:1125-1103" % kind, session)
        assert delta == LinkFlap(1125, 1103, action=action)

    @pytest.mark.parametrize("bad", [
        "prepend:re=lots",        # non-integer amount
        "prepend:left=2",         # unknown side
        "flap:1125",              # missing -b
        "teleport:re",            # unknown kind
        "localpref:1125=50",      # missing neighbor
    ])
    def test_bad_specs_raise(self, session, bad):
        with pytest.raises(ExperimentError):
            parse_delta(bad, session)


class TestConfigStepping:
    def test_unknown_config_rejected(self, session):
        with pytest.raises(ExperimentError, match="unknown config"):
            session.advance_to_config("9-9")

    def test_history_is_forward_only(self):
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        session.advance_to_config("2-0")
        with pytest.raises(ExperimentError, match="cannot step backwards"):
            session.advance_to_config("3-0")

    def test_earlier_configs_stay_queryable_from_cache(self):
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        prefix = sorted(
            str(plan.prefix)
            for plan in session.ecosystem.studied_prefixes()
        )[0]
        first = session.predict(prefix)
        assert first.config == "4-0"
        session.advance_to_config("3-0")
        # The snapshot taken at 4-0 still answers for that label.
        assert session.predict(prefix, config="4-0") == first
        # Free-form deltas invalidate cached configs: the snapshots no
        # longer describe any schedule state, and rebuilding one would
        # mean stepping backwards.
        session.apply(PrependChange(
            session.re_origin, session.ecosystem.measurement_prefix, 1,
        ))
        with pytest.raises(ExperimentError, match="cannot step backwards"):
            session.predict(prefix, config="4-0")

    def test_unknown_prefix_rejected(self, session):
        with pytest.raises(ExperimentError, match="not in the study"):
            session.predict("203.0.113.0/24")


def _walked_predictions(session, prefixes, config):
    """What :meth:`WhatIfSession.predict` must answer now, from
    :meth:`RibSnapshot.walk` over a fresh capture of the warm engine."""
    ecosystem = session.ecosystem
    prefix = ecosystem.measurement_prefix
    snapshot = RibSnapshot.capture(
        ecosystem.topology, engine_rib(session.engine, prefix), prefix,
    )
    origins = set(session.host.origin_asns())
    predictions = []
    for text in prefixes:
        deliveries, kinds = [], []
        plan = ecosystem.prefix_plans[Prefix.parse(text)]
        for system in plan.alive_systems:
            path = snapshot.walk(system.attached_asn, origins)
            origin = (
                path.origin_asn
                if path.outcome is ForwardingOutcome.DELIVERED else None
            )
            deliveries.append((system.address, origin))
            if origin is not None:
                kinds.append(session.host.interface_for_origin(origin).kind)
        predictions.append(Prediction(
            prefix=text, config=config, signal=signal_from_kinds(kinds),
            deliveries=tuple(deliveries),
        ))
    return predictions


class TestCatchmentPredictions:
    def test_predict_equals_snapshot_walks(self):
        """Catchment-backed predictions equal hop-by-hop snapshot walks
        at two configs, and again after a delta: a catchment built
        before ``apply()`` is never served after it."""
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        prefixes = sorted(
            str(plan.prefix)
            for plan in session.ecosystem.studied_prefixes()
        )
        first = session.current_config
        at_first = _walked_predictions(session, prefixes, first)
        assert session.predict_batch(prefixes) == at_first
        second = session.schedule.configs[1]
        session.advance_to_config(second)
        at_second = _walked_predictions(session, prefixes, second)
        assert session.predict_batch(prefixes, second) == at_second
        assert session.predict_batch(prefixes, first) == at_first
        neighbor = min(
            session.ecosystem.topology.neighbors(session.re_origin)
        )
        session.apply(LinkFlap(session.re_origin, neighbor, "down"))
        after = _walked_predictions(session, prefixes, second)
        assert after != at_second   # the delta moved some prediction
        assert session.predict_batch(prefixes) == after


class TestDeterminism:
    def test_predictions_are_a_pure_function_of_the_spec(self):
        spec = ExperimentSpec(seed=0, scale=0.04)
        a, b = WhatIfSession(spec), WhatIfSession(spec)
        prefixes = sorted(
            str(plan.prefix) for plan in a.ecosystem.studied_prefixes()
        )[:16]
        assert a.predict_batch(prefixes) == b.predict_batch(prefixes)
        assert a.rib_state() == b.rib_state()

    def test_prediction_shape(self, session):
        prefix = sorted(
            str(plan.prefix)
            for plan in session.ecosystem.studied_prefixes()
        )[0]
        prediction = session.predict(prefix)
        assert isinstance(prediction, Prediction)
        assert prediction.prefix == prefix
        assert prediction.signal in ("re", "commodity", "both", "none")
        assert all(
            isinstance(address, int)
            for address, _ in prediction.deliveries
        )


class TestWhatifCli:
    def test_exit_zero_with_deltas(self, capsys):
        code = main([
            "whatif", "--scale", "0.04", "--seed", "0",
            "--delta", "prepend:re=2", "--delta", "withdraw:re",
            "--limit", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline @" in out
        assert "applied prepend:re=2" in out
        assert "applied withdraw:re" in out
        assert "after-deltas @" in out

    def test_profile_out_writes_budget(self, tmp_path, capsys):
        """``whatif`` takes ``--profile-out`` like the other run
        commands; the budget goes to a file and a stderr note, so
        stdout is unchanged."""
        argv = ["whatif", "--scale", "0.04", "--seed", "0",
                "--delta", "prepend:re=2", "--limit", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        budget = tmp_path / "budget.json"
        with use_registry(MetricsRegistry()):
            assert main(argv + ["--profile-out", str(budget)]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "phase budget" in captured.err
        payload = load_budget(str(budget))
        assert payload["phases"]["topology.build"]["calls"] == 1
        assert payload["phases"]["engine.run_to_fixpoint"]["calls"] >= 1
        assert payload["wall_seconds"] > 0

    def test_provenance_out_rejected_before_any_file(self, tmp_path,
                                                     capsys):
        """``whatif`` records no provenance, so ``--provenance-out`` is
        refused up front and leaves no output file behind."""
        provenance = tmp_path / "p.jsonl"
        metrics = tmp_path / "m.json"
        code = main([
            "whatif", "--scale", "0.04", "--seed", "0", "--limit", "0",
            "--provenance-out", str(provenance),
            "--metrics-out", str(metrics),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "--provenance-out" in captured.err
        assert captured.out == ""
        assert not provenance.exists()
        assert not metrics.exists()

    def test_exit_two_on_bad_delta(self, capsys):
        code = main([
            "whatif", "--scale", "0.04", "--seed", "0",
            "--delta", "teleport:re",
        ])
        assert code == 2
        assert "teleport" in capsys.readouterr().err
