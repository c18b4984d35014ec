"""The phase budget (repro.obs.budget): per-phase calls and seconds
read straight from the span histograms, its artifact round-trip, the
``repro profile`` / ``--profile-out`` CLI, and the program spans that
let it cover a whole reproduction.

The budget is execution metadata — wall timings — so nothing here
asserts byte-identity; that contract (and the budget's exclusion from
it) is exercised in tests/test_differential.py.
"""

import json
import sys
import time

import pytest

from repro import REEcosystemConfig, build_ecosystem
from repro.cli import main
from repro.core.report import reproduce_paper
from repro.experiment.parallel import ShardedRunner
from repro.obs.budget import (
    BUDGET_SCHEMA_VERSION,
    DEFAULT_TOP_N,
    export_budget,
    load_budget,
    phase_budget,
    render_budget,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import finished_roots, reset_trace, span


@pytest.fixture(autouse=True)
def _fresh_trace():
    reset_trace()
    yield
    reset_trace()


def _busy(loops=2_000):
    total = 0
    for index in range(loops):
        total += index * index
    return total


# ---------------------------------------------------------------------
# The budget core


class TestPhaseBudget:
    def test_budget_aggregates_span_histograms(self):
        with use_registry(MetricsRegistry()) as registry:
            with span("phase.alpha"):
                _busy()
            with span("phase.alpha"):
                _busy()
            with span("phase.beta"):
                time.sleep(0.01)
            registry.counter("not.a.span").inc()
            snapshot = registry.snapshot()
        payload = phase_budget(snapshot, wall_seconds=1.5)
        assert payload["schema"] == BUDGET_SCHEMA_VERSION
        assert payload["kind"] == "phase_budget"
        assert payload["wall_seconds"] == 1.5
        assert set(payload["phases"]) == {"phase.alpha", "phase.beta"}
        alpha = payload["phases"]["phase.alpha"]
        assert alpha == {
            "calls": 2,
            "seconds": snapshot["histograms"]["span.phase.alpha.seconds"][
                "sum"
            ],
        }
        assert payload["phases"]["phase.beta"]["seconds"] >= 0.01

    def test_nested_phases_both_recorded(self):
        """Phases nest, so inclusive seconds do not add up: each row's
        share is of the run's wall time, not of the phase total."""
        with use_registry(MetricsRegistry()) as registry:
            with span("phase.outer"):
                _busy()
                with span("phase.inner"):
                    time.sleep(0.02)
            payload = phase_budget(registry.snapshot(), wall_seconds=0.0)
        outer = payload["phases"]["phase.outer"]
        inner = payload["phases"]["phase.inner"]
        assert outer["calls"] == inner["calls"] == 1
        assert outer["seconds"] >= inner["seconds"] >= 0.02
        payload["wall_seconds"] = outer["seconds"]
        rows = {
            line.split()[0]: line.split()[-1]
            for line in render_budget(payload).splitlines()[3:]
        }
        assert rows["phase.outer"] == "100.0%"
        share = 100.0 * inner["seconds"] / outer["seconds"]
        assert rows["phase.inner"] == "%.1f%%" % share


@pytest.fixture(scope="module")
def small_ecosystem():
    return build_ecosystem(REEcosystemConfig(scale=0.05), seed=0)


class TestShardPhases:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_shard_phase_counted_once_per_round(
        self, small_ecosystem, workers
    ):
        """Inline shards record into the parent registry live and pool
        shards ship their histograms back; either way each shard phase
        counts exactly one call per probing round."""
        with use_registry(MetricsRegistry()) as registry:
            result = ShardedRunner(
                small_ecosystem, "surf", seed=0, workers=workers
            ).run()
            phases = phase_budget(registry.snapshot(), 0.0)["phases"]
        shard_calls = {
            name: data["calls"] for name, data in phases.items()
            if name.startswith("runner.shard.")
        }
        assert shard_calls
        assert set(shard_calls.values()) == {len(result.rounds)}


class TestProgramSpans:
    def test_reproduction_nests_under_layer_roots(self):
        """Every Figure 5 propagation sits under ``core.figure5``, so
        the bounded roots buffer keeps both campaign cell trees."""
        with use_registry(MetricsRegistry()):
            reproduce_paper(REEcosystemConfig(scale=0.04), seed=5)
        roots = finished_roots()
        names = [root.name for root in roots]
        assert names == [
            "topology.build", "seeds.select",
            "campaign.cell.surf/seed5/baseline",
            "campaign.cell.internet2/seed5/baseline",
            "core.classify", "core.classify",
            "core.figure5", "core.report",
        ]

        def walk(record, ancestors):
            yield record, ancestors
            for child in record.children:
                yield from walk(child, ancestors + (record.name,))

        propagations = [
            ancestors
            for root in roots
            for record, ancestors in walk(root, ())
            if record.name == "fastpath.propagate"
        ]
        assert propagations
        assert all(
            ancestors == ("core.figure5",) for ancestors in propagations
        )


# ---------------------------------------------------------------------
# Artifacts


class TestArtifacts:
    def test_export_and_load_round_trip(self, tmp_path):
        with use_registry(MetricsRegistry()) as registry:
            with span("phase.io"):
                _busy()
            path = str(tmp_path / "budget.json")
            payload = export_budget(path, 0.25)
        assert load_budget(path) == payload
        assert payload == phase_budget(registry.snapshot(), 0.25)

    def test_counter_mode_skips_pstats_twin(self, tmp_path):
        """The budget carries counters only: no binary pstats twin,
        and nothing is installed on the interpreter."""
        with use_registry(MetricsRegistry()):
            with span("phase.x"):
                pass
            export_budget(str(tmp_path / "budget.json"), 0.1)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "budget.json"
        ]
        assert sys.getprofile() is None

    def test_load_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_budget(str(tmp_path / "missing.json"))
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{nope")
        with pytest.raises(ValueError, match="not JSON"):
            load_budget(str(bad_json))
        wrong_kind = tmp_path / "kind.json"
        wrong_kind.write_text('{"kind": "trace"}')
        with pytest.raises(ValueError, match="not a phase-budget"):
            load_budget(str(wrong_kind))
        not_object = tmp_path / "list.json"
        not_object.write_text("[]")
        with pytest.raises(ValueError, match="not a phase-budget"):
            load_budget(str(not_object))
        legacy = tmp_path / "legacy.json"
        legacy.write_text('{"kind": "phase_profile", "schema": 1}')
        with pytest.raises(ValueError, match="schema-1 phase_profile"):
            load_budget(str(legacy))
        wrong_schema = tmp_path / "schema.json"
        wrong_schema.write_text('{"kind": "phase_budget", "schema": 999}')
        with pytest.raises(ValueError, match="schema"):
            load_budget(str(wrong_schema))
        for body in (
            {"phases": {}},
            {"wall_seconds": 1.0, "phases": []},
            {"wall_seconds": 1.0, "phases": {"p": {"calls": 1}}},
        ):
            malformed = tmp_path / "malformed.json"
            malformed.write_text(json.dumps(
                dict(body, kind="phase_budget", schema=2)
            ))
            with pytest.raises(ValueError, match="malformed"):
                load_budget(str(malformed))


class TestRender:
    def _payload(self, phases=3):
        return {
            "kind": "phase_budget",
            "schema": BUDGET_SCHEMA_VERSION,
            "wall_seconds": 10.0,
            "phases": {
                "phase.%d" % n: {"calls": n + 1, "seconds": float(phases - n)}
                for n in range(phases)
            },
        }

    def test_render_contains_tables_and_labels(self):
        text = render_budget(self._payload())
        assert text.splitlines()[0] == "phase budget: 10.000s wall"
        assert text.splitlines()[2].split() == [
            "phase", "calls", "seconds", "%wall",
        ]
        assert text.splitlines()[3].split() == [
            "phase.0", "1", "3.000000", "30.0%",
        ]

    def test_render_truncates_to_top(self):
        text = render_budget(self._payload(phases=5), top=2)
        assert "... 3 more phase(s)" in text
        assert "phase.1" in text and "phase.2" not in text

    def test_render_zero_wall(self):
        payload = self._payload(phases=1)
        payload["wall_seconds"] = 0.0
        assert render_budget(payload).splitlines()[-1].endswith("0.0%")


# ---------------------------------------------------------------------
# CLI


class TestProfileCli:
    def _artifact(self, tmp_path):
        path = str(tmp_path / "budget.json")
        with use_registry(MetricsRegistry()):
            for _ in range(4):
                with span("phase.cli"):
                    pass
            export_budget(path, 2.0)
        return path

    def test_renders_artifact(self, tmp_path, capsys):
        assert main(["profile", self._artifact(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "phase.cli" in out
        assert "phase budget" in out

    def test_top_flag(self, tmp_path, capsys):
        path = self._artifact(tmp_path)
        assert main(["profile", path, "--top", "1"]) == 0
        assert "phase.cli" in capsys.readouterr().out

    def test_top_validated(self, tmp_path, capsys):
        assert main(["profile", self._artifact(tmp_path),
                     "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err

    def test_missing_artifact_exit_2(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nope.json")]) == 2
        assert "no phase budget" in capsys.readouterr().err

    def test_invalid_artifact_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "other"}')
        assert main(["profile", str(bad)]) == 2
        assert "phase-budget" in capsys.readouterr().err

    def test_schema1_profile_rejected(self, tmp_path, capsys):
        legacy = tmp_path / "profile.json"
        legacy.write_text(json.dumps({
            "kind": "phase_profile", "schema": 1, "cprofile": True,
            "labels": {}, "phases": {},
        }))
        assert main(["profile", str(legacy)]) == 2
        assert "schema-1 phase_profile" in capsys.readouterr().err


def _reproduce_budget(tmp_path, workers):
    metrics = tmp_path / ("metrics-%d.json" % workers)
    budget = tmp_path / ("budget-%d.json" % workers)
    with use_registry(MetricsRegistry()):
        assert main([
            "reproduce", "--scale", "0.04", "--seed", "0",
            "--workers", str(workers),
            "--metrics-out", str(metrics), "--profile-out", str(budget),
        ]) == 0
    return (
        json.loads(metrics.read_text()), load_budget(str(budget)),
    )


class TestReproduceProfileOptions:
    def test_reproduce_writes_both_artifacts(self, tmp_path, capsys):
        frontier = tmp_path / "frontier.jsonl"
        profile = tmp_path / "profile.json"
        with use_registry(MetricsRegistry()):
            assert main([
                "reproduce", "--scale", "0.04", "--seed", "0",
                "--frontier-out", str(frontier),
                "--profile-out", str(profile),
            ]) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.out and "frontier events" in captured.out
        assert "phase budget" in captured.err
        assert "phase budget" not in captured.out
        events = [
            json.loads(line)
            for line in frontier.read_text().splitlines()
        ]
        assert events
        assert {"engine_run", "round_frontier"} <= {
            e["kind"] for e in events
        }
        payload = load_budget(str(profile))
        assert {"topology.build", "core.figure5", "core.report"} <= set(
            payload["phases"]
        )
        # The root phases do not overlap, so they fit in wall time.
        roots = sum(
            data["seconds"] for name, data in payload["phases"].items()
            if name.startswith(
                ("topology.", "seeds.", "campaign.cell.", "core.")
            )
        )
        assert 0 < roots <= payload["wall_seconds"]
        assert main(["profile", str(profile)]) == 0
        # The run-scoped frontier trace was torn down on exit.
        from repro.obs.frontier import active_frontier
        assert active_frontier() is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_equals_span_histograms(self, tmp_path, workers):
        snapshot, payload = _reproduce_budget(tmp_path, workers)
        spans = {
            name[len("span."):-len(".seconds")]: data
            for name, data in snapshot["histograms"].items()
            if name.startswith("span.")
        }
        assert set(payload["phases"]) == set(spans)
        for name, data in spans.items():
            phase = payload["phases"][name]
            assert phase["calls"] == data["count"]
            assert phase["seconds"] == pytest.approx(data["sum"], rel=1e-9)
        # At two workers the cells run in a pool and ship their
        # histograms back; either way each cell counts once.
        for experiment in ("surf", "internet2"):
            cell = "campaign.cell.%s/seed0/baseline" % experiment
            assert payload["phases"][cell]["calls"] == 1

    def test_frontier_capacity_validated(self, tmp_path, capsys):
        assert main([
            "reproduce", "--scale", "0.04",
            "--frontier-out", str(tmp_path / "f.jsonl"),
            "--frontier-capacity", "0",
        ]) == 2
        assert "--frontier-capacity" in capsys.readouterr().err

    def test_default_top_n_used(self):
        payload = TestRender()._payload(phases=DEFAULT_TOP_N + 1)
        assert render_budget(payload).splitlines()[-1] == \
            "... 1 more phase(s)"
