"""Tests of the ``repro.obs`` observability layer.

The tracer (span nesting, parent links, clock injection, the
``REPRO_TRACE`` knob, worker-span ingestion and JSONL export), the
metrics registry, the ``tools/repro_trace.py`` report functions, and
the end-to-end sweep integration: a traced sweep's
diagnostics carry the new schema keys, and a crash-injected sweep's
exported trace reconstructs the retry timeline with driver and worker
spans in one correctly-parented tree.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.api import ExecutionPolicy, RunOptions, SweepCache, SweepSpec
from repro.battery.parameters import KiBaMParameters
from repro.engine.diagnostics import validate_diagnostics
from repro.engine.faults import override_faults
from repro.engine.sweep import run_sweep
from tools.repro_trace import load_spans, phase_breakdown, render_report, sweep_timeline

TIMES = np.linspace(10.0, 400.0, 8)

SPEC = SweepSpec(
    workloads=["simple"],
    batteries=[KiBaMParameters(capacity=60.0 + 20.0 * i, c=0.625, k=1e-3) for i in range(3)],
    times=TIMES,
    deltas=(10.0,),
    methods=["mrm-uniformization"],
)

FAST = ExecutionPolicy(backoff_base=0.0)


# ----------------------------------------------------------------------
# tracer core
# ----------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_and_carry_parent_links(self) -> None:
        tracer = obs.Tracer(mode="full")
        with tracer.span("outer") as outer_id:
            with tracer.span("inner", index=3) as inner_id:
                pass
        inner, outer = tracer.spans()
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.span_id == inner_id and outer.span_id == outer_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.attrs == {"index": 3}

    def test_injected_clock_times_the_spans(self) -> None:
        ticks = iter([10.0, 11.5])
        tracer = obs.Tracer(mode="summary", clock=lambda: next(ticks))
        with tracer.span("timed"):
            pass
        (timed,) = tracer.spans()
        assert (timed.start, timed.end) == (10.0, 11.5)
        assert timed.duration == pytest.approx(1.5)

    def test_span_ids_are_unique_across_tracers(self) -> None:
        first, second = obs.Tracer(), obs.Tracer()
        with first.span("a"), second.span("b"):
            pass
        ids = {item.span_id for item in first.spans() + second.spans()}
        assert len(ids) == 2

    def test_off_mode_tracer_is_rejected(self) -> None:
        with pytest.raises(ValueError, match="off"):
            obs.Tracer(mode="off")
        with pytest.raises(ValueError):
            obs.Tracer(mode="verbose")

    def test_record_registers_externally_timed_spans(self) -> None:
        tracer = obs.Tracer()
        span_id = tracer.record("attempt", start=5.0, end=7.0, task_id=2)
        (attempt,) = tracer.spans()
        assert attempt.span_id == span_id
        assert (attempt.start, attempt.end) == (5.0, 7.0)
        assert attempt.attrs == {"task_id": 2}

    def test_ingest_reparents_roots_and_rebases_times(self) -> None:
        worker = obs.Tracer(mode="full")
        with worker.span("chunk_solve"):
            with worker.span("group_solve"):
                pass
        records = [item.as_record() for item in worker.spans()]
        earliest = min(item.start for item in worker.spans())

        driver = obs.Tracer(mode="full")
        attempt = driver.record("chunk_attempt", start=100.0, end=104.0)
        adopted = driver.ingest(records, parent_id=attempt, align_start=100.0)
        assert adopted == 2
        by_name = {item.name: item for item in driver.spans()}
        # The worker's root is re-parented, internal links are kept.
        assert by_name["chunk_solve"].parent_id == attempt
        assert by_name["group_solve"].parent_id == by_name["chunk_solve"].span_id
        # Times are re-based onto the driver timeline.
        assert min(item.start for item in driver.spans()) == pytest.approx(100.0)
        original = {item["name"]: item for item in records}
        assert by_name["chunk_solve"].start == pytest.approx(
            original["chunk_solve"]["start"] - earliest + 100.0
        )

    def test_export_jsonl_roundtrips_through_span_from_record(self, tmp_path) -> None:
        tracer = obs.Tracer()
        with tracer.span("a", label="x"):
            pass
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 1
        (record,) = [json.loads(line) for line in path.read_text().splitlines()]
        rebuilt = obs.span_from_record(record)
        assert rebuilt == tracer.spans()[0]


# ----------------------------------------------------------------------
# the REPRO_TRACE knob
# ----------------------------------------------------------------------


class TestTraceKnob:
    def test_unset_environment_means_off(self, monkeypatch) -> None:
        monkeypatch.delenv(obs.ENV_VAR, raising=False)
        assert obs.current_tracer() is None
        assert obs.trace_mode() == "off"

    def test_environment_enables_summary_and_full(self, monkeypatch) -> None:
        for mode in ("summary", "full"):
            monkeypatch.setenv(obs.ENV_VAR, mode)
            tracer = obs.current_tracer()
            assert tracer is not None and tracer.mode == mode
            assert obs.trace_mode() == mode

    def test_invalid_environment_value_raises(self, monkeypatch) -> None:
        monkeypatch.setenv(obs.ENV_VAR, "loud")
        with pytest.raises(ValueError, match="loud"):
            obs.current_tracer()

    def test_override_wins_over_environment(self, monkeypatch) -> None:
        monkeypatch.setenv(obs.ENV_VAR, "full")
        with obs.override_trace("summary") as tracer:
            assert obs.current_tracer() is tracer
            assert tracer is not None and tracer.mode == "summary"
        with obs.override_trace("off") as tracer:
            assert tracer is None
            assert obs.current_tracer() is None
        assert obs.current_tracer() is not None  # environment restored

    def test_detail_spans_only_record_in_full_mode(self) -> None:
        with obs.override_trace("summary") as tracer:
            with obs.span("phase"):
                with obs.detail_span("detail"):
                    pass
        assert tracer is not None
        assert [item.name for item in tracer.spans()] == ["phase"]
        with obs.override_trace("full") as tracer:
            with obs.span("phase"):
                with obs.detail_span("detail"):
                    pass
        assert tracer is not None
        assert [item.name for item in tracer.spans()] == ["detail", "phase"]

    def test_helpers_are_noops_when_off(self, monkeypatch) -> None:
        monkeypatch.delenv(obs.ENV_VAR, raising=False)
        with obs.span("ignored"):
            pass
        assert obs.record_span("ignored", start=0.0, end=1.0) is None
        assert obs.ingest_spans([], parent_id=None) == 0

    def test_override_scope_starts_without_a_parent(self) -> None:
        # The in-process "worker" of a serial sweep overrides the trace
        # inside the driver's sweep span; its spans must still be roots
        # so re-parenting under the chunk attempt can adopt them.
        with obs.override_trace("full") as driver:
            with obs.span("sweep"):
                with obs.override_trace("full") as worker:
                    with obs.span("chunk_solve"):
                        pass
        assert worker is not None and driver is not None
        (chunk_solve,) = worker.spans()
        assert chunk_solve.parent_id is None


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counters_gauges_histograms_snapshot(self) -> None:
        registry = obs.MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        registry.gauge("depth").set(4.0)
        registry.histogram("latency").observe(0.002)
        registry.histogram("latency").observe(40.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits": 3}
        assert snapshot["gauges"] == {"depth": 4.0}
        histogram = snapshot["histograms"]["latency"]
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(40.002)
        assert histogram["min"] == pytest.approx(0.002)
        assert histogram["max"] == pytest.approx(40.0)
        assert sum(histogram["buckets"].values()) == 2

    def test_counter_rejects_negative_increments(self) -> None:
        registry = obs.MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("hits").inc(-1)

    def test_hot_path_helpers_need_an_installed_registry(self) -> None:
        assert obs.metrics_registry() is None
        obs.count("ignored")
        obs.observe("ignored", 1.0)
        obs.set_gauge("ignored", 1.0)
        with obs.override_metrics() as registry:
            obs.count("hits", 2)
            obs.observe("latency", 0.5)
            obs.set_gauge("depth", 3.0)
            assert obs.metrics_registry() is registry
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits": 2}
        assert snapshot["gauges"] == {"depth": 3.0}
        assert snapshot["histograms"]["latency"]["count"] == 1
        assert obs.metrics_registry() is None

    def test_render_lists_every_metric(self) -> None:
        registry = obs.MetricsRegistry()
        registry.counter("hits").inc()
        registry.histogram("latency").observe(1.0)
        text = registry.render()
        assert text.startswith("-- obs metrics --")
        assert "hits" in text and "latency" in text


# ----------------------------------------------------------------------
# sweep integration
# ----------------------------------------------------------------------


class TestSweepIntegration:
    def test_traced_sweep_diagnostics_carry_obs_keys(self) -> None:
        with obs.override_trace("full"), obs.override_metrics() as registry:
            result = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST))
        validate_diagnostics(result.diagnostics)
        assert result.diagnostics["trace_mode"] == "full"
        assert result.diagnostics["n_spans"] > 0
        metrics = result.diagnostics["metrics"]
        assert metrics == registry.snapshot()
        assert metrics["counters"]["solves.mrm-uniformization"] == 3
        assert "solve_seconds.mrm-uniformization" in metrics["histograms"]

    def test_untraced_sweep_reports_off_mode(self, monkeypatch) -> None:
        monkeypatch.delenv(obs.ENV_VAR, raising=False)
        result = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST))
        validate_diagnostics(result.diagnostics)
        assert result.diagnostics["trace_mode"] == "off"
        assert "n_spans" not in result.diagnostics
        assert "metrics" not in result.diagnostics

    def test_crashed_sweep_trace_reconstructs_the_retry_timeline(self, tmp_path) -> None:
        cache = SweepCache(tmp_path / "cache")
        with obs.override_trace("full") as tracer:
            with override_faults("crash:max_attempt=1:match=C=80"):
                result = run_sweep(SPEC, options=RunOptions(max_workers=1, cache=cache, execution=ExecutionPolicy(backoff_base=0.001)))
            assert tracer is not None
            path = tmp_path / "trace.jsonl"
            tracer.export_jsonl(path)
        assert result.diagnostics["n_retries"] >= 1

        spans = load_spans(path)
        by_id = {item["span_id"]: item for item in spans}
        for item in spans:
            assert item["parent_id"] is None or item["parent_id"] in by_id
        for item in spans:
            if item["name"] == "chunk_solve":
                assert by_id[item["parent_id"]]["name"] == "chunk_attempt"
        assert sum(1 for item in spans if item["name"] == "checkpoint_write") == 3

        timeline = sweep_timeline(spans)
        (events,) = timeline.values()  # one chunk, retried under fresh ids
        statuses = [
            (event["kind"], event["status"], event["attempt"]) for event in events
        ]
        assert statuses[0] == ("chunk_attempt", "failed", 0)
        assert ("backoff", None, 1) in statuses
        assert statuses[-1][0] == "chunk_attempt" and statuses[-1][1] == "ok"
        final = events[-1]
        assert any(child["name"] == "chunk_solve" for child in final["children"])

        report = render_report(spans)
        assert "phase breakdown" in report and "sweep timeline" in report
        assert "failed" in report and "backoff" in report
        names = {entry["name"] for entry in phase_breakdown(spans)}
        assert {"sweep", "chunk_attempt", "chunk_solve", "checkpoint_write"} <= names

    def test_progress_eta_is_deterministic_under_a_fake_clock(self) -> None:
        # Satellite of the obs layer: the sweep's elapsed/ETA numbers read
        # the injectable obs clock, so a frozen clock yields frozen times.
        events = []
        with obs.override_clock(lambda: 1000.0):
            run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST, progress=events.append))
        assert events, "progress events must be emitted"
        assert all(event.elapsed_seconds == 0.0 for event in events)
        assert events[-1].done == events[-1].total
        assert events[-1].eta_seconds == 0.0
        mid = [event for event in events if 0 < event.done < event.total]
        for event in mid:
            assert event.eta_seconds == 0.0  # 0 elapsed => 0 projected
