"""Tests for the observability layer (repro.obs)."""

import json
import pathlib

import numpy as np
import pytest

from repro import obs
from repro.obs.report import render_report, runtime_summary, summarize_trace
from repro.obs.trace import NOOP_INSTRUMENT, NOOP_SPAN, JsonlSink, Tracer


class TestNoopDefault:
    def test_default_tracer_is_disabled(self):
        assert not obs.is_enabled()
        assert isinstance(obs.get_tracer(), obs.NullTracer)

    def test_noop_singletons_are_shared(self):
        tracer = obs.NullTracer()
        assert tracer.span("x") is NOOP_SPAN
        assert tracer.counter("c") is NOOP_INSTRUMENT
        assert tracer.gauge("g") is NOOP_INSTRUMENT
        assert tracer.histogram("h") is NOOP_INSTRUMENT

    def test_noop_accepts_everything(self):
        with obs.span("anything", k=1) as sp:
            sp.set(more=2)
        obs.event("evt", a=1)
        obs.counter("c").inc(5)
        obs.gauge("g").set(1.0)
        obs.histogram("h").observe(3.0)

    def test_noop_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with obs.span("x"):
                raise RuntimeError("boom")


class TestSpans:
    def test_nesting_records_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = list(tracer.ring)
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] == 0
        assert inner["dur"] <= outer["dur"]

    def test_attrs_and_set_are_recorded(self):
        tracer = Tracer()
        with tracer.span("s", static=1) as sp:
            sp.set(dynamic=2.5, label="x")
        (record,) = tracer.ring
        assert record["attrs"] == {"static": 1, "dynamic": 2.5, "label": "x"}

    def test_numpy_attrs_are_coerced(self):
        tracer = Tracer()
        with tracer.span("s", n=np.int64(3), x=np.float64(0.5)):
            pass
        (record,) = tracer.ring
        assert record["attrs"] == {"n": 3, "x": 0.5}
        json.dumps(record)

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("nope")
        (record,) = tracer.ring
        assert record["error"] == "ValueError: nope"

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.event("tick", i=1)
        event, span = list(tracer.ring)
        assert event["type"] == "event"
        assert event["parent"] == span["id"]
        assert event["attrs"] == {"i": 1}

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(ring_size=8)
        for i in range(50):
            tracer.event("e", i=i)
        assert len(tracer.ring) == 8
        assert [r["attrs"]["i"] for r in tracer.ring] == list(range(42, 50))


class TestInstruments:
    def test_counter_gauge_histogram_aggregate(self):
        tracer = Tracer()
        tracer.counter("c").inc()
        tracer.counter("c").inc(4)
        tracer.gauge("g").set(1.0)
        tracer.gauge("g").set(2.0)
        for v in (1.0, 3.0, 2.0):
            tracer.histogram("h").observe(v)
        metrics = tracer.metrics()
        assert metrics["c"] == {"kind": "counter", "value": 5.0}
        assert metrics["g"] == {"kind": "gauge", "value": 2.0, "updates": 2}
        assert metrics["h"] == {
            "kind": "histogram", "count": 3, "sum": 6.0,
            "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_same_name_returns_same_instrument(self):
        tracer = Tracer()
        assert tracer.counter("x") is tracer.counter("x")

    def test_kind_conflict_raises(self):
        tracer = Tracer()
        tracer.counter("x")
        with pytest.raises(TypeError, match="is a counter"):
            tracer.histogram("x")

    def test_close_flushes_metric_records_once(self):
        tracer = Tracer()
        tracer.counter("c").inc(2)
        tracer.close()
        tracer.close()  # idempotent
        metric_records = [r for r in tracer.ring if r["type"] == "metric"]
        assert len(metric_records) == 1
        assert metric_records[0] == {
            "type": "metric", "kind": "counter", "name": "c", "value": 2.0,
        }


class TestJsonlRoundTrip:
    def test_records_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("flow", design="X"):
            tracer.event("mark")
            tracer.histogram("h").observe(1.5)
        tracer.close()
        records = obs.read_trace(path)
        assert [r["type"] for r in records] == ["event", "span", "metric"]
        assert records == list(tracer.ring)

    @pytest.mark.parametrize(
        "target", ["run.jsonl", b"run.jsonl", pathlib.Path("run.jsonl")],
        ids=["str", "bytes", "path"],
    )
    def test_path_targets_name_the_file(self, tmp_path, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        with obs.tracing(target):
            obs.event("via-tracing")
        sink = JsonlSink(target)
        sink({"type": "event", "name": "via-sink"})
        sink.close()
        assert sink.path == "run.jsonl"
        assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]
        assert [r["name"] for r in obs.read_trace("run.jsonl")] == [
            "via-tracing", "via-sink"
        ]

    def test_each_record_is_on_disk_before_close(self, tmp_path):
        path = tmp_path / "live.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        tracer.event("first")
        assert [r["name"] for r in obs.read_trace(path)] == ["first"]
        tracer.close()

    def test_read_trace_rejects_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"event","name":"ok"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            obs.read_trace(path)

    def test_read_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('\n{"type":"event","name":"ok"}\n\n')
        assert len(obs.read_trace(path)) == 1


class TestTracingContext:
    def test_path_target_installs_and_restores(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert not obs.is_enabled()
        with obs.tracing(path) as tracer:
            assert obs.is_enabled()
            assert obs.get_tracer() is tracer
            obs.event("inside")
        assert not obs.is_enabled()
        records = obs.read_trace(path)
        assert records[0]["name"] == "inside"

    def test_none_target_keeps_current_tracer(self):
        with obs.tracing(None) as tracer:
            assert tracer is obs.get_tracer()
            assert not obs.is_enabled()

    def test_tracer_target_is_not_closed(self):
        tracer = Tracer()
        with obs.tracing(tracer):
            obs.counter("c").inc()
        assert not tracer._closed
        assert obs.get_tracer() is not tracer

    def test_restores_previous_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with obs.tracing(tmp_path / "t.jsonl"):
                raise RuntimeError
        assert not obs.is_enabled()


class TestReport:
    def _trace(self):
        tracer = Tracer()
        with tracer.span("flow"):
            for i in range(3):
                with tracer.span("step", i=i):
                    tracer.counter("widgets").inc()
        tracer.event("done")
        tracer.close()
        return list(tracer.ring)

    def test_summarize_groups_spans_by_name(self):
        summary = summarize_trace(self._trace())
        by_name = {s["name"]: s for s in summary["spans"]}
        assert by_name["step"]["count"] == 3
        assert by_name["flow"]["count"] == 1
        assert summary["events"] == [("done", 1)]
        metrics = {m["name"]: m for m in summary["metrics"]}
        assert metrics["widgets"]["value"] == 3.0
        assert summary["errors"] == []

    def test_render_report_mentions_spans_and_metrics(self):
        text = render_report(self._trace())
        assert "step" in text
        assert "widgets" in text
        assert "TRACE REPORT" in text

    def test_runtime_counters_render_the_cli_summary_line(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        with obs.tracing(path) as tracer:
            for kind in ("task_finished", "cache_miss", "cache_hit",
                         "journal_replayed"):
                obs.counter("runtime/" + kind).inc()
            line = runtime_summary(tracer.metrics())
        assert line == "1 done, 0 failed, 0 retried, cache 1/2 hits, 1 replayed"
        assert f"runtime: {line}" in render_report(obs.read_trace(path)).splitlines()
        assert summarize_trace(self._trace())["runtime"] is None
        assert runtime_summary({}) == "0 done, 0 failed, 0 retried"

    def test_render_report_lists_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("broke")
        text = render_report(list(tracer.ring))
        assert "ValueError: broke" in text


class TestFlowIntegration:
    def test_puffer_run_emits_expected_spans(self, tmp_path):
        from repro.benchgen import make_design
        from repro.core import PufferPlacer

        path = tmp_path / "flow.jsonl"
        with obs.tracing(path):
            PufferPlacer(make_design("OR1200", scale=0.002)).run()
        names = {r["name"] for r in obs.read_trace(path) if r["type"] == "span"}
        assert {
            "puffer/run", "puffer/global_placement", "puffer/legalization",
            "puffer/padding_round", "gp/iteration", "congestion/estimate",
        } <= names

    def test_forked_workers_do_not_corrupt_the_trace(self, tmp_path):
        """A --jobs run forks workers while the tracer is installed; the
        children inherit it (and its open file) and must stay silent."""
        from repro.evalkit import SuiteRunConfig, run_suite

        path = tmp_path / "parallel.jsonl"
        with obs.tracing(path):
            run_suite(
                SuiteRunConfig(scale=0.0015, benchmarks=["OR1200"]), jobs=2
            )
        records = obs.read_trace(path)  # raises on an interleaved line
        # Workers do the placement; only the parent's records survive.
        finished = [r for r in records if r["name"] == "runtime/task_finished"]
        assert [r["type"] for r in finished] == ["event"] * 3 + ["metric"]
        assert finished[-1]["value"] == 3
        assert not any(r["name"] == "api/run" for r in records if r["type"] == "span")

    def test_child_process_emit_is_dropped(self):
        tracer = Tracer()
        tracer._pid = tracer._pid + 1  # simulate a forked child
        tracer.event("from-child")
        with tracer.span("child-span"):
            pass
        assert not tracer.ring

    def test_runtime_events_land_in_trace(self):
        from repro.runtime import Task, TaskExecutor

        tracer = Tracer()
        with obs.tracing(tracer):
            TaskExecutor(jobs=1).run([Task("k", int)])
        assert [r["name"] for r in tracer.ring] == [
            "runtime/task_started", "runtime/task_finished"
        ]
        attrs = tracer.ring[-1]["attrs"]
        assert attrs["key"] == "k"
        assert set(attrs) == {"key", "wall_time", "attempt", "detail"}
        assert tracer.metrics()["runtime/task_finished"]["value"] == 1


class TestReportTopAndIpc:
    """The --top stage filter and the serialization-vs-compute split."""

    @staticmethod
    def _span(name, dur, parent=0, **attrs):
        record = {"type": "span", "name": name, "parent": parent, "dur": dur}
        if attrs:
            record["attrs"] = attrs
        return record

    def _trace(self):
        return [
            self._span("flow", 10.0),
            self._span("flow/gp", 6.0, parent=1),
            self._span("flow/legalize", 3.0, parent=1),
            self._span("runtime/ipc/publish", 0.5, parent=1, bytes=1000),
            self._span("runtime/ipc/attach", 0.25, parent=1, bytes=1000),
            self._span("flow/route", 0.25, parent=1),
        ]

    def test_top_keeps_most_expensive_in_flow_order(self):
        summary = summarize_trace(self._trace(), top=2)
        assert [s["name"] for s in summary["spans"]] == ["flow", "flow/gp"]
        assert summary["span_count"] == 6  # the unfiltered total

    def test_top_none_and_large_top_keep_everything(self):
        assert len(summarize_trace(self._trace())["spans"]) == 6
        assert len(summarize_trace(self._trace(), top=99)["spans"]) == 6

    def test_pct_is_relative_to_root_wall_clock(self):
        summary = summarize_trace(self._trace())
        by_name = {s["name"]: s for s in summary["spans"]}
        assert summary["root_total"] == pytest.approx(10.0)
        assert by_name["flow"]["pct"] == pytest.approx(100.0)
        assert by_name["flow/gp"]["pct"] == pytest.approx(60.0)
        assert by_name["runtime/ipc/publish"]["pct"] == pytest.approx(5.0)

    def test_ipc_split_sums_spans_and_bytes(self):
        ipc = summarize_trace(self._trace())["ipc"]
        assert ipc["serialization"] == pytest.approx(0.75)
        assert ipc["compute"] == pytest.approx(9.25)
        assert ipc["bytes"] == 2000
        assert ipc["pct"] == pytest.approx(7.5)

    def test_no_ipc_spans_means_no_split(self):
        records = [self._span("flow", 1.0)]
        assert summarize_trace(records)["ipc"] is None
        assert "serialization vs compute" not in render_report(records)

    def test_render_mentions_hidden_spans_and_split(self):
        text = render_report(self._trace(), top=2)
        assert "... 4 more spans (raise --top to show)" in text
        assert "serialization vs compute" in text
        assert "2000 payload bytes" in text
        assert "flow/legalize" not in text

    def test_report_file_round_trip(self, tmp_path):
        import json

        from repro.obs.report import report_file

        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in self._trace()) + "\n"
        )
        text = report_file(path, top=1)
        assert "flow" in text
        assert "% root" in text
