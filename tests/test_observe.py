"""The observability layer: tracer, metrics registry, exporters, merging."""

import json

import pytest

from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import generate_corpus
from repro.farm import FarmConfig, run_farm
from repro.observe import (
    NULL_TRACER,
    LatencyHistogram,
    MetricsRegistry,
    Tracer,
    digest_line,
    load_spans,
    merge_span_lists,
    render_summary,
    stage,
    stage_stats,
    verdict_cache_summary,
    write_trace,
)
from repro.observe.summary import _percentile


def pipeline_config():
    return DyDroidConfig(train_samples_per_family=2, run_replays=False)


class TestTracer:
    def test_ids_are_deterministic_and_monotonic(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [s.span_id for s in tracer.spans] == [1, 2, 3]
        assert [s.name for s in tracer.spans] == ["a", "b", "c"]

    def test_nesting_parent_ids(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["root"].parent_id == 0
        assert by_name["child"].parent_id == by_name["root"].span_id
        assert by_name["grandchild"].parent_id == by_name["child"].span_id
        assert by_name["sibling"].parent_id == by_name["root"].span_id

    def test_durations_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", package="com.a") as span:
            span.set(extra=3)
        span = tracer.spans[0]
        assert span.duration_s >= 0.0
        assert span.attrs == {"package": "com.a", "extra": 3}
        payload = span.to_dict()
        assert payload["name"] == "work"
        assert payload["attrs"]["extra"] == 3

    def test_exception_marks_error_and_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert tracer.spans[0].attrs["error"] == "ValueError"
        assert tracer.current_span() is None

    def test_null_tracer_records_nothing_and_reuses_one_span(self):
        first = NULL_TRACER.span("a", big="attr")
        second = NULL_TRACER.span("b")
        assert first is second
        with first as span:
            span.set(anything=1)
        assert NULL_TRACER.to_dicts() == []
        assert not NULL_TRACER.enabled

    def test_stage_helper_records_histogram_even_without_tracer(self):
        registry = MetricsRegistry()
        with stage(NULL_TRACER, registry, "decompile"):
            pass
        assert registry.histogram("stage.decompile").count == 1


class TestLatencyHistogram:
    def test_value_exactly_on_bound(self):
        histogram = LatencyHistogram()
        histogram.record(0.001)  # first bound
        histogram.record(100.0)  # last bound
        data = histogram.to_dict()
        assert data["buckets"]["le_0.001s"] == 1
        assert data["buckets"]["le_100s"] == 1
        assert data["buckets"]["le_inf"] == 0

    def test_value_past_last_bound(self):
        histogram = LatencyHistogram()
        histogram.record(250.0)
        assert histogram.to_dict()["buckets"]["le_inf"] == 1

    def test_zero_lands_in_first_bucket(self):
        histogram = LatencyHistogram()
        histogram.record(0.0)
        assert histogram.to_dict()["buckets"]["le_0.001s"] == 1

    def test_negative_guard_clamps_to_zero(self):
        histogram = LatencyHistogram()
        histogram.record(-1.5)
        data = histogram.to_dict()
        assert data["buckets"]["le_0.001s"] == 1
        assert data["total_s"] == 0.0
        assert data["max_s"] == 0.0

    def test_matches_linear_scan_semantics(self):
        histogram = LatencyHistogram()
        values = [0.0005, 0.001, 0.0011, 0.05, 0.51, 1.0, 99.0, 100.0, 101.0]
        for value in values:
            histogram.record(value)
        assert histogram.count == len(values)
        assert sum(histogram.counts) == len(values)
        data = histogram.to_dict()
        assert data["buckets"]["le_0.001s"] == 2
        assert data["buckets"]["le_0.002s"] == 1
        assert data["buckets"]["le_inf"] == 1

    def test_merge_dict_roundtrip(self):
        one, two = LatencyHistogram(), LatencyHistogram()
        one.record(0.01)
        two.record(5.0)
        two.record(200.0)
        merged = LatencyHistogram()
        merged.merge_dict(one.to_dict())
        merged.merge_dict(two.to_dict())
        assert merged.count == 3
        assert merged.max_s == 200.0
        assert merged.to_dict()["buckets"]["le_inf"] == 1


class TestMetricsRegistry:
    def test_counters_gauges_distinct(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        registry.gauge("depth").set(7.0)
        registry.distinct("digests").add("a")
        registry.distinct("digests").add("a")
        registry.distinct("digests").add("b")
        assert registry.counter_value("hits") == 3
        assert registry.counter_value("absent") == 0
        assert registry.distinct_count("digests") == 2

    def test_merge_is_order_independent(self):
        payloads = []
        for values in (("a", "b"), ("b", "c")):
            registry = MetricsRegistry()
            registry.counter("n").inc(len(values))
            registry.histogram("lat").record(0.5)
            for value in values:
                registry.distinct("seen").add(value)
            payloads.append(registry.to_dict())

        forward, backward = MetricsRegistry(), MetricsRegistry()
        for payload in payloads:
            forward.merge_dict(payload)
        for payload in reversed(payloads):
            backward.merge_dict(payload)
        assert forward.to_dict() == backward.to_dict()
        assert forward.counter_value("n") == 4
        assert forward.distinct_count("seen") == 3
        assert forward.histogram("lat").count == 2

    def test_serialized_registry_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").record(1.0)
        registry.distinct("d").add("x")
        json.dumps(registry.to_dict())


class TestExport:
    def _sample_spans(self):
        tracer = Tracer()
        with tracer.span("app", package="com.a"):
            with tracer.span("decompile"):
                pass
        return tracer.to_dicts()

    def test_jsonl_roundtrip(self, tmp_path):
        spans = self._sample_spans()
        path = str(tmp_path / "trace.jsonl")
        write_trace(spans, path, fmt="jsonl")
        assert load_spans(path) == spans

    def test_chrome_events_are_well_formed(self, tmp_path):
        spans = self._sample_spans()
        path = str(tmp_path / "trace.json")
        write_trace(spans, path, fmt="chrome")
        payload = json.load(open(path))
        events = payload["traceEvents"]
        assert len(events) == len(spans)
        for event in events:
            for key in ("ph", "ts", "dur", "name", "pid", "tid"):
                assert key in event
            assert event["ph"] == "X"

    def test_chrome_roundtrip_preserves_structure(self, tmp_path):
        spans = self._sample_spans()
        path = str(tmp_path / "trace.json")
        write_trace(spans, path, fmt="chrome")
        loaded = load_spans(path)
        assert [s["name"] for s in loaded] == [s["name"] for s in spans]
        assert [s["span_id"] for s in loaded] == [s["span_id"] for s in spans]
        assert [s["parent_id"] for s in loaded] == [s["parent_id"] for s in spans]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace([], str(tmp_path / "x"), fmt="xml")


class TestMergeSpans:
    def test_reid_and_parent_remap(self):
        def shard_trace():
            tracer = Tracer()
            with tracer.span("app"):
                with tracer.span("decompile"):
                    pass
            return tracer.to_dicts()

        merged = merge_span_lists([(1, shard_trace()), (0, shard_trace())])
        assert [s["span_id"] for s in merged] == [1, 2, 3, 4]
        assert [s["tid"] for s in merged] == [0, 0, 1, 1]
        # parent links survive renumbering within each shard.
        assert merged[1]["parent_id"] == merged[0]["span_id"]
        assert merged[3]["parent_id"] == merged[2]["span_id"]
        # shard order, not argument order, decides placement.
        assert merged[0]["tid"] == 0


class TestSummary:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 0.50) == 2.0
        assert _percentile(values, 0.95) == 4.0
        assert _percentile([5.0], 0.50) == 5.0
        assert _percentile([], 0.50) == 0.0

    def test_stage_stats_orders_by_total(self):
        spans = [
            {"span_id": 1, "parent_id": 0, "name": "slow", "ts": 0.0, "dur": 3.0},
            {"span_id": 2, "parent_id": 0, "name": "fast", "ts": 0.0, "dur": 0.1},
            {"span_id": 3, "parent_id": 0, "name": "slow", "ts": 0.0, "dur": 1.0},
        ]
        stats = stage_stats(spans)
        assert [s.name for s in stats] == ["slow", "fast"]
        assert stats[0].count == 2
        assert stats[0].max_s == 3.0

    def test_render_summary(self):
        spans = [
            {"span_id": 1, "parent_id": 0, "name": "decompile", "ts": 0.0, "dur": 0.2},
        ]
        table = render_summary(spans)
        assert "stage" in table and "p95" in table and "decompile" in table
        assert render_summary([]) == "(empty trace)"

    def test_digest_line_names_top_stages_and_caches(self):
        spans = [
            {"span_id": 1, "parent_id": 0, "name": "app", "ts": 0.0, "dur": 3.2},
            {"span_id": 2, "parent_id": 1, "name": "dynamic", "ts": 0.0, "dur": 3.0},
            {"span_id": 3, "parent_id": 1, "name": "decompile", "ts": 3.0, "dur": 0.2},
            # engine internals must not compete with pipeline stages:
            {"span_id": 4, "parent_id": 2, "name": "engine.session", "ts": 0.0, "dur": 2.9},
        ]
        registry = MetricsRegistry()
        registry.counter("cache.detection.lookups").inc(10)
        registry.distinct("cache.detection.digests").add("d1")
        line = digest_line(spans, registry)
        assert "dynamic 3.00s" in line
        assert "engine.session" not in line
        assert "detection cache 9/10 hits" in line


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def traced_run(self):
        corpus = generate_corpus(24, seed=7)
        tracer, registry = Tracer(), MetricsRegistry()
        dydroid = DyDroid(pipeline_config(), tracer=tracer, metrics=registry)
        report = dydroid.measure(corpus)
        return report, tracer.to_dicts(), registry

    def test_spans_nest_correctly(self, traced_run):
        _, spans, _ = traced_run
        assert spans, "pipeline produced no spans"
        seen = set()
        for span in spans:
            assert span["parent_id"] == 0 or span["parent_id"] in seen
            seen.add(span["span_id"])

    def test_stage_spans_present_per_app(self, traced_run):
        report, spans, _ = traced_run
        names = [s["name"] for s in spans]
        assert names.count("app") == report.n_total
        assert names.count("decompile") + names.count("obfuscation") >= report.n_total
        assert "engine.session" in names and "payload" in names

    def test_cache_counters_are_consistent(self, traced_run):
        _, _, registry = traced_run
        for kind in ("detection", "privacy"):
            lookups = registry.counter_value("cache.{}.lookups".format(kind))
            hits = registry.counter_value("cache.{}.hit".format(kind))
            misses = registry.counter_value("cache.{}.miss".format(kind))
            assert hits + misses == lookups
            summary = verdict_cache_summary(registry)[kind]
            assert summary["lookups"] == lookups
            assert summary["hits"] + summary["misses"] == lookups

    def test_stage_histograms_recorded(self, traced_run):
        report, _, registry = traced_run
        assert registry.histogram("stage.decompile").count == report.n_total
        assert registry.histogram("stage.prefilter").count >= 1

    def test_results_identical_with_and_without_tracing(self):
        corpus = generate_corpus(12, seed=11)
        plain = DyDroid(pipeline_config()).measure(corpus)
        traced = DyDroid(
            pipeline_config(), tracer=Tracer(), metrics=MetricsRegistry()
        ).measure(corpus)
        assert plain.render_all() == traced.render_all()


class TestFarmObservability:
    def _run(self, **kwargs):
        defaults = dict(
            n_apps=24, corpus_seed=7, workers=1, pipeline=pipeline_config(),
            backoff_s=0.0,
        )
        defaults.update(kwargs)
        return run_farm(FarmConfig(**defaults))

    def test_verdict_cache_metrics_shard_invariant(self):
        one = self._run(n_shards=1)
        four = self._run(n_shards=4)
        assert one.metrics["verdict_cache"] == four.metrics["verdict_cache"]
        hist_one = one.metrics["registry"]["histograms"]
        hist_four = four.metrics["registry"]["histograms"]
        assert set(hist_one) == set(hist_four)
        for name in hist_one:
            assert hist_one[name]["count"] == hist_four[name]["count"], name

    def test_spans_collected_only_when_tracing(self):
        untraced = self._run(n_shards=2)
        assert untraced.spans == []
        traced = self._run(n_shards=2, trace=True)
        assert traced.spans
        names = {span["name"] for span in traced.spans}
        assert {"farm.build", "app"} <= names
        seen = set()
        for span in traced.spans:
            assert span["parent_id"] == 0 or span["parent_id"] in seen
            seen.add(span["span_id"])

    def test_trace_structure_identical_across_workers(self):
        serial = self._run(n_shards=4, trace=True)
        pooled = self._run(n_shards=4, workers=2, trace=True)
        skeleton = lambda result: [  # noqa: E731
            (s["span_id"], s["parent_id"], s["name"], s["tid"])
            for s in result.spans
        ]
        assert skeleton(serial) == skeleton(pooled)


class TestObserveCli:
    def test_measure_trace_and_metrics_flags(self, capsys, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "measure", "--apps", "10", "--seed", "7", "--train", "2",
            "--no-replays", "--table", "2",
            "--trace-out", str(trace_path), "--trace-format", "chrome",
            "--metrics-out", str(metrics_path),
        ]) == 0
        err = capsys.readouterr().err
        assert "[trace:" in err  # the on-by-default digest line
        payload = json.loads(trace_path.read_text())
        assert all(e["ph"] == "X" for e in payload["traceEvents"])
        metrics = json.loads(metrics_path.read_text())
        assert "stage.decompile" in metrics["histograms"]

    def test_farm_trace_out_and_trace_summary(self, capsys, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "farm.jsonl"
        assert main([
            "farm", "run", "--apps", "12", "--seed", "7", "--workers", "1",
            "--shards", "2", "--train", "2", "--no-replays", "--table", "2",
            "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "p95" in out and "farm.build" in out


class TestLatencyHistogramDeprecation:
    """The farm-side re-export is gone; the observe-side home does not warn."""

    def test_unknown_attribute_still_raises(self):
        import repro.farm as farm
        import repro.farm.metrics as farm_metrics

        with pytest.raises(AttributeError):
            farm_metrics.NoSuchThing
        with pytest.raises(AttributeError):
            farm.NoSuchThing

    def test_observe_home_is_warning_free(self, recwarn):
        from repro.observe.metrics import LatencyHistogram

        LatencyHistogram().record(0.01)
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]
