"""System-level throughput benches: the cost of each pipeline stage.

The paper's pitch for its architecture is that dynamic interception feeds a
*cheap* static analysis (Section VI: competing full-system reconstruction
"introduce[s] heavy latency").  These benches quantify our pipeline's
stage costs so regressions in any stage are visible.
"""

import threading

import pytest

from benchmarks.paper_compare import record_table
from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import generate_corpus
from repro.dynamic.engine import AppExecutionEngine, EngineOptions
from repro.static_analysis.decompiler import Decompiler
from repro.static_analysis.prefilter import prefilter


@pytest.fixture(scope="module")
def slice_corpus():
    return generate_corpus(60, seed=101)


def test_corpus_generation_throughput(benchmark):
    records = benchmark(generate_corpus, 60, 202)
    assert len(records) == 60


def test_decompile_prefilter_throughput(benchmark, slice_corpus):
    decompiler = Decompiler(strict=False)

    def stage():
        return sum(
            prefilter(decompiler.decompile(record.apk)).has_any_dcl
            for record in slice_corpus
        )

    candidates = benchmark(stage)
    assert candidates > 0


def test_dynamic_analysis_throughput(benchmark, slice_corpus):
    dcl = [
        r for r in slice_corpus
        if r.blueprint.dex_dcl_reachable or r.blueprint.native_dcl_reachable
    ][:20]

    def stage():
        intercepted = 0
        for record in dcl:
            engine = AppExecutionEngine(
                EngineOptions(
                    remote_resources=record.remote_resources,
                    companions=record.companions,
                    release_time_ms=record.release_time_ms,
                )
            )
            intercepted += engine.run(record.apk).intercepted_any
        return intercepted

    assert benchmark(stage) > 0


def test_full_pipeline_throughput(benchmark, slice_corpus):
    dydroid = DyDroid(DyDroidConfig(train_samples_per_family=2))

    def stage():
        return dydroid.measure(slice_corpus).n_total

    n = benchmark(stage)
    assert n == len(slice_corpus)
    record_table(
        "Throughput",
        "full pipeline measured {} apps per round; see the benchmark table for timings".format(n),
    )


def test_firewall_enforcement_overhead(benchmark, tmp_path):
    """The cost of inline enforcement: firewall on vs off, warm store.

    The firewall's pitch is that complete mediation rides the hooks the
    measurement pipeline already pays for, so enforcement should be nearly
    free.  A cold un-enforced pass warms the shared verdict store (and
    provides the reference timing); the benched stage is the same corpus
    re-measured under the ``default`` policy, where every load additionally
    runs the rule chain plus a digest lookup against the warm store.
    """
    import time
    from dataclasses import replace

    from repro.store.verdicts import VerdictStore

    records = generate_corpus(40, seed=7)
    base = DyDroidConfig(train_samples_per_family=2, run_replays=False)
    unenforced = replace(base, firewall_policy="", quarantine_dir="")
    enforced = replace(base, firewall_policy="default")

    store = VerdictStore(str(tmp_path / "verdicts.sqlite"), base)
    try:
        start = time.perf_counter()
        DyDroid(unenforced, verdict_store=store).measure(records)
        baseline_s = time.perf_counter() - start

        def defended_pass():
            return DyDroid(enforced, verdict_store=store).measure(records)

        report = benchmark(defended_pass)
    finally:
        store.close()

    table = report.defense_table()
    assert table["policies"] == ["default"]
    assert table["loads_denied"] + table["loads_quarantined"] >= 1
    enforced_s = benchmark.stats.stats.mean
    record_table(
        "Defense",
        "enforced pipeline over 40 apps: {:.2f}s/round vs {:.2f}s unenforced "
        "({:+.0%} overhead); {} loads denied, {} quarantined".format(
            enforced_s,
            baseline_s,
            enforced_s / baseline_s - 1 if baseline_s else 0.0,
            table["loads_denied"],
            table["loads_quarantined"],
        ),
    )


@pytest.fixture(scope="module")
def warm_service():
    """A running daemon whose cache already holds the benched spec."""
    from repro.service import AnalysisService, ServiceClient, ServiceConfig, make_server

    service = AnalysisService(
        ServiceConfig(
            workers=1,
            pipeline=DyDroidConfig(train_samples_per_family=2, run_replays=False),
        )
    )
    service.start()
    server = make_server(service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServiceClient("127.0.0.1", server.server_port)
    spec = {"kind": "corpus", "seed": 101, "n_apps": 60, "index": 3}
    client.submit_and_wait(spec)  # the one (and only) pipeline run
    yield client, spec
    server.shutdown()
    service.drain(timeout=60.0)
    server.server_close()


def test_service_warm_cache_throughput(benchmark, warm_service):
    """HTTP requests/s through submit -> result once the cache is warm.

    The serving overhead per duplicate submission is two JSON round
    trips (no pipeline execution), so this bench bounds the daemon's
    intake rate for a mostly-duplicate workload -- the regime the
    paper's crawl operated in once the common SDK payloads were known.
    """
    client, spec = warm_service

    def round_trips():
        served = 0
        for _ in range(20):
            response = client.submit(spec)
            assert response["cached"]
            served += "analysis" in client.result(response["digest"])
        return served

    assert benchmark(round_trips) == 20


def test_lineage_warm_reanalysis(benchmark, tmp_path, monkeypatch):
    """Cross-version dedup: only *changed* payloads reach the analyzers.

    Analyzes a 3-version lineage fleet against one shared verdict store,
    counting actual DroidNative/FlowDroid invocations per version.  From
    version 2 on, the invocation count must equal the number of payload
    digests that version introduced -- unchanged payloads ride the store.
    The benchmarked stage is a fully warm reanalysis of the final
    version, which must invoke zero analyzers.
    """
    from repro.evolution import EvolveConfig, LineageSpec, run_evolution
    from repro.static_analysis.malware.droidnative import DroidNative
    from repro.static_analysis.privacy import flowdroid

    calls = {"n": 0}
    real_detect = DroidNative.detect
    real_flow = flowdroid.analyze_dex

    def counting_detect(self, binary, tracer=None):
        calls["n"] += 1
        return real_detect(self, binary, tracer=tracer)

    def counting_flow(dex, tracer=None):
        calls["n"] += 1
        return real_flow(dex, tracer=tracer)

    monkeypatch.setattr(DroidNative, "detect", counting_detect)
    monkeypatch.setattr("repro.core.pipeline.analyze_dex", counting_flow)

    pipeline = DyDroidConfig(train_samples_per_family=2, run_replays=False)

    def version_run(n_versions, store):
        before = calls["n"]
        result = run_evolution(
            EvolveConfig(
                n_apps=24, n_versions=n_versions, seed=31, workers=1,
                spec=LineageSpec(malicious_hazard=0.2),
                pipeline=pipeline, verdict_store=store,
            )
        )
        return result, calls["n"] - before

    # Cold v1..v3: per-version analyzer invocations must shrink to only
    # the payloads each later version actually changed.  Separate stores
    # keep both measurements cold.
    store = str(tmp_path / "verdicts.jsonl")
    _, cold_full = version_run(3, store)
    _, v1_only = version_run(1, str(tmp_path / "v1-only.jsonl"))
    incremental = cold_full - v1_only  # v2+v3 cost on top of v1
    assert v1_only > 0
    assert incremental < v1_only, (
        "later versions re-analyzed more than a full cold v1: "
        "{} vs {}".format(incremental, v1_only)
    )

    def warm_final_version():
        before = calls["n"]
        result, _ = version_run(3, store)
        assert calls["n"] == before, "warm reanalysis invoked analyzers"
        return result.metrics["snapshots_analyzed"]

    assert benchmark(warm_final_version) == 72
    record_table(
        "Evolution",
        "warm 3-version reanalysis of 24 lineages invoked 0 analyzers "
        "(cold: {} invocations, incremental v2+v3: {})".format(
            cold_full, incremental
        ),
    )
