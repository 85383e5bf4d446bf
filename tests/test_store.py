"""The cross-process verdict store: tiers, fingerprints, fleet-wide dedup."""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import generate_corpus
from repro.farm import FarmConfig, run_farm
from repro.observe import MetricsRegistry
from repro.static_analysis.malware.droidnative import Detection
from repro.static_analysis.privacy.flowdroid import PrivacyLeak
from repro.store import (
    StoreError,
    VerdictStore,
    compact_store,
    index_path,
    sqlite_available,
    verdict_fingerprint,
)

N_APPS = 24
SEED = 19


def pipeline_config(**overrides):
    defaults = dict(train_samples_per_family=2, run_replays=False)
    defaults.update(overrides)
    return DyDroidConfig(**defaults)


def farm_config(**kwargs):
    defaults = dict(
        n_apps=N_APPS,
        corpus_seed=SEED,
        workers=1,
        pipeline=pipeline_config(),
        backoff_s=0.0,
    )
    defaults.update(kwargs)
    return FarmConfig(**defaults)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(N_APPS, seed=SEED)


@pytest.fixture(scope="module")
def serial_report(corpus):
    return DyDroid(pipeline_config()).measure(corpus)


DETECTION = Detection(
    family="DroidKungFu",
    score=0.97,
    matched_sample_id="DroidKungFu-003",
    matched_functions=9,
    total_functions=10,
)
LEAK = PrivacyLeak(
    data_type="imei",
    category="device_id",
    sink_class="java.net.URL",
    sink_method="openConnection",
    channel="network",
    in_method="com.ads.Tracker.report",
)


# -- unit: fingerprint ------------------------------------------------------------


class TestVerdictFingerprint:
    def test_stable_for_equal_configs(self):
        assert verdict_fingerprint(pipeline_config()) == verdict_fingerprint(
            pipeline_config()
        )

    def test_ignores_non_verdict_knobs(self):
        # Monkey/replay settings affect which payloads are *intercepted*,
        # never what the verdict on given payload bytes is -- they must
        # not invalidate a warm store.
        base = verdict_fingerprint(pipeline_config())
        assert verdict_fingerprint(pipeline_config(monkey_seed=99)) == base
        assert verdict_fingerprint(pipeline_config(monkey_budget=1)) == base
        assert verdict_fingerprint(pipeline_config(run_replays=True)) == base
        assert verdict_fingerprint(pipeline_config(verdict_cache_capacity=1)) == base

    def test_tracks_analyzer_knobs(self):
        base = verdict_fingerprint(pipeline_config())
        assert verdict_fingerprint(pipeline_config(droidnative_threshold=0.5)) != base
        assert verdict_fingerprint(pipeline_config(train_samples_per_family=9)) != base
        assert verdict_fingerprint(pipeline_config(training_seed=1)) != base
        assert verdict_fingerprint(pipeline_config(run_privacy=False)) != base
        assert verdict_fingerprint(pipeline_config(run_malware=False)) != base


# -- unit: the store file ---------------------------------------------------------


class TestVerdictStore:
    def test_detection_roundtrip_including_benign(self, tmp_path):
        with VerdictStore(tmp_path / "s.jsonl", pipeline_config()) as store:
            assert store.get_detection("d1") == (False, None)
            store.put_detection("d1", DETECTION)
            store.put_detection("d2", None)  # computed-benign, not absent
            assert store.get_detection("d1") == (True, DETECTION)
            assert store.get_detection("d2") == (True, None)
            assert store.get_detection("d3") == (False, None)

    def test_privacy_roundtrip(self, tmp_path):
        with VerdictStore(tmp_path / "s.jsonl", pipeline_config()) as store:
            assert store.get_privacy("d1") == (False, ())
            store.put_privacy("d1", (LEAK,))
            store.put_privacy("d2", ())
            assert store.get_privacy("d1") == (True, (LEAK,))
            assert store.get_privacy("d2") == (True, ())

    def test_verdicts_visible_across_instances(self, tmp_path):
        """A sibling's published verdict is seen without reopening."""
        path = tmp_path / "s.jsonl"
        with VerdictStore(path, pipeline_config()) as writer, VerdictStore(
            path, pipeline_config()
        ) as reader:
            assert reader.get_detection("d1") == (False, None)
            writer.put_detection("d1", DETECTION)
            # the reader's next miss re-scans the tail and finds it
            assert reader.get_detection("d1") == (True, DETECTION)

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with VerdictStore(path, pipeline_config()) as store:
            store.put_detection("d1", DETECTION)
            store.put_privacy("d1", (LEAK,))
        with VerdictStore(path, pipeline_config()) as store:
            assert store.get_detection("d1") == (True, DETECTION)
            assert store.get_privacy("d1") == (True, (LEAK,))
            assert store.counts() == {"detection": 1, "privacy": 1}

    def test_refuses_other_configuration(self, tmp_path):
        path = tmp_path / "s.jsonl"
        VerdictStore(path, pipeline_config()).close()
        with pytest.raises(StoreError):
            VerdictStore(path, pipeline_config(droidnative_threshold=0.5))

    def test_torn_tail_and_corrupt_interior_are_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with VerdictStore(path, pipeline_config()) as store:
            store.put_detection("d1", None)
        with path.open("a") as handle:
            handle.write("not json at all\n")
            handle.write('{"kind": "detection", "digest": "d2"')  # torn, no \n
        with VerdictStore(path, pipeline_config()) as store:
            assert store.get_detection("d1") == (True, None)
            assert store.get_detection("d2") == (False, None)
            # the junk line only: open() cuts the torn tail off, so later
            # appends cannot concatenate onto it
            assert store.corrupt_lines == 1
            # the cache heals itself: recomputing d2 appends a fresh line
            store.put_detection("d2", DETECTION)
        with VerdictStore(path, pipeline_config()) as store:
            assert store.get_detection("d2") == (True, DETECTION)


# -- unit: the sqlite sidecar index ------------------------------------------------


def _unavailable_sqlite(*args, **kwargs):
    raise sqlite3.OperationalError("unable to open database file")



@pytest.mark.skipif(not sqlite_available(), reason="sqlite3 unavailable")
class TestStoreSidecarIndex:
    def test_warm_open_does_zero_full_scans(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with VerdictStore(path, pipeline_config()) as store:
            assert store.full_scans == 0  # cold: it wrote the header itself
            store.put_detection("d1", DETECTION)
            store.put_privacy("d1", (LEAK,))
        with VerdictStore(path, pipeline_config()) as store:
            assert store.full_scans == 0
            assert store.get_detection("d1") == (True, DETECTION)
            assert store.get_privacy("d1") == (True, (LEAK,))
            assert store.counts() == {"detection": 1, "privacy": 1}
            assert store.full_scans == 0
            stats = store.index_stats()
            assert stats["enabled"] and stats["full_scans"] == 0

    def test_point_lookup_hits_index_not_scan(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with VerdictStore(path, pipeline_config()) as store:
            for i in range(50):
                store.put_detection("d{}".format(i), None)
        with VerdictStore(path, pipeline_config()) as store:
            assert store.get_detection("d37") == (True, None)
            assert store.index_hits == 1
            assert store.full_scans == 0

    def test_deleted_sidecar_is_rebuilt(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with VerdictStore(path, pipeline_config()) as store:
            store.put_detection("d1", DETECTION)
        index_path(path).unlink()
        with VerdictStore(path, pipeline_config()) as store:
            assert store.full_scans == 1  # one healing scan...
            assert store.get_detection("d1") == (True, DETECTION)
        with VerdictStore(path, pipeline_config()) as store:
            assert store.full_scans == 0  # ...and the sidecar is back
            assert store.get_detection("d1") == (True, DETECTION)

    def test_stale_watermark_after_external_truncate_resets(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with VerdictStore(path, pipeline_config()) as store:
            store.put_detection("d1", DETECTION)
            store.put_detection("d2", None)
        # an external tool rewrote the store shorter: watermark > size
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]))  # header + d1
        with VerdictStore(path, pipeline_config()) as store:
            assert store.full_scans == 1  # reset, rescan from zero
            assert store.get_detection("d1") == (True, DETECTION)
            assert store.get_detection("d2") == (False, None)

    def test_index_disabled_still_works(self, tmp_path, monkeypatch):
        path = tmp_path / "s.jsonl"
        monkeypatch.setattr(sqlite3, "connect", _unavailable_sqlite)
        with VerdictStore(path, pipeline_config()) as store:
            store.put_detection("d1", DETECTION)
            assert not store.index_stats()["enabled"]
        with VerdictStore(path, pipeline_config()) as store:
            assert store.get_detection("d1") == (True, DETECTION)
            assert store.full_scans == 1
            assert not index_path(path).exists()

    def test_refused_store_grows_no_sidecar(self, tmp_path):
        path = tmp_path / "s.jsonl"
        VerdictStore(path, pipeline_config()).close()
        index_path(path).unlink()
        with pytest.raises(StoreError):
            VerdictStore(path, pipeline_config(droidnative_threshold=0.5))
        assert not index_path(path).exists()


# -- unit: compaction --------------------------------------------------------------


class TestCompactStore:
    def test_drops_duplicates_corrupt_and_torn_tail(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with VerdictStore(path, pipeline_config()) as store:
            store.put_detection("d1", DETECTION)
            store.put_detection("d2", None)
            store.put_privacy("d1", (LEAK,))
        lines = path.read_bytes().splitlines(keepends=True)
        with path.open("ab") as handle:
            handle.write(lines[1])  # byte-identical duplicate publish
            handle.write(b"not json\n")
            handle.write(b'{"kind": "privacy", "digest": "dT"')  # torn
        stats = compact_store(path)
        assert stats["entries"] == 3
        assert stats["dropped_duplicates"] == 1
        assert stats["dropped_corrupt"] == 2
        assert stats["bytes_after"] < stats["bytes_before"]

    def test_lookups_identical_before_and_after(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with VerdictStore(path, pipeline_config()) as store:
            store.put_detection("d1", DETECTION)
            store.put_detection("d2", None)
            store.put_privacy("d1", (LEAK,))
            store.put_privacy("d2", ())
            before = {
                ("detection", d): store.get_detection(d) for d in ("d1", "d2", "d3")
            }
            before.update(
                {("privacy", d): store.get_privacy(d) for d in ("d1", "d2", "d3")}
            )
        lines = path.read_bytes().splitlines(keepends=True)
        with path.open("ab") as handle:
            handle.write(lines[2])  # duplicate
        compact_store(path)
        with VerdictStore(path, pipeline_config()) as store:
            for (kind, digest), expected in before.items():
                actual = (
                    store.get_detection(digest)
                    if kind == "detection"
                    else store.get_privacy(digest)
                )
                assert actual == expected

    def test_idempotent(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with VerdictStore(path, pipeline_config()) as store:
            store.put_detection("d1", DETECTION)
        first = compact_store(path)
        second = compact_store(path)
        assert second["dropped_duplicates"] == 0
        assert second["dropped_corrupt"] == 0
        assert second["bytes_before"] == second["bytes_after"] == first["bytes_after"]

    def test_rejects_non_store_files(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(StoreError):
            compact_store(missing)
        junk = tmp_path / "junk.jsonl"
        junk.write_text("hello\n")
        with pytest.raises(StoreError):
            compact_store(junk)


# -- integration: pipeline tiers --------------------------------------------------


class TestPipelineStoreTiers:
    def test_cold_then_warm_run(self, corpus, serial_report, tmp_path):
        store_path = str(tmp_path / "verdicts.jsonl")

        cold_registry = MetricsRegistry()
        cold = DyDroid(
            pipeline_config(), metrics=cold_registry, verdict_store=store_path
        )
        cold_report = cold.measure(corpus)
        cold.close()
        assert cold_report.render_all() == serial_report.render_all()
        # cold store: every tier-1 miss is also a tier-2 miss, and the
        # fleet-wide miss count equals the distinct digest count.
        assert cold_registry.counter_value("store.detection.hit") == 0
        assert cold_registry.counter_value(
            "store.detection.miss"
        ) == cold_registry.distinct_count("cache.detection.digests")
        assert cold_registry.counter_value(
            "store.privacy.miss"
        ) == cold_registry.distinct_count("cache.privacy.digests")
        assert cold_registry.histogram("stage.store").count > 0

        warm_registry = MetricsRegistry()
        warm = DyDroid(
            pipeline_config(), metrics=warm_registry, verdict_store=store_path
        )
        warm_report = warm.measure(corpus)
        warm.close()
        assert warm_report.render_all() == serial_report.render_all()
        assert warm_registry.counter_value("store.detection.miss") == 0
        assert warm_registry.counter_value("store.privacy.miss") == 0
        assert warm_registry.counter_value(
            "store.detection.hit"
        ) == warm_registry.distinct_count("cache.detection.digests")

    def test_warm_run_never_invokes_analyzers(self, corpus, tmp_path, monkeypatch):
        store_path = str(tmp_path / "verdicts.jsonl")
        cold = DyDroid(pipeline_config(), verdict_store=store_path)
        cold_report = cold.measure(corpus)
        cold.close()
        assert any(app.payloads for app in cold_report.apps)

        def no_detect(self, binary, tracer=None):
            raise AssertionError("DroidNative ran against a warm store")

        def no_flow(dex, tracer=None):
            raise AssertionError("FlowDroid ran against a warm store")

        monkeypatch.setattr(
            "repro.static_analysis.malware.droidnative.DroidNative.detect", no_detect
        )
        monkeypatch.setattr("repro.core.pipeline.analyze_dex", no_flow)
        warm = DyDroid(pipeline_config(), verdict_store=store_path)
        warm_report = warm.measure(corpus)
        warm.close()
        assert warm_report.render_all() == cold_report.render_all()

    def test_instance_sharing_does_not_close_borrowed_store(self, tmp_path):
        with VerdictStore(tmp_path / "s.jsonl", pipeline_config()) as shared:
            pipeline = DyDroid(pipeline_config(), verdict_store=shared)
            pipeline.close()  # borrowed, must stay open for other users
            shared.put_detection("d1", None)
            assert shared.get_detection("d1") == (True, None)


# -- integration: farm fleet-wide dedup (the acceptance criterion) ---------------


class TestFarmFleetWideDedup:
    def test_four_shards_analyze_each_digest_exactly_once(
        self, serial_report, tmp_path
    ):
        store_path = str(tmp_path / "verdicts.jsonl")
        cold = run_farm(
            farm_config(n_shards=4, verdict_store=store_path)
        )
        assert cold.report.render_all() == serial_report.render_all()
        store = cold.metrics["verdict_store"]
        cache = cold.metrics["verdict_cache"]
        # store misses == distinct digest count: each distinct payload
        # was computed exactly once across all four shards.
        assert store["detection"]["misses"] == cache["detection"]["misses"]
        assert store["privacy"]["misses"] == cache["privacy"]["misses"]
        assert store["detection"]["misses"] > 0

        warm = run_farm(
            farm_config(n_shards=4, verdict_store=store_path)
        )
        assert warm.report.render_all() == serial_report.render_all()
        warm_store = warm.metrics["verdict_store"]
        assert warm_store["detection"]["misses"] == 0
        assert warm_store["privacy"]["misses"] == 0
        assert warm_store["detection"]["hits"] == cache["detection"]["misses"]

    def test_resharding_with_shared_store_stays_deterministic(
        self, serial_report, tmp_path
    ):
        store_path = str(tmp_path / "verdicts.jsonl")
        for n_shards in (1, 3, 4):
            result = run_farm(
                farm_config(n_shards=n_shards, verdict_store=store_path)
            )
            assert result.report.render_all() == serial_report.render_all()

    def test_store_config_mismatch_fails_the_run(self, tmp_path):
        store_path = str(tmp_path / "verdicts.jsonl")
        VerdictStore(store_path, pipeline_config(droidnative_threshold=0.5)).close()
        # the coordinator validates before launching any shard
        with pytest.raises(StoreError):
            run_farm(farm_config(n_shards=2, verdict_store=store_path))


# -- CLI ------------------------------------------------------------------------


class TestStoreCli:
    def test_measure_warm_store_reports_zero_misses(self, tmp_path, capsys):
        store = tmp_path / "verdicts.jsonl"
        metrics = tmp_path / "metrics.json"
        argv = [
            "measure", "--apps", str(N_APPS), "--seed", str(SEED),
            "--train", "2", "--no-replays", "--table", "2",
            "--verdict-store", str(store), "--metrics-out", str(metrics),
        ]
        assert main(argv) == 0
        cold = json.loads(metrics.read_text())
        assert cold["counters"]["store.detection.miss"] > 0
        capsys.readouterr()

        assert main(argv) == 0
        warm = json.loads(metrics.read_text())
        assert "store.detection.miss" not in warm["counters"]
        assert warm["counters"]["store.detection.hit"] > 0
        capsys.readouterr()

    def test_farm_cli_accepts_verdict_store(self, tmp_path, capsys):
        store = tmp_path / "verdicts.jsonl"
        metrics = tmp_path / "metrics.json"
        argv = [
            "farm", "run", "--apps", "12", "--seed", str(SEED),
            "--workers", "1", "--shards", "3", "--train", "2",
            "--no-replays", "--table", "2",
            "--verdict-store", str(store), "--metrics-out", str(metrics),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        capsys.readouterr()
        summary = json.loads(metrics.read_text())["verdict_store"]
        assert summary["detection"]["misses"] == 0

    def test_store_compact_cli(self, tmp_path, capsys):
        path = tmp_path / "verdicts.jsonl"
        with VerdictStore(path, pipeline_config()) as store:
            store.put_detection("d1", DETECTION)
        duplicate = path.read_bytes().splitlines(keepends=True)[1]
        with path.open("ab") as handle:
            handle.write(duplicate)
        assert main(["store", "compact", str(path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["kind"] == "verdict store"
        assert stats["entries"] == 1
        assert stats["dropped_duplicates"] == 1
        with VerdictStore(path, pipeline_config()) as store:
            assert store.get_detection("d1") == (True, DETECTION)

    def test_store_compact_cli_detects_warehouse(self, tmp_path, capsys):
        from repro.evolution import SnapshotWarehouse

        path = tmp_path / "warehouse.jsonl"
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(
                {"package": "com.a", "metadata": {"version_code": 1}}
            )
            warehouse.append(
                {"package": "com.b", "metadata": {"version_code": 1}}
            )
        # warehouses from before the sidecar carry in-file index lines
        lines = path.read_bytes().splitlines(keepends=True)
        index_line = b'{"entries": {}, "kind": "index"}\n'
        path.write_bytes(b"".join(lines[:2] + [index_line] + lines[2:] + [index_line]))
        assert main(["store", "compact", str(path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["kind"] == "warehouse"
        assert stats["snapshots"] == 2
        assert stats["dropped_index_lines"] == 2  # interior + old trailing
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.get("com.a", 1)["package"] == "com.a"
            assert warehouse.get("com.b", 1)["package"] == "com.b"
