"""The longitudinal evolution subsystem: lineages, warehouse, differ, runner."""

import functools
import json
import sqlite3

import pytest

import repro.evolution.runner as runner_module
from repro.cli import main
from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.core.report import AppAnalysis, PayloadVerdict
from repro.corpus.generator import CorpusGenerator
from repro.corpus.metadata import AppMetadata
from repro.dynamic.interceptor import PayloadKind
from repro.dynamic.provenance import Entity, Provenance
from repro.evolution import (
    DriftSeverity,
    EvolveConfig,
    LineageSpec,
    SnapshotWarehouse,
    WarehouseError,
    build_timeline,
    build_version_record,
    diff_analyses,
    diff_digest,
    plan_lineages,
    run_evolution,
    run_lineage_shard,
)
from repro.evolution.lineage import plan_lineage
from repro.static_analysis.malware.droidnative import Detection
from repro.static_analysis.prefilter import PrefilterResult
from tests.helpers import dying_shard

N_APPS = 14
N_VERSIONS = 3
SEED = 23


def pipeline_config(**overrides):
    defaults = dict(train_samples_per_family=2, run_replays=False)
    defaults.update(overrides)
    return DyDroidConfig(**defaults)


def evolve_config(**overrides):
    defaults = dict(
        n_apps=N_APPS,
        n_versions=N_VERSIONS,
        seed=SEED,
        workers=1,
        spec=LineageSpec(malicious_hazard=0.3),
        pipeline=pipeline_config(),
    )
    defaults.update(overrides)
    return EvolveConfig(**defaults)


def metadata(**overrides):
    defaults = dict(
        category="Tools",
        downloads=1000,
        n_ratings=50,
        avg_rating=4.0,
        release_time_ms=1_500_000_000_000,
        version_code=1,
    )
    defaults.update(overrides)
    return AppMetadata(**defaults)


def analysis(package="com.example.app", version_code=1, **overrides):
    defaults = dict(
        package=package,
        metadata=metadata(version_code=version_code),
        prefilter=PrefilterResult(
            has_dex_dcl=True, dex_call_site_classes=["com.example.app.Loader"]
        ),
    )
    defaults.update(overrides)
    return AppAnalysis(**defaults)


def payload(path="/data/p.jar", **overrides):
    defaults = dict(
        path=path,
        kind=PayloadKind.DEX,
        entity=Entity.THIRD_PARTY,
        provenance=Provenance.LOCAL,
        digest="a" * 64,
    )
    defaults.update(overrides)
    return PayloadVerdict(**defaults)


DETECTION = Detection(
    family="swiss-code-monkeys",
    score=0.97,
    matched_sample_id="scm-01",
    matched_functions=9,
    total_functions=10,
)


# -- lineage planning -------------------------------------------------------------


class TestLineagePlanning:
    def test_plan_is_deterministic(self):
        spec = LineageSpec(malicious_hazard=0.4)
        first = plan_lineages(N_APPS, N_VERSIONS, seed=SEED, spec=spec)
        second = plan_lineages(N_APPS, N_VERSIONS, seed=SEED, spec=spec)
        assert [lineage.package for lineage in first] == [
            lineage.package for lineage in second
        ]
        for a, b in zip(first, second):
            assert [v.version_code for v in a.versions] == [
                v.version_code for v in b.versions
            ]
            assert [v.mutations for v in a.versions] == [
                v.mutations for v in b.versions
            ]

    def test_one_app_plans_alone_as_in_its_corpus(self):
        spec = LineageSpec(malicious_hazard=0.4)
        plans = plan_lineages(N_APPS, N_VERSIONS, seed=SEED, spec=spec)
        blueprints = CorpusGenerator(seed=SEED).sample_blueprints(N_APPS)
        for blueprint in reversed(blueprints):
            alone = plan_lineage(blueprint, N_VERSIONS, SEED, spec)
            assert alone == plans[blueprint.index]

    def test_built_apks_are_byte_identical_across_independent_runs(self):
        def digests():
            generator = CorpusGenerator(seed=SEED)
            plans = plan_lineages(
                N_APPS, N_VERSIONS, seed=SEED, spec=LineageSpec(malicious_hazard=0.3)
            )
            return [
                build_version_record(generator, version).apk.sha256()
                for lineage in plans
                for version in lineage.versions
            ]

        assert digests() == digests()

    def test_version_codes_strictly_increase(self):
        for lineage in plan_lineages(N_APPS, 4, seed=SEED):
            codes = [v.version_code for v in lineage.versions]
            assert codes == sorted(codes)
            assert len(set(codes)) == len(codes)

    def test_release_times_strictly_increase(self):
        for lineage in plan_lineages(N_APPS, 4, seed=SEED):
            offsets = [v.release_offset_ms for v in lineage.versions]
            assert offsets[0] == 0
            assert all(a < b for a, b in zip(offsets, offsets[1:]))

    def test_zero_spec_plans_no_mutations(self):
        spec = LineageSpec(0.0, 0.0, 0.0, 0.0, 0.0)
        for lineage in plan_lineages(N_APPS, 4, seed=SEED, spec=spec):
            assert all(not v.mutations for v in lineage.versions)

    def test_once_malicious_always_malicious(self):
        spec = LineageSpec(malicious_hazard=1.0)
        plans = plan_lineages(N_APPS, 4, seed=SEED, spec=spec)
        turned = [l for l in plans if l.turned_malicious_at is not None]
        assert turned, "hazard 1.0 must turn some lineages"
        for lineage in turned:
            at = lineage.turned_malicious_at
            assert at == 2  # eligible apps flip at the first opportunity
            for version in lineage.versions:
                if version.version >= at:
                    assert version.blueprint.malware_family is not None

    def test_unmutated_versions_reuse_payload_bytes(self):
        spec = LineageSpec(0.0, 0.0, 0.0, 0.0, 0.0)
        generator = CorpusGenerator(seed=SEED)
        lineage = plan_lineages(N_APPS, 3, seed=SEED, spec=spec)[0]
        pipeline = DyDroid(pipeline_config())
        payload_sets = []
        for version in lineage.versions:
            record = build_version_record(generator, version)
            result = pipeline.analyze_app(record)
            payload_sets.append(sorted((p.path, p.digest) for p in result.payloads))
        pipeline.close()
        assert payload_sets[0] == payload_sets[1] == payload_sets[2]

    def test_version_code_stamped_into_manifest_and_metadata(self):
        generator = CorpusGenerator(seed=SEED)
        lineage = plan_lineages(N_APPS, 2, seed=SEED)[0]
        final = lineage.versions[-1]
        record = build_version_record(generator, final)
        assert record.apk.manifest.version_code == final.version_code
        assert record.metadata.version_code == final.version_code

    def test_generator_lineage_hook(self):
        generator = CorpusGenerator(seed=SEED)
        plans = generator.lineage(N_APPS, 2)
        assert len(plans) == N_APPS
        assert all(len(lineage.versions) == 2 for lineage in plans)


# -- serialization plumbing -------------------------------------------------------


class TestVersionCodeRoundTrip:
    def test_round_trips_through_dict(self):
        app = analysis(version_code=9)
        assert AppAnalysis.from_dict(app.to_dict()).version_code == 9

    def test_legacy_dicts_default_to_version_one(self):
        data = analysis().to_dict()
        del data["metadata"]["version_code"]
        assert AppAnalysis.from_dict(data).version_code == 1


# -- snapshot warehouse -----------------------------------------------------------


class TestSnapshotWarehouse:
    def test_round_trip_is_byte_identical(self, tmp_path):
        app = analysis(version_code=4, payloads=[payload()])
        with SnapshotWarehouse(tmp_path / "w.jsonl") as warehouse:
            assert warehouse.append(app)
        with SnapshotWarehouse(tmp_path / "w.jsonl") as warehouse:
            stored = warehouse.get(app.package, 4)
        assert json.dumps(stored, sort_keys=True) == json.dumps(
            app.to_dict(), sort_keys=True
        )

    def test_duplicate_append_is_a_noop(self, tmp_path):
        app = analysis(version_code=2)
        with SnapshotWarehouse(tmp_path / "w.jsonl") as warehouse:
            assert warehouse.append(app)
            assert not warehouse.append(app)
            assert len(warehouse) == 1

    def test_read_only_open_does_not_grow_the_file(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(analysis())
        size = path.stat().st_size
        with SnapshotWarehouse(path):
            pass
        assert path.stat().st_size == size

    def test_append_after_seal_invalidates_fast_path(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(analysis(version_code=1))
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(analysis(version_code=2))
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.versions("com.example.app") == [1, 2]

    def test_sibling_appends_survive_concurrent_seal(self, tmp_path):
        path = tmp_path / "w.jsonl"
        first = SnapshotWarehouse(path)
        second = SnapshotWarehouse(path)
        first.append(analysis(package="com.a", version_code=1))
        second.append(analysis(package="com.b", version_code=1))
        first.close()  # com.b, appended by a sibling, must survive
        second.close()
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.packages() == ["com.a", "com.b"]

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"kind": "header", "version": 99, "serialization": 1}\n')
        with pytest.raises(WarehouseError):
            SnapshotWarehouse(path)

    def test_failed_append_leaves_no_key_behind(self, tmp_path, monkeypatch):
        import repro.store.log as log_module

        app = analysis(version_code=3)
        with SnapshotWarehouse(tmp_path / "w.jsonl") as warehouse:

            def disk_full(fd, data, offset=None):
                raise OSError(28, "No space left on device")

            with monkeypatch.context() as patch:
                patch.setattr(log_module, "_write", disk_full)
                with pytest.raises(OSError):
                    warehouse.append(app)
            assert (app.package, 3) not in warehouse and len(warehouse) == 0
            assert warehouse.append(app)  # the retry stores it
            assert (app.package, 3) in warehouse
            assert warehouse.get(app.package, 3)["package"] == app.package


def _unavailable_sqlite(*args, **kwargs):
    raise sqlite3.OperationalError("unable to open database file")


class TestWarehouseSidecar:
    """The sqlite sidecar: cheap reopen even after a crashed writer."""

    def test_sealed_reopen_uses_sidecar(self, tmp_path):
        from repro.store import sqlite_available

        if not sqlite_available():
            pytest.skip("sqlite3 unavailable")
        path = tmp_path / "w.jsonl"
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(analysis(version_code=1))
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.full_scans == 0
            assert warehouse.versions("com.example.app") == [1]

    def test_unsealed_crash_scans_only_the_tail(self, tmp_path):
        from repro.store import sqlite_available

        if not sqlite_available():
            pytest.skip("sqlite3 unavailable")
        path = tmp_path / "w.jsonl"
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(analysis(version_code=1))
        # a writer died between its JSONL append and its sidecar commit
        line = path.read_bytes().splitlines(keepends=True)[1]
        with path.open("ab") as handle:
            handle.write(line.replace(b'"version_code": 1', b'"version_code": 2'))
        with SnapshotWarehouse(path) as warehouse:
            # the sidecar's watermark covers v1: open scans only the tail
            assert warehouse.full_scans == 0
            assert warehouse.versions("com.example.app") == [1, 2]
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.full_scans == 0  # and the tail is indexed now
            assert warehouse.counts() == {"com.example.app": 2}

    def test_without_sidecar_behaves_as_before(self, tmp_path, monkeypatch):
        from repro.store import index_path

        monkeypatch.setattr(sqlite3, "connect", _unavailable_sqlite)
        path = tmp_path / "w.jsonl"
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(analysis(version_code=1))
        assert not index_path(path).exists()
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.full_scans == 1  # the scan the sidecar saves
            assert warehouse.versions("com.example.app") == [1]
            assert warehouse.get_analysis("com.example.app", 1).version_code == 1

    def test_counts_come_from_the_sidecar(self, tmp_path):
        from repro.store import sqlite_available

        if not sqlite_available():
            pytest.skip("sqlite3 unavailable")
        path = tmp_path / "w.jsonl"
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(analysis(package="com.a", version_code=1))
            warehouse.append(analysis(package="com.a", version_code=2))
            warehouse.append(analysis(package="com.b", version_code=1))
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.full_scans == 0
            assert warehouse.counts() == {"com.a": 2, "com.b": 1}

    def test_warm_open_never_full_scans(self, tmp_path):
        """Regression: counts()/warm opens must not rescan the log."""
        from repro.store import sqlite_available

        if not sqlite_available():
            pytest.skip("sqlite3 unavailable")
        path = tmp_path / "w.jsonl"
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(analysis(package="com.a", version_code=1))
            warehouse.append(analysis(package="com.b", version_code=1))
            assert warehouse.full_scans == 0
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.counts() == {"com.a": 1, "com.b": 1}
            assert warehouse.versions("com.a") == [1]
            assert warehouse.full_scans == 0

    def test_cold_open_without_any_index_scans_once(self, tmp_path, monkeypatch):
        from repro.store import index_path

        path = tmp_path / "w.jsonl"
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(analysis(package="com.a", version_code=1))
        index_path(path).unlink()
        monkeypatch.setattr(sqlite3, "connect", _unavailable_sqlite)
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.full_scans == 1
            assert warehouse.counts() == {"com.a": 1}


class TestCompactWarehouse:
    def test_compaction_drops_debris_and_preserves_lookups(self, tmp_path):
        from repro.evolution import compact_warehouse

        path = tmp_path / "w.jsonl"
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(analysis(package="com.a", version_code=1))
            warehouse.append(analysis(package="com.b", version_code=1))
            expected = warehouse.get("com.a", 1)
        header, duplicate, rest = path.read_bytes().splitlines(keepends=True)
        # an interior index line, as warehouses from before the sidecar have
        path.write_bytes(header + duplicate + b'{"entries": {}, "kind": "index"}\n' + rest)
        with path.open("ab") as handle:
            handle.write(duplicate)
            handle.write(b"junk line\n")
            handle.write(b'{"kind": "snapshot", "package": "com.torn')
        stats = compact_warehouse(path)
        assert stats["snapshots"] == 2
        assert stats["dropped_duplicates"] == 1
        assert stats["dropped_corrupt"] == 2  # junk + torn tail
        assert stats["dropped_index_lines"] >= 1
        assert stats["bytes_after"] < stats["bytes_before"]
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.full_scans == 0  # compaction rebuilt the sidecar
            assert warehouse.packages() == ["com.a", "com.b"]
            assert warehouse.get("com.a", 1) == expected
        assert compact_warehouse(path)["bytes_after"] == stats["bytes_after"]

    def test_rejects_foreign_files(self, tmp_path):
        from repro.evolution import compact_warehouse

        with pytest.raises(WarehouseError):
            compact_warehouse(tmp_path / "missing.jsonl")
        junk = tmp_path / "junk.jsonl"
        junk.write_text("hello\n")
        with pytest.raises(WarehouseError):
            compact_warehouse(junk)


# -- differ -----------------------------------------------------------------------


class TestDiffer:
    def test_identical_snapshots_diff_empty(self):
        app = analysis(payloads=[payload()])
        diff = diff_analyses(app, app)
        assert diff.is_empty
        assert diff.severity is DriftSeverity.NONE

    def test_package_mismatch_raises(self):
        with pytest.raises(ValueError):
            diff_analyses(analysis(package="com.a"), analysis(package="com.b"))

    def test_local_to_remote_is_suspicious(self):
        old = analysis(version_code=1, payloads=[payload()])
        new = analysis(
            version_code=2,
            payloads=[
                payload(
                    provenance=Provenance.REMOTE,
                    remote_sources=("http://cdn.example.com/p.jar",),
                )
            ],
        )
        diff = diff_analyses(old, new)
        assert diff.severity is DriftSeverity.SUSPICIOUS
        assert any(f.kind == "provenance_remote" for f in diff.findings)

    def test_malicious_flip_is_critical(self):
        old = analysis(version_code=1, payloads=[payload()])
        new = analysis(
            version_code=2, payloads=[payload(detection=DETECTION)]
        )
        diff = diff_analyses(old, new)
        assert diff.severity is DriftSeverity.CRITICAL
        assert any(f.kind == "verdict_malicious" for f in diff.findings)

    def test_digest_churn_is_benign(self):
        old = analysis(version_code=1, payloads=[payload(digest="a" * 64)])
        new = analysis(version_code=2, payloads=[payload(digest="b" * 64)])
        diff = diff_analyses(old, new)
        assert diff.severity is DriftSeverity.BENIGN
        assert any(f.kind == "payload_digest" for f in diff.findings)

    def test_dcl_introduction_is_suspicious(self):
        old = analysis(version_code=1, prefilter=PrefilterResult())
        new = analysis(version_code=2)
        diff = diff_analyses(old, new)
        assert any(f.kind == "dcl_introduced" for f in diff.findings)
        assert diff.severity is DriftSeverity.SUSPICIOUS

    def test_diff_digest_is_order_insensitive(self):
        pairs = [
            (analysis(package="com.a", version_code=1),
             analysis(package="com.a", version_code=2,
                      payloads=[payload(detection=DETECTION)])),
            (analysis(package="com.b", version_code=1, payloads=[payload()]),
             analysis(package="com.b", version_code=2, payloads=[])),
        ]
        forward = [diff_analyses(old, new) for old, new in pairs]
        backward = [diff_analyses(old, new) for old, new in reversed(pairs)]
        assert diff_digest(forward) == diff_digest(backward)


# -- timelines --------------------------------------------------------------------


class TestTimelines:
    def test_first_dcl_and_malicious_versions(self):
        snapshots = {
            "com.a": [
                analysis(package="com.a", version_code=1,
                         prefilter=PrefilterResult()),
                analysis(package="com.a", version_code=3),
                analysis(package="com.a", version_code=5,
                         payloads=[payload(detection=DETECTION)]),
            ]
        }
        timeline = build_timeline(snapshots)
        pkg = timeline.packages[0]
        assert pkg.first_dcl_version == 3
        assert pkg.first_malicious_version == 5
        assert pkg.dcl_introduced_after_v1

    def test_digest_survival_counts_versions(self):
        snapshots = {
            "com.a": [
                analysis(package="com.a", version_code=v,
                         payloads=[payload(digest="c" * 64)])
                for v in (1, 2, 3)
            ]
        }
        timeline = build_timeline(snapshots)
        survival = timeline.survival_summary()
        assert survival == {"digests": 1, "mean_versions": 3.0, "full_lifetime": 1}

    def test_entity_flip_rate(self):
        snapshots = {
            "com.a": [
                analysis(package="com.a", version_code=1, payloads=[payload()]),
                analysis(package="com.a", version_code=2,
                         payloads=[payload(detection=DETECTION)]),
            ]
        }
        rates = build_timeline(snapshots).flip_rates()
        assert rates["third-party"] == {"transitions": 1, "flips": 1, "rate": 1.0}


# -- end-to-end runner ------------------------------------------------------------


class TestRunEvolution:
    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("evolution")
        store = str(tmp / "verdicts.jsonl")
        config = evolve_config(
            warehouse=str(tmp / "warehouse.jsonl"), verdict_store=store
        )
        return config, run_evolution(config)

    def test_every_version_of_every_app_analyzed(self, cold):
        config, result = cold
        assert [report.n_total for report in result.reports] == [N_APPS] * N_VERSIONS
        assert result.metrics["snapshots_analyzed"] == N_APPS * N_VERSIONS

    def test_warehouse_holds_every_snapshot(self, cold):
        config, result = cold
        with SnapshotWarehouse(config.warehouse) as warehouse:
            assert len(warehouse) == N_APPS * N_VERSIONS
            for package in warehouse.packages():
                assert len(warehouse.versions(package)) == N_VERSIONS

    def test_cold_store_misses_equal_distinct_digests(self, cold):
        config, result = cold
        store = result.metrics["verdict_store"]
        cache = result.metrics["verdict_cache"]
        for kind in ("detection", "privacy"):
            assert store[kind]["misses"] == cache[kind]["misses"] > 0
            assert store[kind]["hits"] > 0  # unchanged versions reuse verdicts

    def test_warm_rerun_invokes_zero_analyzers(self, cold, monkeypatch):
        config, cold_result = cold

        def no_detect(self, binary, tracer=None):
            raise AssertionError("DroidNative ran against a warm store")

        def no_flow(dex, tracer=None):
            raise AssertionError("FlowDroid ran against a warm store")

        monkeypatch.setattr(
            "repro.static_analysis.malware.droidnative.DroidNative.detect", no_detect
        )
        monkeypatch.setattr("repro.core.pipeline.analyze_dex", no_flow)
        warm_config = evolve_config(
            warehouse=config.warehouse, verdict_store=config.verdict_store
        )
        warm = run_evolution(warm_config)
        for kind in ("detection", "privacy"):
            assert warm.metrics["verdict_store"][kind]["misses"] == 0
        for cold_report, warm_report in zip(cold_result.reports, warm.reports):
            assert warm_report.render_all() == cold_report.render_all()
        assert warm.diff_fingerprint == cold_result.diff_fingerprint

    def test_diffs_cover_planned_mutations(self, cold):
        config, result = cold
        plans = plan_lineages(
            config.n_apps, config.n_versions, seed=config.seed, spec=config.spec
        )
        turned = {
            lineage.package for lineage in plans if lineage.turned_malicious_at
        }
        critical = {
            diff.package
            for diff in result.diffs
            if diff.severity is DriftSeverity.CRITICAL
        }
        assert turned, "hazard 0.3 should turn at least one lineage"
        assert turned <= critical

    def test_timeline_matches_reports(self, cold):
        config, result = cold
        assert result.timeline.n_packages == N_APPS
        assert result.timeline.n_snapshots == N_APPS * N_VERSIONS

    def test_metrics_have_farm_parity_keys(self, cold):
        _, result = cold
        for key in (
            "apps", "versions", "snapshots_analyzed", "workers", "wall_s",
            "snapshots_per_second", "evolution", "drift", "verdict_cache",
            "verdict_store", "registry",
        ):
            assert key in result.metrics
        drift = result.metrics["drift"]
        assert sum(drift.values()) == N_APPS * (N_VERSIONS - 1)

    def test_rejects_zero_versions(self):
        with pytest.raises(ValueError):
            run_evolution(evolve_config(n_versions=0))


class TestWorkerCountInvariance:
    """What a run produces does not depend on how many workers ran it or
    on a worker process dying -- and a run that cannot finish raises."""

    @pytest.fixture(scope="class")
    def by_workers(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("workers")
        runs = {}
        for workers in (1, 2):
            warehouse = tmp / "warehouse-{}.jsonl".format(workers)
            result = run_evolution(
                evolve_config(workers=workers, n_shards=4, trace=True, warehouse=str(warehouse))
            )
            runs[workers] = (result, warehouse.read_bytes())
        return runs

    def test_trace_structure(self, by_workers):
        def structure(result):
            return [(span["name"], span["tid"], span["parent_id"]) for span in result.spans]

        assert structure(by_workers[1][0])
        assert structure(by_workers[1][0]) == structure(by_workers[2][0])

    def test_warehouse_bytes(self, by_workers):
        assert by_workers[1][1] == by_workers[2][1]
        assert by_workers[1][0].diff_fingerprint == by_workers[2][0].diff_fingerprint

    def test_a_worker_death_splits_its_shard_and_changes_nothing(
        self, by_workers, tmp_path, monkeypatch
    ):
        marker = tmp_path / "died"
        monkeypatch.setattr(
            runner_module, "run_lineage_shard",
            functools.partial(dying_shard, run_lineage_shard, 5, str(marker)),
        )
        warehouse = tmp_path / "warehouse.jsonl"
        result = run_evolution(
            evolve_config(workers=2, n_shards=4, trace=True, warehouse=str(warehouse))
        )
        assert marker.exists()
        assert warehouse.read_bytes() == by_workers[1][1]
        assert result.diff_fingerprint == by_workers[1][0].diff_fingerprint

    def test_an_app_that_always_kills_its_worker_raises(self, monkeypatch):
        monkeypatch.setattr(
            runner_module, "run_lineage_shard",
            functools.partial(dying_shard, run_lineage_shard, 5, None),
        )
        with pytest.raises(RuntimeError, match="worker process died"):
            run_evolution(evolve_config(workers=2, n_shards=4))


# -- CLI --------------------------------------------------------------------------


class TestEvolveCli:
    def test_run_diff_report_round_trip(self, tmp_path, capsys):
        warehouse = str(tmp_path / "warehouse.jsonl")
        argv = [
            "evolve", "run", "--apps", str(N_APPS), "--versions", "2",
            "--seed", str(SEED), "--train", "2", "--no-replays",
            "--workers", "1", "--hazard", "0.3", "--warehouse", warehouse,
            "--verdict-store", str(tmp_path / "verdicts.jsonl"),
            "--metrics-out", str(tmp_path / "metrics.json"),
        ]
        assert main(argv) == 0
        run_out = capsys.readouterr().out
        assert "[diff digest: " in run_out

        assert main(["evolve", "diff", "--warehouse", warehouse]) == 0
        first = capsys.readouterr().out
        assert main(["evolve", "diff", "--warehouse", warehouse]) == 0
        second = capsys.readouterr().out
        assert first == second  # byte-stable across invocations
        assert "[diff digest: " in first

        assert main(["evolve", "report", "--warehouse", warehouse]) == 0
        report_out = capsys.readouterr().out
        assert "EVOLUTION TIMELINE" in report_out

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["snapshots_analyzed"] == N_APPS * 2

    def test_diff_json_carries_digest(self, tmp_path, capsys):
        warehouse = str(tmp_path / "warehouse.jsonl")
        assert main([
            "evolve", "run", "--apps", str(N_APPS), "--versions", "2",
            "--seed", str(SEED), "--train", "2", "--no-replays",
            "--workers", "1", "--warehouse", warehouse,
        ]) == 0
        capsys.readouterr()
        assert main(["evolve", "diff", "--warehouse", warehouse, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"diffs", "diff_digest"}

    def test_trace_out_parity_with_farm_run(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "evolve", "run", "--apps", str(N_APPS), "--versions", "2",
            "--seed", str(SEED), "--train", "2", "--no-replays",
            "--workers", "1", "--trace-out", str(trace),
        ]) == 0
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(span["name"] == "evolve.build" for span in spans)
