"""End-to-end tests of the DyDroid pipeline and the measurement report."""

import pytest

from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.core.report import MeasurementReport
from repro.corpus.generator import CorpusGenerator, generate_corpus
from repro.dynamic.engine import DynamicOutcome
from repro.dynamic.provenance import Entity
from repro.static_analysis.malware import families


@pytest.fixture(scope="module")
def measured():
    """One measured 500-app corpus shared by the assertions below."""
    corpus = generate_corpus(500, seed=21)
    dydroid = DyDroid(DyDroidConfig(train_samples_per_family=2))
    report = dydroid.measure(corpus)
    return corpus, report


class TestPipelineEndToEnd:
    def test_every_app_analyzed(self, measured):
        corpus, report = measured
        assert report.n_total == len(corpus)

    def test_table2_shape(self, measured):
        _, report = measured
        summary = report.dynamic_summary()
        for side in ("dex", "native"):
            row = summary[side]
            assert row["failure"] == (
                row["rewriting_failure"] + row["no_activity"] + row["crash"]
            )
            assert row["failure"] + row["exercised"] == row["candidates"]
            assert row["failure"] / row["candidates"] < 0.06
            assert row["intercepted"] <= row["exercised"]
        # interception rates echo the paper: ~41% (dex), ~54% (native).
        assert 0.30 <= summary["dex"]["intercepted"] / summary["dex"]["candidates"] <= 0.55
        assert 0.40 <= summary["native"]["intercepted"] / summary["native"]["candidates"] <= 0.70

    def test_table3_dcl_apps_more_popular(self, measured):
        _, report = measured
        table = report.popularity()
        assert table["DEX"]["downloads"] > table["Without DEX"]["downloads"]
        assert table["Native"]["downloads"] > table["Without Native"]["downloads"]
        assert table["Native"]["n_ratings"] > table["Without Native"]["n_ratings"]

    def test_table4_third_party_dominates(self, measured):
        _, report = measured
        table = report.entity_table()
        assert table["dex"]["third"] / table["dex"]["apps"] > 0.9
        assert table["native"]["third"] / table["native"]["apps"] > 0.7
        assert table["native"]["own"] / table["native"]["apps"] > 0.05

    def test_table5_remote_is_baidu_only(self, measured):
        corpus, report = measured
        rows = report.remote_fetch_apps()
        planted = {r.package for r in corpus if r.blueprint.is_baidu_remote}
        assert {package for package, _ in rows} == planted
        for _, urls in rows:
            assert all(url.startswith("http://mobads.baidu.com/") for url in urls)

    def test_table6_rates(self, measured):
        _, report = measured
        counts = report.obfuscation_table()
        n = report.n_total
        assert 0.82 <= counts["Lexical"] / n <= 0.96
        assert 0.45 <= counts["Reflection"] / n <= 0.60
        assert counts["DEX encryption"] >= 1
        assert counts["Anti-decompilation"] >= 1
        # native (dynamically confirmed) sits near the paper's 23.4%.
        assert 0.12 <= counts["Native"] / n <= 0.33

    def test_fig3_packed_categories(self, measured):
        _, report = measured
        from repro.corpus.profiles import FIG3_CATEGORY_WEIGHTS

        for category in report.dex_encryption_by_category():
            assert category in FIG3_CATEGORY_WEIGHTS

    def test_table7_families_found(self, measured):
        corpus, report = measured
        table = report.malware_table()
        planted = {
            r.blueprint.malware_family for r in corpus if r.blueprint.malware_family
        }
        assert set(table) == planted
        for family, row in table.items():
            assert row["n_apps"] >= 1
            assert row["n_files"] >= row["n_apps"]

    def test_malware_not_flagged_on_benign_apps(self, measured):
        corpus, report = measured
        planted = {
            r.package for r in corpus if r.blueprint.malware_family is not None
        }
        flagged = {a.package for a in report.apps if a.malicious_payloads()}
        assert flagged == planted  # zero false positives, zero misses

    def test_table8_replays_present(self, measured):
        _, report = measured
        table = report.runtime_config_table()
        assert set(table) == {
            "system-time-before-release",
            "airplane-wifi-on",
            "airplane-wifi-off",
            "location-off",
        }
        total = report.malicious_file_count()
        for bucket in table.values():
            assert bucket["total"] == total
            assert 0 <= bucket["loaded"] <= total

    def test_table8_wifi_on_loads_at_least_wifi_off(self, measured):
        _, report = measured
        table = report.runtime_config_table()
        assert table["airplane-wifi-on"]["loaded"] >= table["airplane-wifi-off"]["loaded"]

    def test_table9_vulnerabilities(self, measured):
        corpus, report = measured
        table = report.vulnerability_table()
        kinds = set(table)
        assert ("dex", "external-storage") in kinds
        assert ("native", "other-app-internal-storage") in kinds
        planted = {r.package for r in corpus if r.blueprint.vuln_kind}
        found = {pkg for rows in table.values() for pkg, _ in rows}
        assert found == planted

    def test_table10_settings_dominates(self, measured):
        _, report = measured
        table = report.privacy_table()
        assert "Settings" in table
        n_intercepted = sum(1 for a in report.apps if a.dex_intercepted)
        assert table["Settings"]["n_apps"] / n_intercepted > 0.9
        for row in table.values():
            assert row["exclusively_third"] <= row["n_apps"]

    def test_table10_mostly_third_party(self, measured):
        _, report = measured
        table = report.privacy_table()
        exclusive = sum(row["exclusively_third"] for row in table.values())
        total = sum(row["n_apps"] for row in table.values())
        assert exclusive / total > 0.9

    def test_render_all_contains_every_table(self, measured):
        _, report = measured
        text = report.render_all()
        for marker in (
            "TABLE II", "TABLE III", "TABLE IV", "TABLE V", "TABLE VI",
            "FIGURE 3", "TABLE VII", "TABLE VIII", "TABLE IX", "TABLE X",
        ):
            assert marker in text


class TestPipelineUnits:
    def test_anti_decompilation_app_short_circuits(self):
        generator = CorpusGenerator(seed=5)
        blueprints = generator.sample_blueprints(600)
        target = next(b for b in blueprints if b.anti_decompilation)
        record = generator.build_record(target)
        analysis = DyDroid(DyDroidConfig(run_malware=False)).analyze_app(record)
        assert analysis.decompile_failed
        assert analysis.obfuscation.anti_decompilation
        assert analysis.dynamic is None

    def test_non_dcl_app_skips_dynamic(self):
        generator = CorpusGenerator(seed=5)
        blueprints = generator.sample_blueprints(600)
        target = next(
            b for b in blueprints
            if not b.has_dex_dcl_code and not b.has_native_code and not b.anti_decompilation
        )
        record = generator.build_record(target)
        analysis = DyDroid(DyDroidConfig(run_malware=False)).analyze_app(record)
        assert analysis.dynamic is None
        assert not analysis.has_dex_dcl_code

    def test_packed_app_pipeline(self):
        generator = CorpusGenerator(seed=5)
        blueprints = generator.sample_blueprints(600)
        target = next(b for b in blueprints if b.is_packed)
        record = generator.build_record(target)
        analysis = DyDroid(DyDroidConfig(run_malware=False, run_privacy=False)).analyze_app(record)
        assert analysis.obfuscation.dex_encryption
        assert analysis.outcome is DynamicOutcome.EXERCISED
        # the decrypted payload was intercepted when the container loaded it.
        assert analysis.dynamic.intercepted_any
        assert "real app running" in " ".join(analysis.dynamic.logcat)

    def test_replays_disabled(self):
        corpus = generate_corpus(400, seed=33)
        target = next(r for r in corpus if r.blueprint.malware_family)
        dydroid = DyDroid(DyDroidConfig(train_samples_per_family=2, run_replays=False))
        analysis = dydroid.analyze_app(target)
        assert analysis.malicious_payloads()
        assert analysis.replay_loaded == {}

    def test_replays_are_traced(self):
        from repro.observe import Tracer

        corpus = generate_corpus(400, seed=33)
        target = next(r for r in corpus if r.blueprint.malware_family)
        config = DyDroidConfig(train_samples_per_family=2)
        tracer = Tracer()
        analysis = DyDroid(config, tracer=tracer).analyze_app(target)
        assert analysis.malicious_payloads()
        spans = tracer.to_dicts()
        (replay,) = [s for s in spans if s["name"] == "replay"]
        sessions = [
            s for s in spans
            if s["name"] == "engine.session" and s["parent_id"] == replay["span_id"]
        ]
        assert [s["attrs"]["environment"] for s in sessions] == [
            env.name for env in config.replay_configs
        ]

    def test_detection_cache_hits(self):
        corpus = generate_corpus(400, seed=33)
        dydroid = DyDroid(DyDroidConfig(train_samples_per_family=2))
        target = next(r for r in corpus if r.blueprint.uses_google_ads)
        dydroid.analyze_app(target)
        assert dydroid._verdict_caches["detection"]  # payload verdicts were cached


class TestTypeAnnotations:
    def test_replay_annotations_resolve(self):
        # Regression: `_replay` is annotated `Dict[str, Set[str]]`; with
        # `from __future__ import annotations` a missing `Dict` import only
        # explodes when the hints are actually evaluated.
        import typing

        hints = typing.get_type_hints(DyDroid._replay)
        assert hints["return"] == typing.Dict[str, typing.Set[str]]


class TestLruCacheBehaviour:
    def test_eviction_order_is_least_recently_used(self):
        from repro.core.pipeline import LruCache

        cache = LruCache(capacity=3)
        cache["a"], cache["b"], cache["c"] = 1, 2, 3
        cache["a"]  # touch via __getitem__: order is now b, c, a
        cache["d"] = 4  # evicts b
        cache["e"] = 5  # evicts c
        assert "b" not in cache and "c" not in cache
        assert "a" in cache and "d" in cache and "e" in cache

    def test_contains_moves_to_end(self):
        from repro.core.pipeline import LruCache

        cache = LruCache(capacity=2)
        cache["a"], cache["b"] = 1, 2
        assert "a" in cache  # membership probe refreshes recency
        cache["c"] = 3
        assert "b" not in cache
        assert "a" in cache

    def test_contains_miss_does_not_insert(self):
        from repro.core.pipeline import LruCache

        cache = LruCache(capacity=2)
        assert "ghost" not in cache
        assert len(cache) == 0

    def test_reinserting_existing_key_updates_value_and_recency(self):
        from repro.core.pipeline import LruCache

        cache = LruCache(capacity=2)
        cache["a"], cache["b"] = 1, 2
        cache["a"] = 10
        cache["c"] = 3  # evicts b, not the freshly-updated a
        assert cache["a"] == 10
        assert "b" not in cache

    @pytest.mark.parametrize("kind", ["detection", "privacy"])
    def test_cache_hit_miss_counters_on_reanalysis(self, kind):
        from repro.observe import MetricsRegistry

        corpus = generate_corpus(400, seed=33)
        target = next(r for r in corpus if r.blueprint.uses_google_ads)
        registry = MetricsRegistry()
        dydroid = DyDroid(
            DyDroidConfig(train_samples_per_family=2, run_replays=False),
            metrics=registry,
        )
        dydroid.analyze_app(target)
        lookups = registry.counter_value("cache.{}.lookups".format(kind))
        misses = registry.counter_value("cache.{}.miss".format(kind))
        assert lookups >= 1 and misses >= 1
        # Same app again: every digest is now cached.
        dydroid.analyze_app(target)
        assert registry.counter_value("cache.{}.lookups".format(kind)) == 2 * lookups
        assert registry.counter_value("cache.{}.miss".format(kind)) == misses
        assert registry.counter_value("cache.{}.hit".format(kind)) == lookups
