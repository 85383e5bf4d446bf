"""The tier-0 triage subsystem: fingerprints, model, gate, service wiring."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import CorpusGenerator, generate_corpus
from repro.observe import MetricsRegistry
from repro.service.daemon import AnalysisService, ServiceConfig
from repro.service.spec import JobSpec, SpecError
from repro.store import VerdictStore
from repro.triage import (
    N_FEATURES,
    TriageError,
    TriageGate,
    TriageModel,
    fingerprint_session,
    train_model,
    vectorize,
)
from repro.triage.harness import evaluate_triage, train_triage_model
from repro.triage.tier import full_pipeline_label, load_harvest

TRAIN_APPS = 60
TRAIN_SEED = 7
EVAL_APPS = 40
EVAL_SEED = 99


def pipeline_config(**overrides):
    defaults = dict(train_samples_per_family=2, run_replays=False)
    defaults.update(overrides)
    return DyDroidConfig(**defaults)


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    trained, _ = train_triage_model(TRAIN_APPS, seed=TRAIN_SEED)
    path = tmp_path_factory.mktemp("triage") / "model.json"
    trained.save(str(path))
    return trained, str(path)


@pytest.fixture(scope="module")
def eval_corpus():
    return generate_corpus(EVAL_APPS, seed=EVAL_SEED)


def run_corpus(corpus, config, store_path=None):
    """Measure a corpus, returning (analyses, registry, store_counts)."""
    registry = MetricsRegistry()
    pipeline = DyDroid(config, metrics=registry, verdict_store=store_path)
    try:
        analyses = [pipeline.analyze_app(record) for record in corpus]
    finally:
        pipeline.close()
    counts = {}
    if store_path:
        store = VerdictStore(store_path, config)
        counts = store.counts()
        store.close()
    return analyses, registry, counts


@pytest.fixture(scope="module")
def baseline_run(eval_corpus):
    """Triage off, full analyzers: the ground truth for the gated run."""
    return run_corpus(eval_corpus, pipeline_config())


@pytest.fixture(scope="module")
def gated_run(eval_corpus, model, tmp_path_factory):
    _, path = model
    store = tmp_path_factory.mktemp("gated") / "verdicts.jsonl"
    config = pipeline_config(triage_model=path)
    return run_corpus(eval_corpus, config, store_path=str(store)) + (str(store),)


# -- fingerprints -----------------------------------------------------------------


def first_payload_session(corpus, config=None):
    pipeline = DyDroid(config or pipeline_config())
    try:
        for record in corpus:
            analysis = pipeline.analyze_app(record)
            if analysis.dynamic is not None and analysis.dynamic.intercepted_any:
                return analysis.package, analysis.dynamic
    finally:
        pipeline.close()
    raise AssertionError("corpus has no payload app")


class TestFingerprint:
    def test_identical_across_fresh_pipelines(self, eval_corpus):
        pkg1, dyn1 = first_payload_session(eval_corpus)
        pkg2, dyn2 = first_payload_session(eval_corpus)
        fp1 = fingerprint_session(pkg1, dyn1)
        fp2 = fingerprint_session(pkg2, dyn2)
        assert fp1.digest == fp2.digest
        # bit-identical, not approximately equal
        assert fp1.vector == fp2.vector
        assert fp1.features == fp2.features

    def test_shard_invariant(self, eval_corpus):
        """Analyzing the app alone vs. amid a shard changes nothing."""
        pkg, dyn = first_payload_session(eval_corpus)
        index = next(r.blueprint.index for r in eval_corpus if r.package == pkg)
        generator = CorpusGenerator(seed=EVAL_SEED)
        solo = generator.records_at(EVAL_APPS, [index])
        _, solo_dyn = first_payload_session(solo)
        assert fingerprint_session(pkg, solo_dyn).digest == \
            fingerprint_session(pkg, dyn).digest

    def test_trace_interleaving_invariant(self, eval_corpus):
        """Reversing event/payload/edge order leaves the fingerprint alone."""
        pkg, dyn = first_payload_session(eval_corpus)
        before = fingerprint_session(pkg, dyn)
        for seq in (
            dyn.dcl.dex_events,
            dyn.dcl.native_events,
            dyn.dcl.rejected_events,
            dyn.intercepted,
            dyn.tracker.edges,
        ):
            if isinstance(seq, list):
                seq.reverse()
        after = fingerprint_session(pkg, dyn)
        assert after.digest == before.digest
        assert after.vector == before.vector

    def test_vectorize_order_invariant(self):
        features = {"a": 2.0, "b": 1.0, "loader:x": 3.0, "dex_path:/p/q.jar": 1.0}
        shuffled = dict(reversed(list(features.items())))
        assert vectorize(features) == vectorize(shuffled)

    def test_restart_deterministic_under_hash_randomization(self, tmp_path):
        """Same digest from two processes with different PYTHONHASHSEED."""
        script = tmp_path / "fp.py"
        script.write_text(
            "from repro.core.config import DyDroidConfig\n"
            "from repro.core.pipeline import DyDroid\n"
            "from repro.corpus.generator import generate_corpus\n"
            "from repro.triage import fingerprint_session\n"
            "pipeline = DyDroid(DyDroidConfig(\n"
            "    train_samples_per_family=2, run_replays=False))\n"
            "for record in generate_corpus(12, seed={}):\n"
            "    a = pipeline.analyze_app(record)\n"
            "    if a.dynamic is not None and a.dynamic.intercepted_any:\n"
            "        print(fingerprint_session(a.package, a.dynamic).digest)\n"
            "        break\n"
            "pipeline.close()\n".format(EVAL_SEED)
        )
        digests = set()
        for hashseed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            out = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True, text=True, env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_vector_width_fixed(self, eval_corpus):
        pkg, dyn = first_payload_session(eval_corpus)
        assert len(fingerprint_session(pkg, dyn).vector) == N_FEATURES


# -- corpus split -----------------------------------------------------------------


class TestSplit:
    def test_partition(self):
        train, test = CorpusGenerator(seed=7).split(100)
        assert sorted(train + test) == list(range(100))
        assert not set(train) & set(test)
        assert train and test

    def test_deterministic(self):
        assert CorpusGenerator(seed=7).split(50) == CorpusGenerator(seed=7).split(50)

    def test_seed_sensitivity(self):
        base = CorpusGenerator(seed=7).split(100)
        assert CorpusGenerator(seed=8).split(100) != base
        assert CorpusGenerator(seed=7).split(100, split_seed=1) != base

    def test_ratio(self):
        train, test = CorpusGenerator(seed=7).split(100, ratio=0.8)
        assert len(train) == 80 and len(test) == 20

    def test_extremes_keep_both_halves_nonempty(self):
        train, test = CorpusGenerator(seed=7).split(2, ratio=0.01)
        assert len(train) == 1 and len(test) == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            CorpusGenerator(seed=7).split(1)
        with pytest.raises(ValueError):
            CorpusGenerator(seed=7).split(10, ratio=0.0)
        with pytest.raises(ValueError):
            CorpusGenerator(seed=7).split(10, ratio=1.0)


# -- model ------------------------------------------------------------------------


def toy_samples():
    hazard = {"loader:evil": 2.0, "payload_remote": 1.0}
    benign = {"loader:fine": 1.0}
    return [(vectorize(hazard), 1), (vectorize(benign), 0)] * 4


class TestModel:
    def test_training_deterministic(self):
        a = train_model(toy_samples(), seed=3)
        b = train_model(toy_samples(), seed=3)
        assert a.weights == b.weights and a.bias == b.bias

    def test_needs_both_classes(self):
        with pytest.raises(TriageError):
            train_model([(vectorize({"a": 1.0}), 0)] * 3)

    def test_json_round_trip_exact(self, tmp_path):
        model = train_model(toy_samples())
        path = tmp_path / "m.json"
        model.save(str(path))
        loaded = TriageModel.load(str(path))
        # repr-round-trippable floats: bit-identical weights and scores
        assert loaded.weights == model.weights
        assert loaded.bias == model.bias
        vector = toy_samples()[0][0]
        assert loaded.predict_proba(vector) == model.predict_proba(vector)
        assert loaded.config_fingerprint == model.config_fingerprint

    def test_version_mismatch_fails_loudly(self, tmp_path):
        model = train_model(toy_samples())
        doc = model.to_dict()
        doc["model_version"] = 99
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TriageError):
            TriageModel.load(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(TriageError):
            TriageModel.load(str(tmp_path / "absent.json"))

    def test_trained_model_separates_toys(self):
        model = train_model(toy_samples())
        hazard_vec, benign_vec = toy_samples()[0][0], toy_samples()[1][0]
        assert model.predict_proba(hazard_vec) > 0.5
        assert model.predict_proba(benign_vec) < 0.5


# -- the runtime gate -------------------------------------------------------------


def hazard_packages(analyses):
    return {a.package for a in analyses if full_pipeline_label(a)}


class TestGate:
    def test_gate_counters_and_provenance(self, gated_run):
        analyses, registry, _, _ = gated_run
        gated = registry.counter_value("triage.gated")
        hit = registry.counter_value("triage.hit")
        assert gated > 0 and hit > 0
        triaged = [a for a in analyses if a.verdict_source == "triage"]
        assert len(triaged) == hit
        for analysis in triaged:
            assert any(p.verdict_source == "triage" for p in analysis.payloads)

    def test_short_circuits_at_most_half_of_store_misses(self, gated_run):
        _, registry, _, _ = gated_run
        gated = registry.counter_value("triage.gated")
        fallthrough = registry.counter_value("triage.fallthrough")
        # acceptance: full analyzers on <= 50% of store-miss payload apps
        assert fallthrough <= gated / 2

    def test_fewer_analyzer_invocations_than_baseline(self, gated_run, baseline_run):
        _, gated_registry, _, _ = gated_run
        _, base_registry, _ = baseline_run
        for name in (
            "analyzer.droidnative.invocations",
            "analyzer.flowdroid.invocations",
        ):
            assert gated_registry.counter_value(name) <= base_registry.counter_value(name)
        assert gated_registry.counter_value("triage.analyzers_skipped") > 0

    def test_no_missed_hazards_vs_baseline(self, gated_run, baseline_run):
        gated_analyses, _, _, _ = gated_run
        base_analyses, _, _ = baseline_run
        flagged = {
            a.package
            for a in gated_analyses
            if full_pipeline_label(a)
            or (
                a.verdict_source == "triage"
                and any(p.detection is not None for p in a.payloads)
            )
        }
        assert hazard_packages(base_analyses) <= flagged

    def test_store_never_poisoned_by_triage(self, gated_run, eval_corpus, tmp_path):
        """Only tier-1 verdicts are published: the gated run's store is a
        strict subset of a triage-off run's store over the same corpus."""
        gated_analyses, _, gated_counts, _ = gated_run
        baseline_store = tmp_path / "baseline-verdicts.jsonl"
        _, _, base_counts = run_corpus(
            eval_corpus, pipeline_config(), store_path=str(baseline_store)
        )
        assert sum(gated_counts.values()) < sum(base_counts.values())
        for kind, count in gated_counts.items():
            assert count <= base_counts.get(kind, 0)

    def test_lru_never_poisoned_by_triage(self, gated_run, eval_corpus, model):
        """A stand-in verdict is not cached either: the same decided app
        analyzed twice without a store is triaged both times."""
        _, path = model
        gated_analyses = gated_run[0]
        record = next(
            record
            for record, analysis in zip(eval_corpus, gated_analyses)
            if analysis.verdict_source == "triage"
        )
        registry = MetricsRegistry()
        pipeline = DyDroid(pipeline_config(triage_model=path), metrics=registry)
        first, second = pipeline.analyze_app(record), pipeline.analyze_app(record)
        assert first.verdict_source == second.verdict_source == "triage"
        for kind in ("detection", "privacy"):
            assert registry.counter_value("cache.{}.lookups".format(kind)) > 0
            assert registry.counter_value("cache.{}.hit".format(kind)) == 0

    def test_warm_store_overrides_triage(self, gated_run, eval_corpus, model):
        """Stored tier-1 verdicts win over the gate on a second pass."""
        _, path = model
        _, _, _, store_path = gated_run
        config = pipeline_config(triage_model=path)
        # warm the store's remaining gaps with a triage-off pass first
        run_corpus(eval_corpus, pipeline_config(), store_path=store_path)
        analyses, registry, _ = run_corpus(eval_corpus, config, store_path=store_path)
        assert registry.counter_value("triage.override") > 0
        assert registry.counter_value("triage.hit") == 0
        assert all(a.verdict_source == "full" for a in analyses)

    def test_harvest_round_trip(self, model, eval_corpus, tmp_path):
        trained, _ = model
        harvest = tmp_path / "m.json.harvest.jsonl"
        gate = TriageGate(trained, threshold=0.999999, harvest_path=str(harvest))
        pkg, dyn = first_payload_session(eval_corpus)
        decision = gate.assess(pkg, dyn)
        assert not decision.decided  # threshold is unreachable
        gate.harvest(decision, 1)
        samples = load_harvest(str(harvest))
        assert len(samples) == 1
        vector, label = samples[0]
        assert label == 1 and vector == decision.fingerprint.vector

    def test_eval_meets_recall_floor(self, model):
        trained, _ = model
        evaluation = evaluate_triage(trained, TRAIN_APPS, seed=TRAIN_SEED)
        assert evaluation.recall >= 0.95
        assert evaluation.n_sessions > 0
        rendered = evaluation.render()
        assert "Hazard recall" in rendered

    def test_threshold_validation(self, model):
        trained, _ = model
        with pytest.raises(TriageError):
            TriageGate(trained, threshold=0.4)
        with pytest.raises(TriageError):
            TriageGate(trained, threshold=1.5)


# -- report provenance ------------------------------------------------------------


class TestReportProvenance:
    def test_payload_verdict_round_trip(self, gated_run):
        analyses, _, _, _ = gated_run
        triaged = next(a for a in analyses if a.verdict_source == "triage")
        revived = type(triaged).from_dict(triaged.to_dict())
        assert revived.verdict_source == "triage"
        assert [p.verdict_source for p in revived.payloads] == [
            p.verdict_source for p in triaged.payloads
        ]

    def test_legacy_dict_defaults_to_full(self, baseline_run):
        analyses, _, _ = baseline_run
        doc = analyses[0].to_dict()
        doc.pop("verdict_source")
        for payload in doc.get("payloads", []):
            payload.pop("verdict_source", None)
        revived = type(analyses[0]).from_dict(doc)
        assert revived.verdict_source == "full"

    def test_triage_table(self, gated_run, eval_corpus, model):
        from repro.core.report import MeasurementReport

        analyses, _, _, _ = gated_run
        report = MeasurementReport(apps=analyses)
        table = report.triage_table()
        assert table["triaged_apps"] > 0
        assert table["triaged_apps"] + table["full_apps"] == table["payload_apps"]
        assert "TRIAGE" in report.render_triage_table()
        assert "triage_provenance" in report.to_dict()


# -- service wiring ---------------------------------------------------------------


class TestJobSpecTriage:
    def test_key_back_compat(self):
        """Triage-less keys are byte-identical to the pre-field layout."""
        import hashlib

        spec = JobSpec(kind="corpus", seed=7, n_apps=10, index=3)
        legacy = hashlib.sha256(
            json.dumps(
                {"kind": "corpus", "seed": 7, "n_apps": 10, "index": 3},
                sort_keys=True,
            ).encode("utf-8")
        ).hexdigest()[:16]
        assert spec.key() == legacy

    def test_triage_alters_key(self):
        plain = JobSpec(kind="corpus", seed=7, n_apps=10, index=3)
        on = JobSpec(kind="corpus", seed=7, n_apps=10, index=3, triage="on")
        tuned = JobSpec(
            kind="corpus", seed=7, n_apps=10, index=3,
            triage="on", triage_threshold=0.95,
        )
        assert len({plain.key(), on.key(), tuned.key()}) == 3

    def test_to_dict_omits_unset(self):
        assert "triage" not in JobSpec(
            kind="corpus", seed=7, n_apps=10, index=3
        ).to_dict()
        body = JobSpec(
            kind="corpus", seed=7, n_apps=10, index=3,
            triage="on", triage_threshold=0.95,
        ).to_dict()
        assert body["triage"] == "on" and body["triage_threshold"] == 0.95

    def test_from_payload_validation(self):
        base = {"kind": "corpus", "seed": 7, "n_apps": 10, "index": 3}
        spec = JobSpec.from_payload(dict(base, triage="off"))
        assert spec.triage == "off"
        with pytest.raises(SpecError):
            JobSpec.from_payload(dict(base, triage="maybe"))
        with pytest.raises(SpecError):
            JobSpec.from_payload(dict(base, triage_threshold=0.9))
        with pytest.raises(SpecError):
            JobSpec.from_payload(dict(base, triage="on", triage_threshold=0.3))
        with pytest.raises(SpecError):
            JobSpec.from_payload(dict(base, triage="on", triage_threshold="x"))


class TestServiceTriage:
    def test_triage_on_requires_daemon_model(self):
        service = AnalysisService(ServiceConfig(workers=0))
        service.start()
        try:
            code, body, _ = service.submit(
                {"kind": "corpus", "seed": 7, "n_apps": 10, "index": 3, "triage": "on"}
            )
            assert code == 400
            assert "triage" in body["error"]
        finally:
            service.drain(timeout=10.0)

    def test_stats_exposes_triage_block(self):
        service = AnalysisService(ServiceConfig(workers=0))
        service.start()
        try:
            _, stats, _ = service.stats()
            assert stats["triage"]["model"] is None
            assert "summary" in stats["triage"]
        finally:
            service.drain(timeout=10.0)

    def test_gated_daemon_stamps_verdict_source(self, model):
        _, path = model
        service = AnalysisService(
            ServiceConfig(
                workers=1,
                pipeline=pipeline_config(triage_model=path),
            )
        )
        service.start()
        try:
            submitted = []
            for index in range(6):
                code, body, _ = service.submit(
                    {"kind": "corpus", "seed": EVAL_SEED,
                     "n_apps": EVAL_APPS, "index": index}
                )
                assert code in (200, 202)
                submitted.append(body["job_id"])
            import time as time_module

            deadline = time_module.time() + 120
            while time_module.time() < deadline:
                counts = service.jobs.counts()
                if not counts["queued"] and not counts["running"]:
                    break
                time_module.sleep(0.1)
            sources = {
                service.jobs.get(job_id).verdict_source for job_id in submitted
            }
            assert "triage" in sources
            _, stats, _ = service.stats()
            assert stats["triage"]["summary"]["hit"] > 0
            job = service.jobs.get(submitted[0])
            assert job.to_dict()["verdict_source"] in ("triage", "full", "")
        finally:
            service.drain(timeout=60.0)
