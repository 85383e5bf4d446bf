"""The analysis farm: sharding, merge determinism, resume, fault tolerance."""

import functools
import json

import pytest

import repro.farm.coordinator as coordinator_module
from repro.cli import main
from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid, LruCache
from repro.corpus.generator import CorpusGenerator, generate_corpus
from repro.farm import (
    ChaosSpec,
    CheckpointError,
    FarmConfig,
    plan_shards,
    run_farm,
    run_shard,
)
from repro.farm.lease import WORKER_DIED
from tests.helpers import dying_shard

N_APPS = 48
SEED = 19


def pipeline_config():
    return DyDroidConfig(train_samples_per_family=2, run_replays=False)


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
def serial_report():
    corpus = generate_corpus(N_APPS, seed=SEED)
    return DyDroid(pipeline_config()).measure(corpus)


@pytest.fixture(scope="module")
def corpus_packages():
    generator = CorpusGenerator(seed=SEED)
    return [b.package for b in generator.sample_blueprints(N_APPS)]


class TestShardPlanner:
    def test_partition_covers_every_index_once(self):
        for n_shards in (1, 2, 3, 7, 16):
            shards = plan_shards(100, n_shards)
            indices = [i for shard in shards for i in shard.indices]
            assert sorted(indices) == list(range(100))

    def test_contiguous_is_balanced(self):
        sizes = [len(s) for s in plan_shards(10, 4)]
        assert sizes == [3, 3, 2, 2]

    def test_round_robin_interleaves(self):
        shards = plan_shards(7, 3, strategy="round-robin")
        assert shards[0].indices == (0, 3, 6)
        assert shards[1].indices == (1, 4)
        assert shards[2].indices == (2, 5)

    def test_deterministic(self):
        assert plan_shards(123, 8) == plan_shards(123, 8)

    def test_more_shards_than_apps(self):
        shards = plan_shards(3, 10)
        assert len(shards) == 3
        assert all(len(s) == 1 for s in shards)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(10, 0)
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(10, 2, strategy="random")


class TestWorkerCorpusRegeneration:
    def test_records_at_matches_full_generation(self):
        generator = CorpusGenerator(seed=SEED)
        full = generator.generate(12)
        partial = CorpusGenerator(seed=SEED).records_at(12, [3, 7])
        assert partial[0].apk.sha256() == full[3].apk.sha256()
        assert partial[1].apk.sha256() == full[7].apk.sha256()

    def test_records_at_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            CorpusGenerator(seed=SEED).records_at(12, [12])


class TestMergeDeterminism:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_equals_serial(self, serial_report, n_shards):
        result = run_farm(farm_config(n_shards=n_shards))
        assert result.report.render_dynamic_summary() == serial_report.render_dynamic_summary()
        assert result.report.render_entity_table() == serial_report.render_entity_table()
        assert result.report.render_obfuscation_table() == serial_report.render_obfuscation_table()
        assert result.report.render_malware_table() == serial_report.render_malware_table()
        assert result.report.render_all() == serial_report.render_all()

    def test_round_robin_equals_serial(self, serial_report):
        result = run_farm(farm_config(n_shards=4, shard_strategy="round-robin"))
        assert result.report.render_all() == serial_report.render_all()

    def test_process_pool_equals_serial(self, serial_report):
        result = run_farm(farm_config(workers=2, n_shards=4))
        assert result.report.render_all() == serial_report.render_all()
        assert result.metrics["apps_analyzed"] == N_APPS


class TestCheckpointResume:
    def test_kill_and_resume_matches_uninterrupted(self, serial_report, tmp_path):
        checkpoint = tmp_path / "journal.jsonl"
        run_farm(farm_config(n_shards=8, checkpoint=str(checkpoint)))
        lines = checkpoint.read_text().splitlines()
        assert len(lines) == 1 + N_APPS  # header + one line per app

        # Simulate a kill after 10 settled apps, mid-write of the 11th.
        torn = lines[11][: len(lines[11]) // 2]
        checkpoint.write_text("\n".join(lines[:11]) + "\n" + torn)

        resumed = run_farm(
            farm_config(n_shards=8, checkpoint=str(checkpoint), resume=True)
        )
        assert resumed.resumed_apps == 10
        assert resumed.metrics["apps_analyzed"] == N_APPS - 10
        assert resumed.report.render_all() == serial_report.render_all()

    def test_resume_requires_matching_run(self, tmp_path):
        checkpoint = tmp_path / "journal.jsonl"
        run_farm(farm_config(n_apps=8, n_shards=2, checkpoint=str(checkpoint)))
        with pytest.raises(CheckpointError):
            run_farm(
                farm_config(
                    n_apps=8, corpus_seed=SEED + 1,
                    n_shards=2, checkpoint=str(checkpoint), resume=True,
                )
            )

    def test_incomplete_entry_raises_typed_error(self, tmp_path):
        checkpoint = tmp_path / "journal.jsonl"
        run_farm(farm_config(n_apps=8, n_shards=2, checkpoint=str(checkpoint)))
        with checkpoint.open("a") as handle:
            handle.write('{"kind": "result", "index": 3}\n')  # no "analysis"
        with pytest.raises(CheckpointError) as excinfo:
            run_farm(
                farm_config(
                    n_apps=8, n_shards=2, checkpoint=str(checkpoint), resume=True
                )
            )
        message = str(excinfo.value)
        assert "journal.jsonl:10" in message  # header + 8 apps, then the bad line
        assert "analysis" in message

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(ValueError):
            run_farm(farm_config(resume=True))

    def test_resume_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            run_farm(
                farm_config(checkpoint=str(tmp_path / "nope.jsonl"), resume=True)
            )


class TestFaultTolerance:
    def test_transient_failure_is_retried(self, serial_report, corpus_packages):
        flaky = corpus_packages[4]
        result = run_farm(
            farm_config(
                n_shards=4, max_retries=2,
                chaos=ChaosSpec(fail_packages=(flaky,), fail_attempts=1),
            )
        )
        assert result.metrics["retries"] == 1
        assert not result.quarantined
        assert result.report.render_all() == serial_report.render_all()

    def test_persistent_failure_is_quarantined(self, corpus_packages, tmp_path):
        poison = corpus_packages[7]
        checkpoint = tmp_path / "journal.jsonl"
        result = run_farm(
            farm_config(
                n_shards=4, max_retries=1, checkpoint=str(checkpoint),
                chaos=ChaosSpec(fail_packages=(poison,), fail_attempts=99),
            )
        )
        assert [q.package for q in result.quarantined] == [poison]
        assert result.quarantined[0].attempts == 2  # first try + one retry
        assert result.report.n_total == N_APPS - 1
        assert poison not in {app.package for app in result.report.apps}

        # Resuming does not re-run the quarantined app (chaos removed).
        resumed = run_farm(
            farm_config(n_shards=4, checkpoint=str(checkpoint), resume=True)
        )
        assert resumed.metrics["apps_analyzed"] == 0
        assert [q.package for q in resumed.quarantined] == [poison]
        assert resumed.report.n_total == N_APPS - 1

    def test_timeout_quarantines_slow_app(self, corpus_packages):
        slow = corpus_packages[2]
        result = run_farm(
            farm_config(
                n_apps=12, n_shards=2, timeout_s=0.05, max_retries=1,
                chaos=ChaosSpec(slow_packages=(slow,), slow_s=0.3),
            )
        )
        assert [q.package for q in result.quarantined] == [slow]
        assert "AppTimeoutError" in result.quarantined[0].error
        assert result.report.n_total == 11


class TestWorkerProcessDeath:
    """A worker process dying mid-run costs only the shard it held."""

    def test_one_death_is_recovered_without_quarantine(
        self, serial_report, tmp_path, monkeypatch
    ):
        marker = tmp_path / "died"
        monkeypatch.setattr(
            coordinator_module, "run_shard",
            functools.partial(dying_shard, run_shard, 9, str(marker)),
        )
        result = run_farm(farm_config(workers=2, n_shards=4))
        assert marker.exists()
        assert not result.quarantined
        assert result.report.render_all() == serial_report.render_all()

    def test_an_app_that_always_kills_its_worker_is_quarantined_alone(
        self, serial_report, corpus_packages, monkeypatch
    ):
        poison = 13  # shard 1 of 4; the slowed app 0 runs in shard 0 beside it
        slow = corpus_packages[0]
        monkeypatch.setattr(
            coordinator_module, "run_shard",
            functools.partial(dying_shard, run_shard, poison, None),
        )
        result = run_farm(
            farm_config(
                workers=2, n_shards=4,
                chaos=ChaosSpec(slow_packages=(slow,), slow_s=1.0),
            )
        )
        assert [(q.index, q.error) for q in result.quarantined] == [(poison, WORKER_DIED)]
        assert result.metrics["apps_analyzed"] == N_APPS - 1
        expected = [app.to_dict() for app in serial_report.apps if app.corpus_index != poison]
        assert [app.to_dict() for app in result.report.apps] == expected
        assert slow in {app.package for app in result.report.apps}


class TestVerdictCacheBound:
    def test_lru_evicts_oldest(self):
        cache = LruCache(capacity=2)
        cache["a"] = 1
        cache["b"] = 2
        assert "a" in cache  # touch: "a" becomes most recent
        cache["c"] = 3
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert len(cache) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LruCache(capacity=0)

    def test_pipeline_caches_are_bounded(self):
        config = DyDroidConfig(run_malware=False, verdict_cache_capacity=3)
        dydroid = DyDroid(config)
        caches = dydroid._verdict_caches
        for digest in "abcdef":
            caches["privacy"][digest] = ()
        assert len(caches["privacy"]) == 3
        assert caches["detection"].capacity == 3


class TestFarmCli:
    def test_farm_run_prints_tables_and_metrics(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "farm", "run", "--apps", "16", "--seed", "7", "--workers", "1",
            "--shards", "4", "--train", "2", "--no-replays",
            "--metrics-out", str(metrics_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "TABLE II" in out and "TABLE X" in out
        metrics = json.loads(metrics_path.read_text())
        assert metrics["apps_analyzed"] == 16
        assert metrics["shards_run"] == 4
        assert metrics["stage_latency"]["analyze"]["count"] == 16

    def test_farm_run_json(self, capsys):
        from repro.core.report import MeasurementReport

        assert main([
            "farm", "run", "--apps", "12", "--seed", "7", "--workers", "1",
            "--shards", "2", "--train", "2", "--no-replays", "--json",
        ]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["n_total"] == 12
        assert MeasurementReport.from_dict(parsed).n_total == 12

    @pytest.mark.parametrize("verb", [["measure"], ["farm", "run", "--workers", "2"]])
    def test_too_small_corpus_is_a_clean_error(self, verb, monkeypatch):
        def lease(*args, **kwargs):
            raise AssertionError("a shard was leased")

        monkeypatch.setattr("repro.farm.lease.ShardLedger.lease", lease)
        with pytest.raises(SystemExit) as exited:
            main(verb + ["--apps", "6", "--seed", "7", "--train", "2", "--no-replays"])
        assert str(exited.value) == (
            "{}: a corpus of 6 apps is too small: its planted roles need 8 "
            "distinct apps".format(" ".join(verb[:2]))
        )

    def test_farm_matches_measure_cli(self, capsys):
        assert main([
            "measure", "--apps", "20", "--seed", "9", "--train", "2",
            "--no-replays", "--table", "6",
        ]) == 0
        serial_out = capsys.readouterr().out
        assert main([
            "farm", "run", "--apps", "20", "--seed", "9", "--workers", "1",
            "--shards", "3", "--train", "2", "--no-replays", "--table", "6",
        ]) == 0
        assert capsys.readouterr().out == serial_out
