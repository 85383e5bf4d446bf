"""The analysis service: queue, admission, dedup, cache, persistence, drain."""

import base64
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import CorpusGenerator
from repro.service import (
    AnalysisService,
    JobQueue,
    JobSpec,
    QueueClosedError,
    QueueFullError,
    RateLimitedError,
    RateLimiter,
    ResultJournal,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServicePersistError,
    SpecError,
    TokenBucket,
    make_server,
)

SEED = 19
N_APPS = 12
SPEC = {"kind": "corpus", "seed": SEED, "n_apps": N_APPS, "index": 3}


def pipeline_config():
    return DyDroidConfig(train_samples_per_family=2, run_replays=False)


@contextmanager
def running_service(**overrides):
    defaults = dict(workers=1, pipeline=pipeline_config())
    defaults.update(overrides)
    service = AnalysisService(ServiceConfig(**defaults))
    service.start()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", server.server_port)
    try:
        yield service, client
    finally:
        server.shutdown()
        service.drain(timeout=60.0)
        server.server_close()


# -- unit: specs ----------------------------------------------------------------


class TestJobSpec:
    def test_corpus_spec_roundtrip_and_key_stability(self):
        spec = JobSpec.from_payload(SPEC)
        assert spec.kind == "corpus" and spec.index == 3
        assert spec.key() == JobSpec.from_payload(dict(SPEC)).key()
        other = JobSpec.from_payload({**SPEC, "index": 4})
        assert other.key() != spec.key()

    def test_corpus_spec_validation(self):
        with pytest.raises(SpecError):
            JobSpec.from_payload({"kind": "corpus", "seed": 1, "n_apps": 10})
        with pytest.raises(SpecError):
            JobSpec.from_payload({**SPEC, "index": N_APPS})
        with pytest.raises(SpecError):
            JobSpec.from_payload({**SPEC, "n_apps": 0})
        with pytest.raises(SpecError):
            JobSpec.from_payload({"kind": "mystery"})
        with pytest.raises(SpecError):
            JobSpec.from_payload([1, 2])

    def test_apk_spec_builds_the_submitted_bytes(self):
        record = CorpusGenerator(seed=SEED).records_at(N_APPS, [3])[0]
        encoded = base64.b64encode(record.apk.to_bytes()).decode("ascii")
        spec = JobSpec.from_payload({"kind": "apk", "apk_b64": encoded})
        rebuilt = spec.build_record()
        assert rebuilt.apk.sha256() == record.apk.sha256()
        assert rebuilt.package == record.package

    def test_apk_spec_rejects_garbage(self):
        with pytest.raises(SpecError):
            JobSpec.from_payload({"kind": "apk", "apk_b64": "!!!not-base64!!!"})
        with pytest.raises(SpecError):
            JobSpec.from_payload(
                {"kind": "apk", "apk_b64": base64.b64encode(b"junk").decode()}
            )

    def test_corpus_spec_matches_farm_materialization(self):
        spec = JobSpec.from_payload(SPEC)
        direct = CorpusGenerator(seed=SEED).records_at(N_APPS, [3])[0]
        assert spec.build_record().apk.sha256() == direct.apk.sha256()

    def test_policy_less_key_matches_pre_policy_format(self):
        # Submission keys from before the policy field must not change:
        # journals and dedup tables written by older daemons stay valid.
        import hashlib

        legacy = json.dumps(
            {"kind": "corpus", "seed": SEED, "n_apps": N_APPS, "index": 3},
            sort_keys=True,
        ).encode("utf-8")
        spec = JobSpec.from_payload(SPEC)
        assert spec.key() == hashlib.sha256(legacy).hexdigest()[:16]
        assert "policy" not in spec.to_dict()

    def test_policy_distinguishes_submissions(self):
        plain = JobSpec.from_payload(SPEC)
        defended = JobSpec.from_payload({**SPEC, "policy": "default"})
        strict = JobSpec.from_payload({**SPEC, "policy": "strict"})
        assert len({plain.key(), defended.key(), strict.key()}) == 3
        assert defended.to_dict()["policy"] == "default"

    def test_unknown_or_malformed_policy_rejected(self):
        with pytest.raises(SpecError):
            JobSpec.from_payload({**SPEC, "policy": "nope"})
        with pytest.raises(SpecError):
            JobSpec.from_payload({**SPEC, "policy": 7})


# -- unit: queue ----------------------------------------------------------------


class TestJobQueue:
    def test_priority_then_fifo_order(self):
        queue = JobQueue(max_depth=8)
        queue.put("low-a", priority=0)
        queue.put("high", priority=5)
        queue.put("low-b", priority=0)
        assert [queue.get(), queue.get(), queue.get()] == ["high", "low-a", "low-b"]

    def test_admission_control_rejects_when_full(self):
        queue = JobQueue(max_depth=2)
        queue.put("a")
        queue.put("b")
        with pytest.raises(QueueFullError) as excinfo:
            queue.put("c", retry_after_s=7.0)
        assert excinfo.value.retry_after_s == 7.0
        assert queue.depth() == 2

    def test_close_drains_then_signals_consumers(self):
        queue = JobQueue(max_depth=4)
        queue.put("a")
        queue.close()
        # Closed is distinct from full: there is no point retrying a
        # dying daemon, so it must not be the 429-mapped QueueFullError.
        with pytest.raises(QueueClosedError):
            queue.put("b")
        assert queue.get() == "a"
        assert queue.get() is None  # closed and empty

    def test_get_timeout_returns_none(self):
        assert JobQueue(max_depth=1).get(timeout=0.01) is None


# -- unit: rate limiting ---------------------------------------------------------


class TestRateLimiting:
    def test_token_bucket_refills_on_fake_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate_per_s=2.0, burst=2, clock=lambda: now[0])
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        wait_s = bucket.try_acquire()
        assert wait_s == pytest.approx(0.5)
        now[0] += 0.5  # one token refilled
        assert bucket.try_acquire() is None

    def test_limiter_is_per_client(self):
        now = [0.0]
        limiter = RateLimiter(rate_per_s=1.0, burst=1, clock=lambda: now[0])
        limiter.allow("alice")
        with pytest.raises(RateLimitedError) as excinfo:
            limiter.allow("alice")
        assert excinfo.value.retry_after_s > 0
        limiter.allow("bob")  # a different client has its own bucket
        assert limiter.tracked_clients() == 2

    def test_disabled_limiter_admits_everything(self):
        limiter = RateLimiter(rate_per_s=0.0, burst=1)
        for _ in range(100):
            limiter.allow("anyone")
        assert limiter.tracked_clients() == 0

    def test_eviction_does_not_reset_a_depleted_burst(self):
        """Regression: tracking-map eviction used to be a free burst reset.

        Plain LRU evicted the oldest bucket regardless of its tokens, so a
        depleted client that went briefly quiet came back brand-new.  The
        limiter now prefers evicting buckets that have refilled to full
        (forgetting those is lossless).
        """
        now = [0.0]
        limiter = RateLimiter(
            rate_per_s=1.0, burst=2, clock=lambda: now[0], max_tracked=2
        )
        limiter.allow("alice")
        limiter.allow("alice")  # alice's burst is now depleted
        limiter.allow("bob")    # bob has one of two tokens left
        now[0] = 1.0            # bob refills to full; alice has only 1
        limiter.allow("carol")  # over capacity: must evict somebody
        # bob -- the oldest *full* bucket -- was the victim, not alice
        limiter.allow("alice")  # spends her single refilled token
        with pytest.raises(RateLimitedError):
            limiter.allow("alice")  # eviction pressure granted no fresh burst
        assert limiter.tracked_clients() == 2

    def test_eviction_falls_back_to_oldest_when_none_full(self):
        now = [0.0]
        limiter = RateLimiter(
            rate_per_s=1.0, burst=1, clock=lambda: now[0], max_tracked=2
        )
        limiter.allow("alice")
        limiter.allow("bob")
        limiter.allow("carol")  # every bucket depleted: oldest (alice) goes
        assert limiter.tracked_clients() == 2
        with pytest.raises(RateLimitedError):
            limiter.allow("bob")  # bob survived with his spent state intact

    def test_max_tracked_validated(self):
        with pytest.raises(ValueError):
            RateLimiter(rate_per_s=1.0, burst=1, max_tracked=0)


# -- unit: persistence -----------------------------------------------------------


class TestResultJournal:
    def test_write_then_reload(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ResultJournal(path, pipeline_config())
        journal.append_result("key1", "digest1", "com.a.b", 0.5, {"package": "com.a.b"})
        journal.close()
        reloaded = ResultJournal(path, pipeline_config())
        assert [e["digest"] for e in reloaded.restored] == ["digest1"]
        reloaded.close()

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ResultJournal(path, pipeline_config())
        journal.append_result("key1", "digest1", "com.a.b", 0.5, {})
        journal.close()
        with path.open("a") as handle:
            handle.write('{"kind": "result", "digest": "torn')
        reloaded = ResultJournal(path, pipeline_config())
        assert len(reloaded.restored) == 1
        reloaded.close()

    def test_pipeline_config_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "service.jsonl"
        ResultJournal(path, pipeline_config()).close()
        other = DyDroidConfig(train_samples_per_family=5, run_replays=False)
        with pytest.raises(ServicePersistError, match="different pipeline"):
            ResultJournal(path, other)

    def test_incomplete_entry_names_file_and_line(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ResultJournal(path, pipeline_config())
        journal.append_result("k", "d", "p", 0.1, {})
        journal.close()
        with path.open("a") as handle:
            handle.write('{"kind": "result", "digest": "d2"}\n')  # no spec_key
        with pytest.raises(ServicePersistError) as excinfo:
            ResultJournal(path, pipeline_config())
        message = str(excinfo.value)
        assert "service.jsonl:3" in message
        assert "spec_key" in message

    def test_corrupt_interior_line_is_an_error(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ResultJournal(path, pipeline_config())
        journal.append_result("k", "d", "p", 0.1, {})
        journal.close()
        lines = path.read_text().splitlines()
        lines.insert(1, "not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServicePersistError, match="corrupt"):
            ResultJournal(path, pipeline_config())


# -- end-to-end over HTTP --------------------------------------------------------


class TestServiceEndToEnd:
    def test_submit_poll_result_matches_direct_pipeline(self):
        record = CorpusGenerator(seed=SEED).records_at(N_APPS, [3])[0]
        direct = DyDroid(pipeline_config()).analyze_app(record).to_dict()
        with running_service() as (service, client):
            response = client.submit(SPEC)
            assert response["state"] == "queued" and not response["cached"]
            job = client.wait(response["job_id"])
            assert job["digest"] == record.apk.sha256()
            served = client.result(job["digest"])["analysis"]
            assert served == direct
            # duplicate submission: answered instantly from the cache.
            repeat = client.submit(SPEC)
            assert repeat["state"] == "done"
            assert repeat["cached"] and repeat["digest"] == job["digest"]
            stats = client.stats()
            assert stats["counters"]["service.pipeline.runs"] == 1
            assert stats["counters"]["service.cache.hit"] == 1
            assert stats["counters"]["service.cache.miss"] == 1

    def test_apk_upload_converges_with_corpus_reference(self):
        """A raw APK upload content-dedupes against the corpus reference."""
        record = CorpusGenerator(seed=SEED).records_at(N_APPS, [3])[0]
        encoded = base64.b64encode(record.apk.to_bytes()).decode("ascii")
        with running_service() as (service, client):
            first = client.submit(SPEC)
            client.wait(first["job_id"])
            upload = client.submit({"kind": "apk", "apk_b64": encoded})
            job = client.wait(upload["job_id"])
            assert job["digest"] == record.apk.sha256()
            assert job["cached"]  # content-level hit: analysis was skipped
            assert client.stats()["counters"]["service.pipeline.runs"] == 1

    def test_health_metrics_and_unknown_routes(self):
        with running_service() as (service, client):
            assert client.healthz()["status"] == "ok"
            metrics = client.metrics()
            assert "counters" in metrics and "histograms" in metrics
            with pytest.raises(ServiceClientError) as excinfo:
                client.job("job-999999")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceClientError) as excinfo:
                client.result("not-a-digest")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceClientError) as excinfo:
                client.request("GET", "/v2/nope")
            assert excinfo.value.status == 404

    def test_bad_submissions_get_400(self):
        with running_service(workers=0) as (service, client):
            bad = client.submit({"kind": "corpus", "seed": 1}, expect_error=True)
            assert bad["_status"] == 400
            bad = client.submit({**SPEC, "priority": "urgent"}, expect_error=True)
            assert bad["_status"] == 400
            assert client.stats()["counters"]["service.cache.miss"] == 0


# -- satellite: concurrent duplicate submissions --------------------------------


class TestConcurrentDuplicates:
    def test_n_threads_one_pipeline_run(self):
        """N concurrent identical submissions -> exactly one execution."""
        n_threads = 8
        with running_service() as (service, client):
            barrier = threading.Barrier(n_threads)
            responses = [None] * n_threads
            errors = []

            def submit(slot):
                try:
                    barrier.wait(timeout=10)
                    own = ServiceClient("127.0.0.1", client.port)
                    response = own.submit(SPEC, client="thread-{}".format(slot))
                    if response["state"] != "done":
                        response = own.wait(response["job_id"])
                    responses[slot] = response
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit, args=(slot,))
                for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            digests = {response["digest"] for response in responses}
            assert len(digests) == 1 and None not in digests

            counters = client.stats()["counters"]
            assert counters["service.pipeline.runs"] == 1
            assert counters["service.cache.miss"] == 1
            assert counters["service.cache.hit"] == n_threads - 1
            assert counters["service.rejected.queue_full"] == 0
            assert counters["service.rejected.rate_limited"] == 0
            assert counters["service.jobs.completed"] == 1


# -- admission control and rate limiting over HTTP -------------------------------


class TestAdmissionControl:
    def test_full_queue_gets_429_with_retry_after(self):
        # workers=0: nothing dequeues, so the queue fills deterministically.
        with running_service(workers=0, queue_depth=2) as (service, client):
            for index in range(2):
                response = client.submit({**SPEC, "index": index})
                assert response["state"] == "queued"
            rejected = client.submit({**SPEC, "index": 5}, expect_error=True)
            assert rejected["_status"] == 429
            assert rejected["_retry_after_s"] >= 1
            assert rejected["error"] == "queue full"
            counters = client.stats()["counters"]
            assert counters["service.rejected.queue_full"] == 1
            # duplicates of queued work still coalesce instead of rejecting.
            coalesced = client.submit({**SPEC, "index": 0})
            assert coalesced["coalesced"]

    def test_rate_limited_client_gets_429(self):
        with running_service(workers=0, rate_per_s=0.001, rate_burst=1) as (
            service,
            client,
        ):
            first = client.submit({**SPEC, "index": 0}, client="greedy")
            assert first["state"] == "queued"
            second = client.submit(
                {**SPEC, "index": 1}, client="greedy", expect_error=True
            )
            assert second["_status"] == 429
            assert second["_retry_after_s"] >= 1
            other = client.submit({**SPEC, "index": 2}, client="patient")
            assert other["state"] == "queued"
            counters = client.stats()["counters"]
            assert counters["service.rejected.rate_limited"] == 1


# -- persistence across restarts --------------------------------------------------


class TestPersistenceRestart:
    def test_restarted_daemon_serves_prior_results(self, tmp_path):
        journal = str(tmp_path / "service.jsonl")
        with running_service(persist=journal) as (service, client):
            job = client.wait(client.submit(SPEC)["job_id"])
            digest = job["digest"]
            first_run = client.result(digest)["analysis"]
            assert client.stats()["counters"]["service.pipeline.runs"] == 1

        with running_service(persist=journal) as (service, client):
            stats = client.stats()
            assert stats["counters"]["service.persist.restored"] == 1
            assert stats["cache"]["entries"] == 1
            repeat = client.submit(SPEC)
            assert repeat["state"] == "done" and repeat["cached"]
            assert repeat["digest"] == digest
            assert client.result(digest)["analysis"] == first_run
            counters = client.stats()["counters"]
            assert counters["service.pipeline.runs"] == 0  # no recomputation

    def test_restarted_daemon_reuses_verdict_store(self, tmp_path):
        """A fresh daemon without a persist journal still skips analyzer work."""
        store = str(tmp_path / "verdicts.jsonl")
        with running_service(verdict_store=store) as (service, client):
            client.wait(client.submit(SPEC)["job_id"])
            assert client.stats()["verdict_store"]["path"] == store
            cold_misses = service.registry.counter_value("store.detection.miss")
            assert cold_misses > 0
            assert service.registry.counter_value("store.detection.hit") == 0

        with running_service(verdict_store=store) as (service, client):
            client.wait(client.submit(SPEC)["job_id"])
            # the pipeline ran again (no persist journal) but every verdict
            # came out of the warm store
            assert client.stats()["counters"]["service.pipeline.runs"] == 1
            assert service.registry.counter_value("store.detection.miss") == 0
            assert service.registry.counter_value("store.detection.hit") == cold_misses

    def test_config_mismatch_refuses_journal(self, tmp_path):
        journal = str(tmp_path / "service.jsonl")
        ResultJournal(journal, pipeline_config()).close()
        service = AnalysisService(
            ServiceConfig(
                workers=0,
                persist=journal,
                pipeline=DyDroidConfig(train_samples_per_family=5),
            )
        )
        with pytest.raises(ServicePersistError):
            service.start()


# -- drain / shutdown -------------------------------------------------------------


class TestDrain:
    def test_drain_finishes_queued_jobs_then_rejects(self):
        with running_service() as (service, client):
            job_ids = [
                client.submit({**SPEC, "index": index})["job_id"]
                for index in range(3)
            ]
            assert service.drain(timeout=120.0)
            for job_id in job_ids:
                assert client.job(job_id)["state"] == "done"
            assert client.healthz()["status"] == "draining"
            rejected = client.submit({**SPEC, "index": 9}, expect_error=True)
            assert rejected["_status"] == 503

    def test_closed_queue_submit_gets_503_not_429(self):
        """The submit/close race: a closed queue is *draining*, not *full*.

        ``put`` on a closed queue used to raise ``QueueFullError``, so the
        HTTP layer answered 429 + Retry-After -- telling clients to retry
        against a daemon that will never accept.  It now raises
        ``QueueClosedError`` and submit answers 503 with the half-created
        job rolled back.
        """
        service = AnalysisService(
            ServiceConfig(workers=0, pipeline=pipeline_config())
        )
        service.start()
        try:
            service.queue.close()  # drain has begun but _draining isn't set yet
            status, body, headers = service.submit(dict(SPEC))
            assert status == 503
            assert "Retry-After" not in headers
            assert "draining" in body["error"]
            assert service.registry.counter_value("service.rejected.draining") == 1
            # the job created before the enqueue failed was rolled back
            assert service.jobs.counts()["total"] == 0
            assert len(service._inflight) == 0
        finally:
            service.drain(timeout=60.0)

    def test_serve_cli_drains_on_sigterm(self, tmp_path):
        """`repro serve` + SIGTERM: clean drain, exit code 0."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", "1", "--train", "2", "--no-replays",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on" in banner, banner
            port = int(banner.split(":")[-1].split()[0].rstrip(")"))
            client = ServiceClient("127.0.0.1", port, timeout=30.0)
            job = client.wait(client.submit(SPEC)["job_id"], timeout=120.0)
            assert job["state"] == "done"
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "drained: 1 completed" in output, output


class TestDrainDeadline:
    def test_join_timeout_is_a_shared_deadline(self):
        """Regression: ``join(timeout=T)`` used to pass T to *every*
        thread, so W stuck workers blocked a SIGTERM drain for W x T."""
        from repro.service.scheduler import SchedulerPool

        now = [0.0]
        pool = SchedulerPool(
            JobQueue(4), lambda job_id, worker_id: None, workers=0,
            clock=lambda: now[0],
        )
        joins = []

        class StuckThread:
            def join(self, timeout=None):
                joins.append(timeout)
                now[0] += timeout  # a stuck thread eats its whole allowance

            def is_alive(self):
                return True

        pool._threads.extend(StuckThread() for _ in range(4))
        assert pool.join(timeout=1.0) is False
        # one shared deadline: ~1.0s total, not 4 x 1.0s
        assert now[0] == pytest.approx(1.0)
        assert joins[0] == pytest.approx(1.0)
        assert all(t == pytest.approx(0.0) for t in joins[1:])

    def test_joined_threads_consume_no_budget(self):
        from repro.service.scheduler import SchedulerPool

        now = [0.0]
        pool = SchedulerPool(
            JobQueue(4), lambda job_id, worker_id: None, workers=0,
            clock=lambda: now[0],
        )

        class DoneThread:
            def join(self, timeout=None):
                pass  # returns immediately, clock does not move

            def is_alive(self):
                return False

        pool._threads.extend(DoneThread() for _ in range(3))
        assert pool.join(timeout=5.0) is True
        assert now[0] == 0.0


class TestRetryAfterClamp:
    def test_infinite_retry_after_serializes_finite(self, monkeypatch):
        """Regression: a zero-rate bucket reports ``retry_after_s=inf``;
        ``int(inf)`` raises OverflowError and ``json.dumps(inf)`` emits
        ``Infinity``, which is not JSON.  The daemon clamps before both."""
        from repro.service.ratelimit import MAX_RETRY_AFTER_S

        service = AnalysisService(
            ServiceConfig(workers=0, pipeline=pipeline_config())
        )
        service.start()
        try:
            monkeypatch.setattr(
                service.limiter,
                "allow",
                lambda client: (_ for _ in ()).throw(
                    RateLimitedError(client, float("inf"))
                ),
            )
            status, body, headers = service.submit(dict(SPEC))
            assert status == 429
            assert body["retry_after_s"] == MAX_RETRY_AFTER_S
            json.dumps(body)  # must be valid JSON, not Infinity
            assert int(headers["Retry-After"]) == int(MAX_RETRY_AFTER_S)
        finally:
            service.drain(timeout=60.0)

    def test_zero_rate_bucket_still_reports_infinity_in_process(self):
        """The truth stays in-process: only serialization clamps."""
        bucket = TokenBucket(rate_per_s=0.0, burst=1, clock=lambda: 0.0)
        assert bucket.try_acquire() is None  # the one burst token
        assert bucket.try_acquire() == float("inf")  # never refills


# -- CLI ---------------------------------------------------------------------------


class TestCliInterrupt:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_families", interrupted)
        assert cli.main(["families"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_submit_against_dead_port_is_a_clean_error(self):
        import repro.cli as cli

        with running_service(workers=0) as (service, client):
            dead_port = client.port  # grab a port, then free it
        with pytest.raises(SystemExit, match="cannot reach"):
            cli.main([
                "submit", "--port", str(dead_port), "--seed", str(SEED),
                "--apps", str(N_APPS), "--index", "3",
            ])


# -- observability ----------------------------------------------------------------


class TestServiceObservability:
    def test_requests_and_jobs_are_traced_and_metered(self):
        with running_service() as (service, client):
            client.wait(client.submit(SPEC)["job_id"])
            client.submit(SPEC)
            metrics = client.metrics()
            assert metrics["counters"]["service.http.requests"] >= 3
            assert metrics["counters"]["service.http.2xx"] >= 3
            assert metrics["histograms"]["service.http"]["count"] >= 3
            assert metrics["histograms"]["stage.service.build"]["count"] == 1
            assert metrics["histograms"]["stage.service.analyze"]["count"] == 1
            # pipeline-internal stage histograms merged from the worker.
            assert "stage.decompile" in metrics["histograms"]
            spans = service.trace_dicts()
            names = {span["name"] for span in spans}
            assert "http.request" in names
            assert "service.job" in names and "service.analyze" in names
            job_spans = [s for s in spans if s["name"] == "service.job"]
            assert len(job_spans) == 1  # dedup: one execution, one job span

    def test_queue_depth_gauge_and_stats_shape(self):
        with running_service(workers=0, queue_depth=8) as (service, client):
            client.submit({**SPEC, "index": 0})
            client.submit({**SPEC, "index": 1})
            stats = client.stats()
            assert stats["queue"]["depth"] == 2
            assert stats["queue"]["max_depth"] == 8
            assert stats["jobs"]["queued"] == 2
            assert json.dumps(stats)  # JSON-plain all the way down
