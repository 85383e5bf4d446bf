"""The network farm: wire formats, the lease ledger, and multi-node drains.

The expensive end-to-end cases run a real coordinator on an ephemeral
port with real ``join_farm`` workers against a small corpus; the
SIGKILL test spawns ``repro farm join`` as a subprocess so the kill is
a genuine process death, not a simulated one.
"""

import functools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.farm.networker as networker_module
from repro.core.config import DyDroidConfig
from repro.corpus.generator import CorpusGenerator
from repro.farm import ChaosSpec, FarmConfig, run_farm
from repro.farm.coordinator import FarmRun
from repro.farm.jobs import (
    AppResult,
    ShardJob,
    ShardResult,
    chaos_from_wire,
    chaos_to_wire,
    config_from_wire,
    config_to_wire,
    run_fingerprint,
    shard_job_from_wire,
    shard_job_to_wire,
    shard_result_from_wire,
    shard_result_to_wire,
)
from repro.farm.netcoord import FarmCoordinator, ShardLedger
from repro.farm.networker import FarmJoinError, join_farm
from repro.farm.worker import run_shard
from repro.observe.metrics import MetricsRegistry
from repro.service.client import ServiceClient, ServiceClientError
from tests.helpers import dying_shard

N_APPS = 12
SEED = 19
N_SHARDS = 4  # contiguous: 3 apps per shard


def pipeline_config():
    return DyDroidConfig(train_samples_per_family=2, run_replays=False)


def farm_config(**kwargs):
    defaults = dict(
        n_apps=N_APPS,
        corpus_seed=SEED,
        workers=1,
        n_shards=N_SHARDS,
        pipeline=pipeline_config(),
        backoff_s=0.0,
    )
    defaults.update(kwargs)
    return FarmConfig(**defaults)


@pytest.fixture(scope="module")
def local_result():
    """The single-process reference every distributed run must reproduce."""
    return run_farm(farm_config())


@pytest.fixture(scope="module")
def corpus_packages():
    generator = CorpusGenerator(seed=SEED)
    return [b.package for b in generator.sample_blueprints(N_APPS)]


def json_round_trip(data):
    return json.loads(json.dumps(data))


# -- wire formats ------------------------------------------------------------------


class TestWireRoundTrips:
    def test_config_survives_json(self):
        config = pipeline_config()
        restored = config_from_wire(json_round_trip(config_to_wire(config)))
        assert restored == config
        assert run_fingerprint(SEED, N_APPS, restored) == run_fingerprint(
            SEED, N_APPS, config
        )

    def test_chaos_survives_json(self):
        chaos = ChaosSpec(
            fail_packages=("com.a", "com.b"),
            fail_attempts=3,
            slow_packages=("com.c",),
            slow_s=0.5,
        )
        assert chaos_from_wire(json_round_trip(chaos_to_wire(chaos))) == chaos

    def test_shard_job_survives_json(self):
        job = ShardJob(
            shard_id=2,
            corpus_seed=SEED,
            n_apps=N_APPS,
            indices=(3, 4, 5),
            config=pipeline_config(),
            timeout_s=9.0,
            chaos=ChaosSpec(slow_packages=("com.x",), slow_s=0.1),
            verdict_store="/tmp/verdicts.jsonl",
        )
        assert shard_job_from_wire(json_round_trip(shard_job_to_wire(job))) == job

    def test_shard_result_survives_json(self):
        job = ShardJob(
            shard_id=0,
            corpus_seed=SEED,
            n_apps=N_APPS,
            indices=(0, 1),
            config=pipeline_config(),
        )
        result = run_shard(job)
        restored = shard_result_from_wire(json_round_trip(shard_result_to_wire(result)))
        assert restored.shard_id == result.shard_id
        assert restored.results == result.results
        assert restored.quarantined == result.quarantined
        assert restored.metrics == result.metrics

    def test_fingerprint_tracks_every_input(self):
        base = run_fingerprint(SEED, N_APPS, pipeline_config())
        assert run_fingerprint(SEED + 1, N_APPS, pipeline_config()) != base
        assert run_fingerprint(SEED, N_APPS + 1, pipeline_config()) != base
        other = DyDroidConfig(train_samples_per_family=3, run_replays=False)
        assert run_fingerprint(SEED, N_APPS, other) != base


# -- lease ledger (fake clock) -----------------------------------------------------


def make_jobs(n_shards=3, apps_per_shard=1):
    jobs = []
    for shard_id in range(n_shards):
        start = shard_id * apps_per_shard
        jobs.append(
            ShardJob(
                shard_id=shard_id,
                corpus_seed=SEED,
                n_apps=n_shards * apps_per_shard,
                indices=tuple(range(start, start + apps_per_shard)),
                config=pipeline_config(),
            )
        )
    return jobs


class TestShardLedger:
    def make_ledger(self, **kwargs):
        now = [0.0]
        registry = MetricsRegistry()
        ledger = ShardLedger(
            kwargs.pop("jobs", make_jobs()),
            lease_s=kwargs.pop("lease_s", 10.0),
            registry=registry,
            clock=lambda: now[0],
        )
        return ledger, now, registry

    def test_grants_lowest_entry_first_then_drains(self):
        ledger, _, registry = self.make_ledger()
        granted = [ledger.lease("a").entry_id for _ in range(3)]
        assert granted == [0, 1, 2]
        assert ledger.lease("a") is None
        assert registry.counter_value("farm.lease.granted") == 3

    def test_renew_extends_the_lease(self):
        ledger, now, _ = self.make_ledger()
        entry = ledger.lease("a")
        now[0] = 8.0
        assert ledger.renew("a", entry.entry_id, {"completed": 1, "total": 1})
        now[0] = 12.0  # past the original expiry, inside the renewed one
        assert ledger.expire() == 0
        now[0] = 19.0
        assert ledger.expire() == 1

    def test_expired_lease_is_stolen_by_the_next_worker(self):
        ledger, now, registry = self.make_ledger()
        first = ledger.lease("a")
        now[0] = 11.0  # lease_s=10: worker a went silent
        second = ledger.lease("b")
        assert second.entry_id == first.entry_id
        assert second.attempts == 2
        assert registry.counter_value("farm.lease.expired") == 1
        assert registry.counter_value("farm.lease.stolen") == 1

    def test_regrant_to_the_same_worker_is_not_a_steal(self):
        ledger, now, registry = self.make_ledger()
        entry = ledger.lease("a")
        now[0] = 11.0
        assert ledger.lease("a").entry_id == entry.entry_id
        assert registry.counter_value("farm.lease.stolen") == 0

    def test_renew_after_expiry_reports_the_lease_lost(self):
        ledger, now, _ = self.make_ledger()
        entry = ledger.lease("a")
        now[0] = 11.0
        assert not ledger.renew("a", entry.entry_id, {})

    def test_completion_is_first_wins(self):
        ledger, now, registry = self.make_ledger()
        entry = ledger.lease("a")
        now[0] = 11.0
        stolen = ledger.lease("b")
        assert ledger.complete("b", stolen.entry_id)
        # worker a finished too late: its shipment is discarded.
        assert not ledger.complete("a", entry.entry_id)
        assert registry.counter_value("farm.lease.stale") == 1

    def test_completion_from_an_expired_holder_counts_if_first(self):
        ledger, now, _ = self.make_ledger()
        entry = ledger.lease("a")
        now[0] = 11.0  # expired, but nobody re-leased it
        assert ledger.complete("a", entry.entry_id)

    def test_fail_splits_a_multi_app_shard(self):
        ledger, _, _ = self.make_ledger(jobs=make_jobs(n_shards=1, apps_per_shard=3))
        entry = ledger.lease("a")
        requeued, quarantine = ledger.fail("a", entry.entry_id)
        assert requeued == 3
        assert quarantine == ()
        singles = [ledger.lease("a") for _ in range(3)]
        assert [s.job.indices for s in singles] == [(0,), (1,), (2,)]
        assert ledger.lease("a") is None

    def test_fail_surrenders_a_single_app_shard(self):
        ledger, _, _ = self.make_ledger(jobs=make_jobs(n_shards=1, apps_per_shard=1))
        entry = ledger.lease("a")
        requeued, quarantine = ledger.fail("a", entry.entry_id)
        assert requeued == 0
        assert quarantine == (0,)
        assert ledger.done()

    def test_done_requires_every_entry(self):
        ledger, _, _ = self.make_ledger(jobs=make_jobs(n_shards=2))
        first = ledger.lease("a")
        ledger.complete("a", first.entry_id)
        assert not ledger.done()
        second = ledger.lease("a")
        ledger.complete("a", second.entry_id)
        assert ledger.done()


class TestConcurrentFolds:
    def test_a_finish_that_sees_the_ledger_drained_sees_every_fold(
        self, local_result, monkeypatch
    ):
        """A completion races a drain watcher, as an HTTP handler thread
        races the coordinator's reaper: the result must hold every app."""
        analyses = {app.corpus_index: app.to_dict() for app in local_result.report.apps}
        run = FarmRun(farm_config(), lease_s=30.0)
        entries = [run.lease("w") for _ in range(N_SHARDS)]
        transition = run.ledger.complete

        def preempted_complete(worker, entry_id):
            accepted = transition(worker, entry_id)
            time.sleep(0.05)  # the completer loses the CPU right here
            return accepted

        monkeypatch.setattr(run.ledger, "complete", preempted_complete)
        finished = []

        def watch():
            while not run.drained():
                time.sleep(0.001)
            finished.append(run.finish(workers=1))

        watcher = threading.Thread(target=watch)
        watcher.start()
        for entry in entries:
            apps = [AppResult(i, "p{}".format(i), analyses[i]) for i in entry.job.indices]
            run.complete(entry.entry_id, ShardResult(entry.job.shard_id, apps), "w")
        watcher.join(timeout=30.0)
        assert not watcher.is_alive()
        assert finished[0].report.n_total == N_APPS


# -- coordinator HTTP surface ------------------------------------------------------


class TestCoordinatorEndpoints:
    @pytest.fixture()
    def coordinator(self):
        coordinator = FarmCoordinator(farm_config(), port=0, lease_s=30.0).start()
        try:
            yield coordinator
        finally:
            coordinator.stop()

    def test_run_descriptor_reconstructs_the_fingerprint(self, coordinator):
        client = ServiceClient("127.0.0.1", coordinator.port)
        run = client.request("GET", "/v1/run")
        config = config_from_wire(run["pipeline"])
        assert config == coordinator.config.pipeline
        assert (
            run_fingerprint(run["corpus_seed"], run["n_apps"], config)
            == run["fingerprint"]
        )

    def test_malformed_posts_are_rejected(self, coordinator):
        client = ServiceClient("127.0.0.1", coordinator.port)
        body = client.request("POST", "/v1/lease", {}, expect_error=True)
        assert body["_status"] == 400
        body = client.request(
            "POST", "/v1/renew", {"worker": "w", "entry_id": "zero"},
            expect_error=True,
        )
        assert body["_status"] == 400

    def test_unknown_route_is_404(self, coordinator):
        client = ServiceClient("127.0.0.1", coordinator.port)
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_health_status_and_prom_metrics(self, coordinator):
        client = ServiceClient("127.0.0.1", coordinator.port)
        assert client.request("GET", "/healthz")["ok"] is True
        client.request("POST", "/v1/lease", {"worker": "probe"})
        status = client.request("GET", "/v1/status")
        assert status["ledger"]["leased"] == 1
        assert status["ledger"]["workers"] == ["probe"]
        prom = client.request_text("GET", "/metrics?format=prom")
        assert "repro_farm_lease_granted_total 1" in prom

    def test_join_refuses_a_dead_coordinator(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(FarmJoinError):
            join_farm("127.0.0.1", port, worker_id="ghost")


# -- end-to-end drains -------------------------------------------------------------


class TestNetworkDrain:
    def test_single_node_matches_the_local_farm(self, local_result, tmp_path):
        coordinator = FarmCoordinator(farm_config(), port=0, lease_s=30.0).start()
        try:
            summary = join_farm(
                "127.0.0.1",
                coordinator.port,
                worker_id="nodeA",
                telemetry_dir=str(tmp_path),
            )
            result = coordinator.wait(timeout=120.0)
        finally:
            coordinator.stop()
        assert summary.shards_completed == N_SHARDS
        assert summary.apps_analyzed == N_APPS
        assert summary.errors == []
        assert result.report.render_all() == local_result.report.render_all()
        assert result.metrics["leases"]["granted"] == N_SHARDS
        assert result.metrics["leases"]["stale"] == 0

    def test_coordinator_crash_leaves_a_resumable_journal(self, local_result, tmp_path):
        checkpoint = str(tmp_path / "journal.jsonl")
        first = FarmCoordinator(
            farm_config(checkpoint=checkpoint), port=0, lease_s=30.0
        ).start()
        try:
            # Drive exactly one shard by hand, then stop the coordinator
            # mid-run -- the journal must absorb that shard and nothing else.
            entry = first.ledger.lease("manual")
            result = run_shard(entry.job)
            first.handle_complete("manual", entry.entry_id, shard_result_to_wire(result))
        finally:
            first.stop()

        second = FarmCoordinator(
            farm_config(checkpoint=checkpoint, resume=True), port=0, lease_s=30.0
        ).start()
        try:
            summary = join_farm(
                "127.0.0.1",
                second.port,
                worker_id="nodeB",
                telemetry_dir=str(tmp_path / "telemetry"),
            )
            merged = second.wait(timeout=120.0)
        finally:
            second.stop()
        assert merged.resumed_apps == len(entry.job.indices)
        assert summary.shards_completed == N_SHARDS - 1
        assert merged.report.render_all() == local_result.report.render_all()

    def test_fully_resumed_serve_finishes_without_workers(self, local_result, tmp_path):
        checkpoint = str(tmp_path / "journal.jsonl")
        coordinator = FarmCoordinator(
            farm_config(checkpoint=checkpoint), port=0, lease_s=30.0
        ).start()
        try:
            join_farm(
                "127.0.0.1",
                coordinator.port,
                worker_id="nodeA",
                telemetry_dir=str(tmp_path / "telemetry"),
            )
            coordinator.wait(timeout=120.0)
        finally:
            coordinator.stop()

        resumed = FarmCoordinator(
            farm_config(checkpoint=checkpoint, resume=True), port=0, lease_s=30.0
        ).start()
        try:
            result = resumed.wait(timeout=10.0)
        finally:
            resumed.stop()
        assert result.resumed_apps == N_APPS
        assert result.metrics["leases"]["granted"] == 0
        assert result.report.render_all() == local_result.report.render_all()


class TestWorkerProcessDeath:
    def test_a_dead_worker_process_splits_only_its_shard(
        self, local_result, tmp_path, monkeypatch
    ):
        """One of a node's two worker processes dies once on shard 1."""
        marker = tmp_path / "died"
        monkeypatch.setattr(
            networker_module, "run_shard",
            functools.partial(dying_shard, run_shard, 4, str(marker)),
        )
        coordinator = FarmCoordinator(farm_config(), port=0, lease_s=30.0).start()
        try:
            summary = join_farm(
                "127.0.0.1",
                coordinator.port,
                workers=2,
                worker_id="nodeA",
                telemetry_dir=str(tmp_path / "nodeA"),
            )
            result = coordinator.wait(timeout=120.0)
        finally:
            coordinator.stop()
        assert marker.exists()
        assert summary.shards_failed == 1
        assert not result.quarantined
        assert result.report.render_all() == local_result.report.render_all()
        # only the dead shard was split, one entry per app
        assert coordinator.ledger.snapshot()["entries"] == N_SHARDS + N_APPS // N_SHARDS


class TestWorkerKilledMidShard:
    def test_sigkilled_worker_shard_is_stolen_exactly_once(
        self, local_result, corpus_packages, tmp_path
    ):
        """The acceptance scenario: two nodes, one SIGKILLed mid-shard.

        Shard 0's apps are chaos-slowed so the kill lands while node A
        verifiably holds its lease; the lease expires, node B steals the
        shard, and the merged report must still equal the local
        single-process run -- every app analyzed exactly once fleet-wide
        (a double fold would change the merged tables).
        """
        slow = tuple(corpus_packages[:3])  # contiguous shard 0 = indices 0..2
        config = farm_config(
            checkpoint=str(tmp_path / "journal.jsonl"),
            verdict_store=str(tmp_path / "verdicts.jsonl"),
            chaos=ChaosSpec(slow_packages=slow, slow_s=0.6),
        )
        coordinator = FarmCoordinator(config, port=0, lease_s=1.0).start()
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "farm", "join",
                "--host", "127.0.0.1", "--port", str(coordinator.port),
                "--name", "nodeA", "--telemetry-dir", str(tmp_path / "nodeA"),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            # Wait until node A verifiably holds a lease...
            deadline = time.monotonic() + 60.0
            held = None
            while time.monotonic() < deadline:
                leases = coordinator.status()["ledger"]["leases"]
                held = next((l for l in leases if l["worker"] == "nodeA"), None)
                if held is not None:
                    break
                time.sleep(0.05)
            assert held is not None, "node A never leased a shard"
            time.sleep(0.25)  # ...and is mid-app inside the slowed shard.
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)

            summary = join_farm(
                "127.0.0.1",
                coordinator.port,
                worker_id="nodeB",
                telemetry_dir=str(tmp_path / "nodeB"),
            )
            result = coordinator.wait(timeout=180.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            coordinator.stop()

        leases = result.metrics["leases"]
        assert leases["expired"] >= 1, leases
        assert leases["stolen"] >= 1, leases
        assert summary.errors == []
        # Exactly-once fleet-wide: the merged report is byte-identical to
        # the uninterrupted single-process reference.
        assert result.report.render_all() == local_result.report.render_all()
        assert len(result.quarantined) == 0
