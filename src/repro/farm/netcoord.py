"""The network farm coordinator: shard leases over HTTP for multi-node runs.

``repro farm serve`` puts the run state of :mod:`repro.farm.coordinator`
(:class:`~repro.farm.coordinator.FarmRun`: ledger, journal, fold) behind
HTTP, so any number of ``repro farm join`` workers (separate processes,
separate hosts) can pull work from it.  The transport reuses the
daemon's HTTP plumbing (:class:`repro.service.http.JsonRequestHandler`
server-side, :class:`repro.service.client.ServiceClient` worker-side);
the work distribution is the pull-based **lease ledger** of
:mod:`repro.farm.lease`, which is what makes stealing and crash
recovery natural:

- ``POST /v1/lease``    -- a worker asks for work; the first pending
  shard is leased to it for ``lease_s`` seconds (work-stealing: whoever
  asks first gets the shard, idle nodes drain the queue of a slow one);
- ``POST /v1/renew``    -- heartbeat: the worker extends its lease and
  reports per-app progress read from its local flight-recorder
  heartbeat file (:func:`repro.farm.flight.write_heartbeat`);
- ``POST /v1/complete`` -- the worker ships the full
  :class:`~repro.farm.jobs.ShardResult` as JSON; folding is
  first-completion-wins, so a late completion from a stale lease is
  discarded and every app index lands in the merged report exactly once;
- ``POST /v1/fail``     -- a worker process died on a shard; the ledger
  re-queues it one app per shard or quarantines a single-app shard,
  exactly as in a local run;
- ``GET  /v1/run``      -- the run descriptor: corpus identity, the full
  wire-serialized pipeline config, and the run fingerprint a joining
  worker must reproduce before it may lease (the resume contract of
  :mod:`repro.farm.checkpoint`, extended over the network);
- ``GET  /v1/status``, ``/healthz``, ``/metrics`` -- observability.

A worker killed mid-shard (SIGKILL, OOM) simply stops renewing; when its
lease expires the shard returns to PENDING and the next ``lease`` call
hands it to a surviving worker (counted in ``farm.lease.expired`` /
``farm.lease.stolen``).  The checkpoint journal stays coordinator-owned
and single-writer -- workers never touch it -- so the crash-consistency
contract of :class:`~repro.farm.checkpoint.CheckpointJournal` is
unchanged, and killing the *coordinator* leaves a resumable journal
exactly as the local farm does.
"""

from __future__ import annotations

import threading
from http.server import ThreadingHTTPServer
from typing import Dict, Optional

from repro.farm.coordinator import FarmConfig, FarmResult, FarmRun
from repro.farm.jobs import (
    chaos_to_wire,
    config_to_wire,
    run_fingerprint,
    shard_job_to_wire,
    shard_result_from_wire,
)
from repro.farm.lease import LeaseEntry, ShardLedger
from repro.observe.metrics import lease_summary
from repro.observe.prom import PROM_CONTENT_TYPE, to_prometheus
# The daemon's transport plumbing is exactly the reuse the network farm
# wants: one JSON-over-HTTP idiom repo-wide.
from repro.service.http import JsonRequestHandler

__all__ = [
    "NETFARM_PROTOCOL",
    "FarmCoordinator",
    "LeaseEntry",
    "ShardLedger",
]

NETFARM_PROTOCOL = 1


class FarmCoordinator:
    """``repro farm serve``: a :class:`FarmRun` behind HTTP.

    The run owns everything stateful -- the lease ledger, the
    (single-writer) checkpoint journal, the merge accumulators and the
    metrics registry every completed shard folds into; this class adds
    the server, the lease reaper and the finish signal.  Workers are
    stateless leaseholders; killing any of them loses at most one lease
    interval of progress, and killing the coordinator leaves a journal
    ``--resume`` accepts.
    """

    def __init__(
        self,
        config: FarmConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_s: float = 15.0,
        reap_interval_s: Optional[float] = None,
    ) -> None:
        self.config = config
        self.host = host
        self._requested_port = port
        self.lease_s = lease_s
        self.reap_interval_s = (
            reap_interval_s if reap_interval_s is not None else max(0.2, lease_s / 3.0)
        )
        self.run = FarmRun(config, lease_s=lease_s)
        self.ledger = self.run.ledger
        self.fingerprint = run_fingerprint(
            config.corpus_seed, config.n_apps, config.pipeline
        )
        self._finished = threading.Event()
        self._stop_reaper = threading.Event()
        self._server = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("coordinator is not started")
        return self._server.server_port

    def start(self) -> "FarmCoordinator":
        self._server = _FarmHTTPServer((self.host, self._requested_port), self)
        for target, name in (
            (self._server.serve_forever, "repro-farm-coordinator"),
            (self._reap_loop, "repro-farm-reaper"),
        ):
            threading.Thread(target=target, name=name, daemon=True).start()
        self._settled()  # a fully-resumed run has nothing left to lease
        return self

    def _reap_loop(self) -> None:
        while not self._stop_reaper.wait(self.reap_interval_s):
            self.ledger.expire()
            self._settled()

    def wait(self, timeout: Optional[float] = None) -> FarmResult:
        """Block until every shard is DONE; returns the merged result."""
        if not self._finished.wait(timeout):
            raise TimeoutError(
                "farm run incomplete after {}s ({})".format(
                    timeout, self.ledger.snapshot()
                )
            )
        return self.run.result

    def stop(self) -> None:
        """Shut the server down (idempotent); the journal stays resumable."""
        self._stop_reaper.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        self.run.close()

    def _finish(self) -> None:
        result = self.run.finish(workers=len(self.ledger.workers_seen()))
        result.metrics.setdefault("leases", lease_summary(self.run.metrics.registry))
        self._finished.set()

    # -- endpoint bodies -------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """``GET /v1/run``: everything a worker needs to rebuild the jobs."""
        return {
            "kind": "farm-run",
            "protocol": NETFARM_PROTOCOL,
            "corpus_seed": self.config.corpus_seed,
            "n_apps": self.config.n_apps,
            "fingerprint": self.fingerprint,
            "lease_s": self.lease_s,
            "pipeline": config_to_wire(self.config.pipeline),
            "chaos": chaos_to_wire(self.config.chaos),
            "timeout_s": self.config.timeout_s,
            "max_retries": self.config.max_retries,
            "backoff_s": self.config.backoff_s,
            "trace": self.config.trace,
            "verdict_store": self.run.store_path,
        }

    def handle_lease(self, worker: str) -> Dict[str, object]:
        entry = self.run.lease(worker)
        if entry is None:
            return {"empty": True, "done": self._settled(), "retry_after_s": 0.5}
        return {
            "entry_id": entry.entry_id,
            "lease_s": self.lease_s,
            "shard": shard_job_to_wire(entry.job),
        }

    def handle_complete(
        self, worker: str, entry_id: int, result_wire: Dict[str, object]
    ) -> Dict[str, object]:
        accepted = self.run.complete(entry_id, shard_result_from_wire(result_wire), worker)
        return {"accepted": accepted, "done": self._settled()}

    def handle_fail(self, worker: str, entry_id: int) -> Dict[str, object]:
        requeued, quarantined = self.run.fail(entry_id, worker)
        self._settled()
        return {"requeued": requeued, "quarantined": quarantined}

    def _settled(self) -> bool:
        """Finish the run once its ledger drained; True if it has."""
        done = self.run.drained()
        if done:
            self._finish()
        return done

    def status(self) -> Dict[str, object]:
        """``GET /v1/status``: ledger + progress for dashboards and tests."""
        settled, quarantined = self.run.progress()
        return {
            "kind": "farm-status",
            "fingerprint": self.fingerprint,
            "n_apps": self.config.n_apps,
            "apps_settled": settled,
            "apps_quarantined": quarantined,
            "done": self._finished.is_set(),
            "ledger": self.ledger.snapshot(),
            "leases": lease_summary(self.run.metrics.registry),
        }


# -- HTTP layer --------------------------------------------------------------------


class _FarmHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, coordinator: FarmCoordinator) -> None:
        super().__init__(address, _FarmHandler)
        self.coordinator = coordinator


class _FarmHandler(JsonRequestHandler):
    @property
    def coordinator(self) -> FarmCoordinator:
        return self.server.coordinator

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        try:
            status, body, raw = self._route(method)
        except Exception as exc:  # noqa: BLE001 - a bad request must not kill serving
            status, body, raw = 500, {"error": str(exc)}, None
        try:
            if raw is not None:
                self._send_bytes(status, raw.encode("utf-8"), PROM_CONTENT_TYPE, {})
            else:
                self._send(status, body, {})
        except (BrokenPipeError, ConnectionResetError):
            pass  # worker went away mid-response

    def _route(self, method: str):
        coordinator = self.coordinator
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if method == "GET":
            if path == "/v1/run":
                return 200, coordinator.describe(), None
            if path == "/v1/status":
                return 200, coordinator.status(), None
            if path == "/healthz":
                return 200, {"ok": True, "done": coordinator._finished.is_set()}, None
            if path == "/metrics":
                if "format=prom" in query:
                    return 200, {}, to_prometheus(coordinator.run.metrics.registry)
                return 200, coordinator.run.metrics.registry.to_dict(), None
            return 404, {"error": "no route GET {}".format(path)}, None
        if method == "POST":
            payload, error = self._read_json()
            if payload is None:
                return 400, {"error": error}, None
            worker = payload.get("worker")
            if not isinstance(worker, str) or not worker:
                return 400, {"error": "'worker' must be a non-empty string"}, None
            if path == "/v1/lease":
                return 200, coordinator.handle_lease(worker), None
            entry_id = payload.get("entry_id")
            if not isinstance(entry_id, int):
                return 400, {"error": "'entry_id' must be an integer"}, None
            if path == "/v1/renew":
                progress = payload.get("progress")
                progress = progress if isinstance(progress, dict) else {}
                return 200, {"ok": coordinator.ledger.renew(worker, entry_id, progress)}, None
            if path == "/v1/complete":
                result = payload.get("result")
                if not isinstance(result, dict):
                    return 400, {"error": "'result' must be an object"}, None
                return 200, coordinator.handle_complete(worker, entry_id, result), None
            if path == "/v1/fail":
                return 200, coordinator.handle_fail(worker, entry_id), None
            return 404, {"error": "no route POST {}".format(path)}, None
        return 405, {"error": "method {} not allowed".format(method)}, None
