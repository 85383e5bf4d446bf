"""The network farm worker: ``repro farm join`` leasing shards over HTTP.

A join worker is the stateless half of :mod:`repro.farm.netcoord`: it
fetches the run descriptor, proves it reconstructs the same run
fingerprint from the wire-serialized pipeline config (the resume
contract, extended over the network), then drives the lease loop of
:mod:`repro.farm.lease` against the coordinator's ledger until it
reports the ledger drained.  Shards execute through the same
:func:`repro.farm.worker.run_shard` and loop as the local farm, so one
node with ``--workers N`` is exactly an N-process farm whose ledger
happens to live elsewhere -- a local worker process dying is reported
through ``/v1/fail`` for that one entry.

Lease renewal rides the existing per-app heartbeats: ``run_shard``
atomically rewrites ``heartbeat-<shard>.json`` after every settled app
(when a telemetry dir is set), and a background renewal thread reads
that file and POSTs its ``completed/total`` progress with each
``/v1/renew`` -- so the coordinator's status endpoint shows per-app
progress for every node in the fleet without any new instrumentation in
the analysis path.  A worker that dies simply stops renewing; nothing
here needs cleanup for the fleet to recover (the coordinator's reaper
re-queues the lease).

Completion is shipped optimistically even if a renewal reported the
lease lost: the ledger is first-completion-wins, so the attempt either
lands (our work counts) or returns ``accepted: false`` (someone else
finished first; we drop it and lease the next shard).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.farm.flight import read_heartbeats
from repro.farm.jobs import (
    ShardJob,
    ShardResult,
    config_from_wire,
    run_fingerprint,
    shard_job_from_wire,
    shard_result_to_wire,
)
from repro.farm.lease import WORKER_DIED, LeaseEntry, run_leases
from repro.farm.worker import run_shard
from repro.service.client import ServiceClient, ServiceClientError

__all__ = ["FarmJoinError", "JoinSummary", "join_farm"]


class FarmJoinError(RuntimeError):
    """The coordinator is unreachable or describes a different run."""


@dataclass
class JoinSummary:
    """What one join node did before the coordinator drained."""

    worker: str
    shards_completed: int = 0
    shards_stale: int = 0
    shards_failed: int = 0
    apps_analyzed: int = 0
    apps_quarantined: int = 0
    lost_leases: int = 0
    wall_s: float = 0.0
    errors: List[str] = field(default_factory=list)


def default_worker_id() -> str:
    return "{}:{}".format(socket.gethostname(), os.getpid())


class _Remote:
    """The coordinator's ledger as a :func:`run_leases` lessee.

    A background thread renews every lease this node holds, at a third of
    the lease so two consecutive losses still leave margin before expiry.
    """

    def __init__(
        self,
        client: ServiceClient,
        summary: JoinSummary,
        lease_s: float,
        telemetry_dir: Optional[str],
    ) -> None:
        self._client = client
        self._summary = summary
        self._telemetry_dir = telemetry_dir
        self._interval_s = max(0.05, lease_s / 3.0)
        self._held: Dict[int, ShardJob] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._drained = False
        self._renewer = threading.Thread(
            target=self._renew_loop, name="repro-farm-renewer", daemon=True
        )

    def __enter__(self) -> "_Remote":
        self._renewer.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._renewer.join(timeout=5.0)

    def drained(self) -> bool:
        return self._drained

    def lease(self) -> Optional[LeaseEntry]:
        response = None if self._drained else self._post("/v1/lease", attempts=1)
        if response is None or response.get("done"):
            self._drained = True  # drained, or the coordinator is gone
            return None
        if response.get("empty"):
            return None
        job = shard_job_from_wire(response["shard"])
        entry = LeaseEntry(int(response["entry_id"]), replace(job, flight_dir=self._telemetry_dir))
        with self._lock:
            self._held[entry.entry_id] = entry.job
        return entry

    def complete(self, entry_id: int, result: ShardResult) -> None:
        self._release(entry_id)
        response = self._post(
            "/v1/complete", entry_id=entry_id, result=shard_result_to_wire(result)
        )
        if response is None or response.get("done"):
            self._drained = True  # coordinator gone, or nothing left to ship
        if response is not None and response.get("accepted"):
            self._summary.shards_completed += 1
            self._summary.apps_analyzed += len(result.results)
            self._summary.apps_quarantined += len(result.quarantined)
        elif response is not None:
            self._summary.shards_stale += 1

    def fail(self, entry_id: int) -> None:
        self._release(entry_id)
        self._summary.shards_failed += 1
        self._summary.errors.append("entry {}: {}".format(entry_id, WORKER_DIED))
        self._post("/v1/fail", entry_id=entry_id, error=WORKER_DIED)

    def _release(self, entry_id: int) -> None:
        with self._lock:
            self._held.pop(entry_id, None)

    def _post(self, path: str, attempts: int = 3, **body) -> Optional[Dict[str, object]]:
        """POST as this worker; None if the coordinator stays unreachable.

        A settled shard is minutes of analysis -- worth a few retries over
        a transient network blip -- but the coordinator exiting after the
        last shard is normal, so persistent unreachability is not an error.
        """
        body["worker"] = self._summary.worker
        for attempt in range(attempts):
            try:
                return self._client.request("POST", path, body)
            except ServiceClientError:
                if attempt + 1 < attempts:
                    time.sleep(0.2 * (attempt + 1))
        return None

    def _progress_for(self, job: ShardJob) -> Dict[str, int]:
        if not self._telemetry_dir:
            return {}
        heartbeat = read_heartbeats(self._telemetry_dir).get(job.shard_id)
        if not heartbeat:
            return {}
        return {
            "completed": int(heartbeat.get("completed", 0)),
            "total": int(heartbeat.get("total", len(job.indices))),
        }

    def _renew_loop(self) -> None:
        while not self._stop.wait(self._interval_s):
            with self._lock:
                held = list(self._held.items())
            for entry_id, job in held:
                response = self._post(
                    "/v1/renew", attempts=1, entry_id=entry_id, progress=self._progress_for(job)
                )
                if response is not None and not response.get("ok"):
                    # Lease lost (expired and possibly re-granted).  Keep
                    # computing: completion is first-wins, so the work may
                    # still land; the counter records the near-miss.
                    self._summary.lost_leases += 1
                    self._release(entry_id)


def join_farm(
    host: str,
    port: int,
    workers: int = 1,
    worker_id: Optional[str] = None,
    telemetry_dir: Optional[str] = None,
    poll_s: float = 0.5,
    request_timeout_s: float = 30.0,
) -> JoinSummary:
    """Lease and analyze shards from ``host:port`` until the run drains.

    ``workers`` bounds concurrent leases (and local analysis processes,
    via the same lease loop the local farm uses).  ``telemetry_dir`` is
    node-local: flight recordings, heartbeats, and renewal progress all
    come from there, so two nodes must not share one (they may freely
    share the verdict store the coordinator names, which is the point).
    """
    client = ServiceClient(host, port, timeout=request_timeout_s)
    started = time.perf_counter()
    summary = JoinSummary(worker=worker_id or default_worker_id())

    try:
        run = client.request("GET", "/v1/run")
    except ServiceClientError as exc:
        raise FarmJoinError("cannot fetch run descriptor: {}".format(exc))
    config = config_from_wire(run.get("pipeline") or {})
    expected = run.get("fingerprint")
    actual = run_fingerprint(run.get("corpus_seed", 0), run.get("n_apps", 0), config)
    if actual != expected:
        raise FarmJoinError(
            "run fingerprint mismatch (coordinator {} != reconstructed {}): "
            "protocol or config drift between nodes".format(expected, actual)
        )
    lease_s = float(run.get("lease_s") or 15.0)
    # With workers=1 a shard runs inline in this thread; the renewer
    # thread keeps its lease alive through the whole analysis.
    with _Remote(client, summary, lease_s, telemetry_dir) as remote:
        run_leases(remote, run_shard, max(1, workers), poll_s=poll_s)
    summary.wall_s = time.perf_counter() - started
    return summary
