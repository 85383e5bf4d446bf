"""The analysis service core: admission, dedup, dispatch, serve.

:class:`AnalysisService` is the transport-independent brain behind the
HTTP layer (:mod:`repro.service.http` holds the sockets).  One submission
travels::

    submit -> rate limiter -> spec-level cache probe -> in-flight
    coalescing -> queue admission -> scheduler worker -> build record ->
    content-digest probe -> DyDroid.analyze_app -> content cache (+ JSONL
    journal) -> DONE

Deduplication happens at three levels, strongest first:

1. **spec-level** (submit time): the submission key already maps to a
   cached digest -- answered instantly, no job queued;
2. **in-flight coalescing** (submit time): an identical submission is
   queued or running -- the new submission attaches to that job, so N
   concurrent duplicates cost exactly one pipeline execution;
3. **content-level** (worker, post-build): a *different* spec assembled
   byte-identical APK bytes -- analysis is skipped, the digest's cached
   verdict is linked to the new spec key.

All three count as ``service.cache.hit``; only submissions that enqueue
new work count ``service.cache.miss``.

Thread model: HTTP threads and scheduler workers synchronize on one
service lock for submit/completion bookkeeping and the shared
:class:`MetricsRegistry`.  Pipeline execution itself runs *outside* the
lock against per-thread :class:`DyDroid` instances and per-job
registries/tracers, merged in afterwards -- the same
serialize-then-fold-deterministically pattern the farm uses for shard
results.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.observe.events import EventLog
from repro.observe.merge import merge_span_lists
from repro.observe.metrics import MetricsRegistry, triage_summary
from repro.observe.prom import to_prometheus
from repro.observe.tracer import NULL_TRACER, Tracer, stage
from repro.service.cache import ResultCache
from repro.service.jobs import Job, JobState, JobTable
from repro.service.persist import ResultJournal
from repro.service.queue import JobQueue, QueueClosedError
from repro.service.ratelimit import MAX_RETRY_AFTER_S, RateLimitedError, RateLimiter
from repro.service.scheduler import SchedulerPool
from repro.service.slo import SloObjectives, SloTracker
from repro.service.spec import JobSpec, SpecError
from repro.store.verdicts import VerdictStore

__all__ = ["AnalysisService", "ServiceConfig"]

#: JSON bodies and headers common to every response.
JsonResponse = Tuple[int, Dict[str, object], Dict[str, str]]

_NO_HEADERS: Dict[str, str] = {}


@dataclass
class ServiceConfig:
    """One daemon's knobs: transport, scheduling, admission, persistence."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral; read the bound port off the server
    #: scheduler threads (0 is a valid stalled pool, used by tests to
    #: exercise admission control).
    workers: int = 2
    #: bounded queue depth; beyond it submissions get 429 + Retry-After.
    queue_depth: int = 64
    #: per-client token bucket; <= 0 disables rate limiting.
    rate_per_s: float = 0.0
    rate_burst: int = 10
    #: JSONL result journal; existing files are loaded so a restarted
    #: daemon serves previously computed results.
    persist: Optional[str] = None
    #: shared verdict store path (tier 2 behind each worker's LRU); one
    #: store instance is shared by every worker thread, and the file can
    #: simultaneously back farm runs on the same host.
    verdict_store: Optional[str] = None
    pipeline: DyDroidConfig = field(default_factory=DyDroidConfig)
    #: content-cache bound (distinct APK digests held in memory).
    cache_capacity: int = 65536
    #: finished jobs kept pollable before eviction.
    max_retained_jobs: int = 4096
    #: collect request/job spans (bounded; merged via ``trace_dicts``).
    trace: bool = True
    #: span sources (jobs + requests) retained for trace export.
    retained_trace_sources: int = 512
    #: per-tenant SLO objectives (``parse_slo("p95=30s,error_rate=1%")``);
    #: None disables SLO tracking and the ``slo.*`` gauges.
    slo: Optional[SloObjectives] = None
    #: completed jobs per client considered by the rolling error budgets.
    slo_window: int = 256
    #: optional JSONL sink for the structured event log (append mode).
    event_log: Optional[str] = None
    #: events retained in memory for ``/v1/stats`` regardless of sink.
    event_capacity: int = 1024


class AnalysisService:
    """Queue, dedupe, analyze, and serve -- the daemon behind ``repro serve``."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.registry = MetricsRegistry()
        self.cache = ResultCache(self.config.cache_capacity)
        self.jobs = JobTable(self.config.max_retained_jobs)
        self.queue = JobQueue(self.config.queue_depth)
        self.limiter = RateLimiter(self.config.rate_per_s, self.config.rate_burst)
        self.scheduler = SchedulerPool(
            queue=self.queue, execute=self.execute, workers=self.config.workers
        )
        self.journal: Optional[ResultJournal] = None
        self.verdict_store: Optional[VerdictStore] = None
        #: structured operational events: always ring-buffered for
        #: ``/v1/stats``; written through to JSONL when ``event_log`` set.
        self.events = EventLog(
            capacity=self.config.event_capacity, sink=self.config.event_log
        )
        self.slo: Optional[SloTracker] = (
            SloTracker(self.config.slo, window=self.config.slo_window)
            if self.config.slo is not None and not self.config.slo.empty
            else None
        )
        self._inflight: Dict[str, str] = {}  # spec_key -> primary job id
        self._lock = threading.RLock()
        self._local = threading.local()
        self._draining = False
        self._started_monotonic = time.monotonic()
        self._span_sources: Deque[Tuple[int, List[Dict[str, object]]]] = deque(
            maxlen=self.config.retained_trace_sources
        )
        self._span_seq = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Restore persisted results and start the scheduler pool."""
        if self.config.verdict_store:
            self.verdict_store = VerdictStore(
                self.config.verdict_store, self.config.pipeline
            )
        if self.config.persist:
            self.journal = ResultJournal(self.config.persist, self.config.pipeline)
            for entry in self.journal.restored:
                self.cache.put(entry["spec_key"], entry["digest"], entry["analysis"])
            with self._lock:
                self.registry.counter("service.persist.restored").inc(
                    len(self.journal.restored)
                )
        self._started_monotonic = time.monotonic()
        self.scheduler.start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: reject new work, finish the queue, stop.

        Returns True once every worker has exited; queued jobs are
        completed (and journaled), not dropped.
        """
        with self._lock:
            self._draining = True
        drained = self.scheduler.drain(timeout=timeout)
        self.events.emit("service.drained", drained=drained)
        self.events.close()
        if self.journal is not None:
            self.journal.close()
            self.journal = None
        if self.verdict_store is not None:
            self.verdict_store.close()
            self.verdict_store = None
        return drained

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    # -- submission (HTTP thread) ----------------------------------------------

    def submit(self, payload: Dict[str, object], peer: str = "anonymous") -> JsonResponse:
        with self._lock:
            self.registry.counter("service.submit.requests").inc()
            if self._draining:
                self.registry.counter("service.rejected.draining").inc()
                self.events.emit("job.rejected", level="warn", reason="draining", client=peer)
                return 503, {"error": "service is draining"}, _NO_HEADERS
        try:
            spec = JobSpec.from_payload(payload)
        except SpecError as exc:
            return 400, {"error": str(exc)}, _NO_HEADERS
        if spec.triage == "on" and not self.config.pipeline.triage_model:
            return (
                400,
                {"error": "triage requested but the daemon has no triage model"},
                _NO_HEADERS,
            )
        client = payload.get("client") or peer
        if not isinstance(client, str):
            return 400, {"error": "'client' must be a string"}, _NO_HEADERS
        try:
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError):
            return 400, {"error": "'priority' must be an integer"}, _NO_HEADERS

        try:
            self.limiter.allow(client)
        except RateLimitedError as exc:
            # A zero-rate bucket reports an infinite wait; clamp before any
            # serialization -- int(inf) raises and JSON has no Infinity.
            retry_after = min(exc.retry_after_s, MAX_RETRY_AFTER_S)
            with self._lock:
                self.registry.counter("service.rejected.rate_limited").inc()
                self.events.emit(
                    "job.rejected", level="warn", reason="rate_limited",
                    client=client, retry_after_s=round(retry_after, 3),
                )
            return (
                429,
                {"error": "rate limited", "retry_after_s": round(retry_after, 3)},
                {"Retry-After": "{:d}".format(max(1, int(retry_after + 0.999)))},
            )

        spec_key = spec.key()
        with self._lock:
            cached = self.cache.lookup_spec(spec_key)
            if cached is not None:
                digest, analysis = cached
                job = self.jobs.create(spec, client, priority)
                job.state = JobState.DONE
                job.digest = digest
                job.cached = True
                job.verdict_source = str(analysis.get("verdict_source", ""))
                job.finished_ts = time.time()
                self.jobs.mark_finished(job)
                self.registry.counter("service.cache.hit").inc()
                self.events.emit(
                    "job.completed", job_id=job.job_id, client=client,
                    cached=True, state=JobState.DONE.value,
                )
                if self.slo is not None:
                    # instant cache answers still count toward the tenant's
                    # window -- they are the latency the tenant experienced.
                    self.slo.observe(client, 0.0, ok=True)
                    self.slo.export_gauges(self.registry)
                return 200, self._submit_body(job, coalesced=False), _NO_HEADERS

            primary_id = self._inflight.get(spec_key)
            if primary_id is not None:
                primary = self.jobs.get(primary_id)
                if primary is not None:
                    primary.coalesced += 1
                    self.registry.counter("service.cache.hit").inc()
                    self.registry.counter("service.coalesced").inc()
                    self.events.emit(
                        "job.coalesced", job_id=primary.job_id, client=client
                    )
                    return 202, self._submit_body(primary, coalesced=True), _NO_HEADERS

            if self.queue.depth() >= self.queue.max_depth:
                retry_after = self._retry_after_locked()
                self.registry.counter("service.rejected.queue_full").inc()
                self.events.emit(
                    "job.rejected", level="warn", reason="queue_full",
                    client=client, queue_depth=self.queue.depth(),
                )
                return (
                    429,
                    {
                        "error": "queue full",
                        "queue_depth": self.queue.depth(),
                        "retry_after_s": retry_after,
                    },
                    {"Retry-After": "{:d}".format(max(1, int(retry_after)))},
                )

            job = self.jobs.create(spec, client, priority)
            self._inflight[spec_key] = job.job_id
            try:
                depth = self.queue.put(job.job_id, priority)
            except QueueClosedError:
                # Drain race: _draining flipped after the check above but
                # before admission.  The daemon will never take this job,
                # so answer 503 (not 429 -- "retry" would be a lie) and
                # roll back the never-admitted job.
                self._inflight.pop(spec_key, None)
                self.jobs.discard(job.job_id)
                self.registry.counter("service.rejected.draining").inc()
                self.events.emit(
                    "job.rejected", level="warn", reason="draining", client=client
                )
                return 503, {"error": "service is draining"}, _NO_HEADERS
            self.registry.counter("service.cache.miss").inc()
            self.registry.gauge("service.queue.depth").set(depth)
            self.events.emit(
                "job.admitted", job_id=job.job_id, client=client,
                priority=priority, queue_depth=depth,
            )
            return 202, self._submit_body(job, coalesced=False), _NO_HEADERS

    @staticmethod
    def _submit_body(job: Job, coalesced: bool) -> Dict[str, object]:
        return {
            "job_id": job.job_id,
            "state": job.state.value,
            "digest": job.digest,
            "cached": job.cached or coalesced or job.state is JobState.DONE,
            "coalesced": coalesced,
        }

    def _retry_after_locked(self) -> float:
        """Estimated seconds until a queue slot frees up."""
        histogram = self.registry.histogram("stage.service.analyze")
        mean_s = histogram.total_s / histogram.count if histogram.count else 1.0
        workers = max(1, self.config.workers)
        estimate = self.queue.depth() * max(mean_s, 0.05) / workers
        return max(1.0, round(estimate, 1))

    # -- execution (scheduler worker thread) -----------------------------------

    def _pipeline_for_thread(self, spec: JobSpec) -> DyDroid:
        # One pipeline per (worker thread, firewall policy, triage
        # override): tenants that submit under different policies or
        # triage settings must not share enforcement/gate config.  The
        # verdict LRUs stay thread-resident; the trained DroidNative is
        # one read-only instance shared by every pipeline in the process.
        pipelines = getattr(self._local, "pipelines", None)
        if pipelines is None:
            pipelines = self._local.pipelines = {}
        key = (spec.policy, spec.triage, spec.triage_threshold)
        pipeline = pipelines.get(key)
        if pipeline is None:
            from dataclasses import replace

            config = self.config.pipeline
            if spec.policy and spec.policy != config.firewall_policy:
                config = replace(config, firewall_policy=spec.policy)
            if spec.triage == "off":
                config = replace(config, triage_model="", triage_threshold=0.0)
            elif spec.triage == "on" and spec.triage_threshold:
                config = replace(config, triage_threshold=spec.triage_threshold)
            # Every worker thread borrows the daemon's one store instance
            # (VerdictStore is internally locked), so a verdict computed
            # by any worker -- or any prior daemon -- is reused by all.
            # The daemon's EventLog is thread-safe and shared: firewall
            # enforcement and store publishes land in the same trail as
            # job lifecycle events.
            pipeline = DyDroid(
                config, verdict_store=self.verdict_store, events=self.events
            )
            pipelines[key] = pipeline
        return pipeline

    def execute(self, job_id: str, worker_id: int) -> None:
        """Run one dequeued job to DONE/FAILED; never raises."""
        job = self.jobs.get(job_id)
        if job is None:  # evicted while queued: nothing to report against
            return
        job.state = JobState.RUNNING
        job.started_ts = time.time()
        tracer = Tracer() if self.config.trace else NULL_TRACER
        registry = MetricsRegistry()
        started = time.perf_counter()
        try:
            with tracer.span(
                "service.job", job_id=job.job_id, kind=job.spec.kind, worker=worker_id
            ) as job_span:
                with stage(tracer, registry, "service.build"):
                    record = job.spec.build_record()
                digest = record.apk.sha256()
                if job.spec.policy:
                    # Enforcement outcomes are part of the result: the same
                    # APK bytes under a different policy is a different
                    # content-cache entry.
                    digest = "{}-{}".format(digest, job.spec.policy)
                if job.spec.triage:
                    # Tier-0 short-circuits change what verdicts the result
                    # carries, so triage overrides split the content cache
                    # the same way policies do.
                    digest = "{}-triage-{}".format(digest, job.spec.triage)
                    if job.spec.triage_threshold:
                        digest = "{}-{}".format(digest, job.spec.triage_threshold)
                job.digest = digest
                cached = self.cache.get(digest)
                if cached is not None:
                    # content-level hit: another spec already produced
                    # byte-identical APK bytes.
                    job_span.set(content_cached=True)
                    analysis_dict = cached
                    hit = True
                else:
                    pipeline = self._pipeline_for_thread(job.spec)
                    pipeline.tracer = tracer
                    pipeline.metrics = registry
                    with stage(tracer, registry, "service.analyze"):
                        analysis_dict = pipeline.analyze_app(record).to_dict()
                    hit = False
                job.verdict_source = str(analysis_dict.get("verdict_source", ""))
            elapsed = time.perf_counter() - started
            with self._lock:
                if hit:
                    self.cache.link_spec(job.spec_key, digest)
                    job.cached = True
                    self.registry.counter("service.cache.hit").inc()
                else:
                    self.cache.put(job.spec_key, digest, analysis_dict)
                    self.registry.counter("service.pipeline.runs").inc()
                    if self.journal is not None:
                        self.journal.append_result(
                            spec_key=job.spec_key,
                            digest=digest,
                            package=record.package,
                            analyze_s=elapsed,
                            analysis=analysis_dict,
                        )
                self._finish_locked(job, JobState.DONE, registry, tracer, elapsed)
        except Exception as exc:  # noqa: BLE001 - job failure must not kill worker
            job.error = "{}: {}".format(type(exc).__name__, exc)
            with self._lock:
                self._finish_locked(
                    job, JobState.FAILED, registry, tracer,
                    time.perf_counter() - started,
                )

    def _finish_locked(
        self,
        job: Job,
        state: JobState,
        registry: MetricsRegistry,
        tracer,
        elapsed: float,
    ) -> None:
        self._inflight.pop(job.spec_key, None)
        job.analyze_s = elapsed
        job.state = state
        job.finished_ts = time.time()
        self.jobs.mark_finished(job)
        ok = state is JobState.DONE
        counter = "service.jobs.completed" if ok else "service.jobs.failed"
        self.registry.counter(counter).inc()
        self.registry.gauge("service.queue.depth").set(self.queue.depth())
        self.registry.merge_dict(registry.to_dict())
        self._fold_spans(tracer)
        self.events.emit(
            "job.completed" if ok else "job.failed",
            level="info" if ok else "error",
            job_id=job.job_id, client=job.client, state=state.value,
            elapsed_s=round(elapsed, 6),
            **({} if ok else {"error": job.error}),
        )
        if self.slo is not None:
            self.slo.observe(job.client, elapsed, ok=ok)
            self.slo.export_gauges(self.registry)

    # -- reads (HTTP thread) ---------------------------------------------------

    def job_status(self, job_id: str) -> JsonResponse:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": "no such job {!r}".format(job_id)}, _NO_HEADERS
        return 200, job.to_dict(), _NO_HEADERS

    def result(self, digest: str) -> JsonResponse:
        analysis = self.cache.get(digest)
        if analysis is None:
            return 404, {"error": "no result for digest {!r}".format(digest)}, _NO_HEADERS
        return 200, {"digest": digest, "analysis": analysis}, _NO_HEADERS

    def stats(self) -> JsonResponse:
        with self._lock:
            counters = {
                name: self.registry.counter_value(name)
                for name in (
                    "service.submit.requests",
                    "service.cache.hit",
                    "service.cache.miss",
                    "service.coalesced",
                    "service.pipeline.runs",
                    "service.jobs.completed",
                    "service.jobs.failed",
                    "service.rejected.queue_full",
                    "service.rejected.rate_limited",
                    "service.rejected.draining",
                    "service.persist.restored",
                )
            }
            body: Dict[str, object] = {
                "uptime_s": round(self.uptime_s(), 3),
                "draining": self._draining,
                "workers": self.config.workers,
                "queue": {
                    "depth": self.queue.depth(),
                    "max_depth": self.queue.max_depth,
                    "inflight": len(self._inflight),
                },
                "jobs": self.jobs.counts(),
                "cache": {
                    "entries": len(self.cache),
                    "spec_keys": self.cache.spec_keys(),
                    "capacity": self.config.cache_capacity,
                },
                "rate_limiter": {
                    "enabled": self.limiter.enabled,
                    "rate_per_s": self.config.rate_per_s,
                    "burst": self.config.rate_burst,
                    "tracked_clients": self.limiter.tracked_clients(),
                },
                "persist": {
                    "path": self.config.persist,
                    "restored": counters["service.persist.restored"],
                },
                "verdict_store": {
                    "path": self.config.verdict_store,
                    "entries": (
                        self.verdict_store.counts()
                        if self.verdict_store is not None
                        else None
                    ),
                },
                "counters": counters,
                "triage": {
                    "model": self.config.pipeline.triage_model or None,
                    "threshold": self.config.pipeline.triage_threshold or None,
                    "summary": triage_summary(self.registry),
                },
                "slo": self.slo.snapshot() if self.slo is not None else None,
                "events": {
                    "emitted": self.events.emitted,
                    "dropped": self.events.dropped,
                    "capacity": self.events.capacity,
                    "sink": self.events.sink,
                    "recent": self.events.to_dicts()[-16:],
                },
            }
        return 200, body, _NO_HEADERS

    def health(self) -> JsonResponse:
        status = "draining" if self.draining else "ok"
        return 200, {"status": status, "uptime_s": round(self.uptime_s(), 3)}, _NO_HEADERS

    def metrics_dict(self) -> JsonResponse:
        with self._lock:
            return 200, self.registry.to_dict(), _NO_HEADERS

    def metrics_prom(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            return to_prometheus(self.registry)

    # -- observability ---------------------------------------------------------

    def observe_request(
        self, method: str, path: str, status: int, duration_s: float, tracer
    ) -> None:
        """Fold one HTTP request's metrics and spans into the service state."""
        with self._lock:
            self.registry.counter("service.http.requests").inc()
            self.registry.counter("service.http.{}xx".format(status // 100)).inc()
            self.registry.histogram("service.http").record(duration_s)
            self._fold_spans(tracer)

    def _fold_spans(self, tracer) -> None:
        """Retain one tracer's spans (lock held by caller)."""
        spans = tracer.to_dicts()
        if spans:
            self._span_sources.append((self._span_seq, spans))
            self._span_seq += 1

    def trace_dicts(self) -> List[Dict[str, object]]:
        """Merged, re-identified spans of the retained jobs/requests."""
        with self._lock:
            return merge_span_lists(list(self._span_sources))

    def counter_value(self, name: str) -> int:
        with self._lock:
            return self.registry.counter_value(name)
