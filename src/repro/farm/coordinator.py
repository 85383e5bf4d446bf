"""The farm coordinator: plan, lease, journal, merge, measure.

``run_farm`` is the corpus-scale counterpart of ``DyDroid.measure``::

    from repro.farm import FarmConfig, run_farm

    result = run_farm(FarmConfig(n_apps=600, corpus_seed=7, workers=4))
    print(result.report.render_dynamic_summary())
    print(result.metrics["apps_per_second"])

Flow: deterministically shard the corpus -> (optionally) restore settled
apps from the checkpoint journal -> put the remaining shards on a lease
ledger -> lease them to local worker slots (:mod:`repro.farm.lease`) ->
journal every settled app as its shard completes -> merge all per-app
results, ordered by corpus index, into one :class:`MeasurementReport`
that renders byte-identically to the serial run.

:class:`FarmRun` is that run state, whoever executes the shards:
``run_farm`` leases from it in-process, and
:class:`~repro.farm.netcoord.FarmCoordinator` serves it over HTTP.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import DyDroidConfig
from repro.core.report import MeasurementReport
from repro.corpus.generator import check_corpus_size
from repro.farm.checkpoint import CheckpointJournal
from repro.farm.flight import StatusWriter
from repro.farm.jobs import ChaosSpec, QuarantineRecord, ShardJob, ShardResult
from repro.farm.lease import LOCAL, WORKER_DIED, LeaseEntry, ShardLedger, run_leases
from repro.farm.merger import merge_serialized
from repro.farm.metrics import FarmMetrics
from repro.farm.shards import plan_shards
from repro.farm.worker import run_shard
from repro.observe.merge import merge_span_lists
from repro.store.verdicts import VerdictStore


@dataclass
class FarmConfig:
    """One farm run: corpus identity, scheduling knobs, fault tolerance."""

    n_apps: int
    corpus_seed: int = 7
    workers: int = 2
    #: shard count; default is 4x workers so a slow shard cannot starve
    #: the pool for long.
    n_shards: Optional[int] = None
    shard_strategy: str = "contiguous"
    #: per-app analysis deadline in seconds (None: no deadline).
    timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_s: float = 0.05
    checkpoint: Optional[str] = None
    resume: bool = False
    pipeline: DyDroidConfig = field(default_factory=DyDroidConfig)
    chaos: ChaosSpec = field(default_factory=ChaosSpec)
    #: collect spans in every worker and merge them into ``FarmResult.spans``
    #: (for ``--trace-out``); the metrics registry is collected regardless.
    trace: bool = False
    #: shared verdict-store path (tier 2 behind every worker's LRU): each
    #: distinct payload digest is analyzed once fleet-wide, and a warm
    #: store makes re-runs skip DroidNative/FlowDroid entirely.
    verdict_store: Optional[str] = None
    #: live-telemetry directory: workers drop flight recordings and
    #: heartbeats there, the coordinator refreshes ``status.json``.
    #: Defaults to the checkpoint journal's directory when one is set.
    telemetry_dir: Optional[str] = None
    #: ``status.json`` refresh cadence.
    status_interval_s: float = 1.0
    #: a running shard silent longer than this is flagged as stalled.
    stall_after_s: float = 10.0

    def planned_shards(self) -> int:
        return self.n_shards if self.n_shards else max(1, self.workers * 4)

    def effective_telemetry_dir(self) -> Optional[str]:
        if self.telemetry_dir:
            return self.telemetry_dir
        if self.checkpoint:
            return os.path.dirname(os.path.abspath(self.checkpoint))
        return None


@dataclass
class FarmResult:
    """What a farm run returns: the merged report plus operational data."""

    report: MeasurementReport
    metrics: Dict[str, object]
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    resumed_apps: int = 0
    #: merged span dicts (shard-ordered, re-identified), empty unless
    #: the run was started with ``trace=True``.
    spans: List[Dict[str, object]] = field(default_factory=list)


class FarmRun:
    """One farm run's state: ledger, journal, fold, quarantine, result.

    ``lease`` / ``complete`` / ``fail`` / ``drained`` make it the lessee
    :func:`~repro.farm.lease.run_leases` drives in-process; the network
    coordinator calls the same methods with the leasing worker's name.
    ``telemetry_dir`` (local runs only) is where workers write flight
    recordings and heartbeats and this run refreshes ``status.json``.
    """

    def __init__(
        self,
        config: FarmConfig,
        lease_s: float = math.inf,
        telemetry_dir: Optional[str] = None,
    ) -> None:
        if config.resume and not config.checkpoint:
            raise ValueError("resume requires a checkpoint path")
        check_corpus_size(config.n_apps)  # before any shard is leased
        # Join nodes run in other working directories, so the store path
        # is anchored before it goes into any job.
        self.store_path = os.path.abspath(config.verdict_store) if config.verdict_store else None
        if self.store_path:
            # Fail fast on a fingerprint mismatch here: workers hitting it
            # mid-run would surface as quarantined apps instead.
            VerdictStore(self.store_path, config.pipeline).close()
        shards = plan_shards(config.n_apps, config.planned_shards(), config.shard_strategy)
        self.metrics = FarmMetrics(workers=config.workers, shards_planned=len(shards))
        self.metrics.start()
        self._lock = threading.RLock()
        self._analyses: Dict[int, Dict[str, object]] = {}
        self._quarantined: List[QuarantineRecord] = []
        self._shard_spans: List[Tuple[int, List[Dict[str, object]]]] = []
        self._journal: Optional[CheckpointJournal] = None
        self.resumed_apps = 0
        self.result: Optional[FarmResult] = None
        if config.checkpoint:
            self._journal = CheckpointJournal(
                config.checkpoint,
                corpus_seed=config.corpus_seed,
                n_apps=config.n_apps,
                config=config.pipeline,
                resume=config.resume,
            )
            self._analyses.update(self._journal.completed)
            self._quarantined = [
                QuarantineRecord(e["index"], e["package"], e["error"], e["attempts"])
                for e in self._journal.quarantined.values()
            ]
            self.resumed_apps = len(self._journal.completed)
            self.metrics.record_resumed(self.resumed_apps, len(self._journal.quarantined))

        skip = self._journal.settled_indices() if self._journal else set()
        jobs = []
        for shard in shards:
            indices = tuple(i for i in shard.indices if i not in skip)
            if indices:
                jobs.append(ShardJob(
                    shard_id=shard.shard_id, corpus_seed=config.corpus_seed,
                    n_apps=config.n_apps, indices=indices, config=config.pipeline,
                    timeout_s=config.timeout_s, max_retries=config.max_retries,
                    backoff_s=config.backoff_s, chaos=config.chaos, trace=config.trace,
                    verdict_store=self.store_path, flight_dir=telemetry_dir,
                ))
        self.ledger = ShardLedger(jobs, lease_s=lease_s, registry=self.metrics.registry)
        self._status: Optional[StatusWriter] = None
        if telemetry_dir:
            self._status = StatusWriter(
                telemetry_dir,
                n_apps=config.n_apps,
                shards_planned=len(shards),
                interval_s=config.status_interval_s,
                stall_after_s=config.stall_after_s,
            )
            self._progress()
            self._status.start()

    # -- the lessee ------------------------------------------------------------

    def lease(self, worker: str = LOCAL) -> Optional[LeaseEntry]:
        return self.ledger.lease(worker)

    def drained(self) -> bool:
        return self.ledger.done()

    def complete(self, entry_id: int, result: ShardResult, worker: str = LOCAL) -> bool:
        """Fold ``result`` if it is the entry's first completion; True if so."""
        with self._lock:  # with the transition: a drained ledger has every fold
            if not self.ledger.complete(worker, entry_id):
                return False
            self.metrics.record_shard(result)
            if result.spans:
                self._shard_spans.append((result.shard_id, result.spans))
            for app in result.results:
                if app.index in self._analyses:
                    continue  # settled by a resume or an earlier duplicate
                self._analyses[app.index] = app.analysis
                if self._journal is not None:
                    self._journal.append_result(app)
            for record in result.quarantined:
                self._quarantine(record)
            self._progress()
        return True

    def fail(self, entry_id: int, worker: str = LOCAL) -> Tuple[int, int]:
        """A worker process died on the entry: the ledger splits a
        multi-app shard, and a single-app one is quarantined here.
        Returns ``(entries_requeued, apps_quarantined)``."""
        with self._lock:
            requeued, lost = self.ledger.fail(worker, entry_id)
            for index in lost:
                package = "<corpus index {}>".format(index)
                self._quarantine(QuarantineRecord(index, package, WORKER_DIED, attempts=1))
                self.metrics.record_coordinator_quarantine()
            self._progress()
        return requeued, len(lost)

    def _quarantine(self, record: QuarantineRecord) -> None:
        self._quarantined.append(record)
        if self._journal is not None:
            self._journal.append_quarantine(record)

    def _progress(self) -> None:
        if self._status is not None:
            settled, quarantined = self.progress()
            self._status.update(
                shards_done=self.metrics.shards_run,
                apps_settled=settled,
                apps_quarantined=quarantined,
            )

    # -- queries and the end of the run ----------------------------------------

    def progress(self) -> Tuple[int, int]:
        """``(apps settled, apps quarantined)`` so far, resumed ones included."""
        with self._lock:
            return len(self._analyses) + len(self._quarantined), len(self._quarantined)

    def finish(self, workers: int) -> FarmResult:
        """Close the run and merge everything folded into its result (once)."""
        with self._lock:
            if self.result is None:
                self.close()
                self.metrics.workers = workers
                self.metrics.stop()
                self.result = FarmResult(
                    report=merge_serialized(self._analyses),
                    metrics=self.metrics.to_dict(),
                    quarantined=sorted(self._quarantined, key=lambda record: record.index),
                    resumed_apps=self.resumed_apps,
                    spans=merge_span_lists(self._shard_spans),
                )
            return self.result

    def close(self) -> None:
        """Stop the status writer and release the journal (idempotent)."""
        with self._lock:
            if self._status is not None:
                self._status.stop(state="done")
                self._status = None
            if self._journal is not None:
                self._journal.close()
                self._journal = None


def run_farm(config: FarmConfig) -> FarmResult:
    """Execute one sharded, checkpointed, metered measurement run."""
    run = FarmRun(config, telemetry_dir=config.effective_telemetry_dir())
    try:
        run_leases(run, run_shard, config.workers)
        return run.finish(config.workers)
    finally:
        run.close()
