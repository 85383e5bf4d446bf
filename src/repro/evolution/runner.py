"""The evolution coordinator: analyze v1..vN, warehouse, diff, summarize.

``run_evolution`` is the longitudinal counterpart of
:func:`repro.farm.coordinator.run_farm`::

    from repro.evolution import EvolveConfig, run_evolution

    result = run_evolution(EvolveConfig(n_apps=24, n_versions=3, seed=7,
                                        verdict_store="verdicts.jsonl"))
    print(result.timeline.render())

Versions are walked **oldest first** -- that ordering is what turns the
shared verdict store into cross-version dedup: version k's workers find
every payload digest that survived from versions 1..k-1 already
published, so only *changed* payloads ever reach DroidNative/FlowDroid.
Every version's shards sit on one lease ledger, version-major, and drain
through the farm's lease loop (:mod:`repro.farm.lease`) exactly like a
farm run; version k folds once versions 1..k are complete, so workers do
not idle at version boundaries.  A version-(k+1) shard running beside a
version-k one may re-analyze a payload the other has not published yet;
the store keeps the first write, so outputs do not change.

After the last version the coordinator diffs every adjacent snapshot
pair (timed into the ``stage.diff`` histogram, bucketed into
``evolution.drift.*`` counters) and aggregates the fleet timeline.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import DyDroidConfig
from repro.core.report import AppAnalysis, MeasurementReport
from repro.evolution.differ import SnapshotDiff, diff_analyses, diff_digest
from repro.evolution.lineage import LineageSpec
from repro.evolution.timelines import FleetTimeline, build_timeline
from repro.evolution.warehouse import SnapshotWarehouse
from repro.evolution.worker import LineageShardJob, LineageShardResult, run_lineage_shard
from repro.farm.lease import LOCAL, WORKER_DIED, LeaseEntry, ShardLedger, run_leases
from repro.farm.merger import merge_serialized
from repro.farm.shards import plan_shards
from repro.observe.merge import merge_span_lists
from repro.observe.metrics import (
    MetricsRegistry,
    evolution_summary,
    verdict_cache_summary,
    verdict_store_summary,
)
from repro.store.verdicts import VerdictStore

__all__ = ["EvolveConfig", "EvolveResult", "run_evolution"]


@dataclass
class EvolveConfig:
    """One evolution run: lineage identity, scheduling, mutation hazards."""

    n_apps: int
    n_versions: int = 3
    seed: int = 7
    workers: int = 2
    #: shards per version; default 4x workers, as in the farm.
    n_shards: Optional[int] = None
    spec: LineageSpec = field(default_factory=LineageSpec)
    pipeline: DyDroidConfig = field(default_factory=DyDroidConfig)
    #: snapshot warehouse path; omit to keep snapshots in memory only.
    warehouse: Optional[str] = None
    #: shared verdict store -- the cross-version dedup backbone.
    verdict_store: Optional[str] = None
    trace: bool = False

    def planned_shards(self) -> int:
        return self.n_shards if self.n_shards else max(1, self.workers * 4)


@dataclass
class EvolveResult:
    """Everything one evolution run produced."""

    #: one merged report per version, oldest first.
    reports: List[MeasurementReport]
    #: adjacent-version diffs for every package, deterministic order.
    diffs: List[SnapshotDiff]
    timeline: FleetTimeline
    metrics: Dict[str, object]
    spans: List[Dict[str, object]] = field(default_factory=list)

    @property
    def diff_fingerprint(self) -> str:
        return diff_digest(self.diffs)


class _Versions:
    """Every version's shards on one lease ledger, version-major.

    The lessee :func:`run_leases` drives.  Version *k* folds -- merged
    report, warehouse appends, history, ``stage.version`` -- once
    versions 1..k are all complete, so no output depends on the worker
    count, and no worker idles at a version boundary.  A single app that
    kills its worker process raises: a run never returns with a snapshot
    missing.
    """

    def __init__(self, config: EvolveConfig, registry: MetricsRegistry, warehouse) -> None:
        jobs = [
            LineageShardJob(
                shard_id=shard.shard_id, seed=config.seed, n_apps=config.n_apps,
                n_versions=config.n_versions, version=version, indices=shard.indices,
                config=config.pipeline, spec=config.spec, trace=config.trace,
                verdict_store=config.verdict_store,
            )
            for version in range(1, config.n_versions + 1)
            for shard in plan_shards(config.n_apps, config.planned_shards())
        ]
        self.ledger = ShardLedger(jobs, lease_s=math.inf)
        self._config = config
        self._registry = registry
        self._warehouse = warehouse
        #: version -> corpus index -> serialized analysis, until folded.
        self._analyses: Dict[int, Dict[int, Dict[str, object]]] = defaultdict(dict)
        self.reports: List[MeasurementReport] = []
        #: package -> analyses, oldest version first (diff/timeline input).
        self.history: Dict[str, List[AppAnalysis]] = {}
        #: keyed by ledger entry, so the merged trace is the same at any
        #: worker count.
        self.shard_spans: List[Tuple[int, List[Dict[str, object]]]] = []
        self._since = time.perf_counter()
        self._fold_ready()  # an empty fleet has nothing to wait for

    def lease(self) -> Optional[LeaseEntry]:
        return self.ledger.lease(LOCAL)

    def drained(self) -> bool:
        return self.ledger.done()

    def complete(self, entry_id: int, result: LineageShardResult) -> None:
        self.ledger.complete(LOCAL, entry_id)
        self._registry.merge_dict(result.metrics)
        if result.spans:
            self.shard_spans.append((entry_id, result.spans))
        for app_result in result.results:
            self._analyses[result.version][app_result.index] = app_result.analysis
        self._fold_ready()

    def fail(self, entry_id: int) -> None:
        _, lost = self.ledger.fail(LOCAL, entry_id)
        if lost:
            raise RuntimeError("lineage {}: {}".format(lost[0], WORKER_DIED))

    def _fold_ready(self) -> None:
        while len(self.reports) < self._config.n_versions:
            version = len(self.reports) + 1
            if len(self._analyses[version]) < self._config.n_apps:
                return
            report = merge_serialized(self._analyses.pop(version))
            self.reports.append(report)
            for analysis in report.apps:
                self.history.setdefault(analysis.package, []).append(analysis)
                if self._warehouse is not None:
                    self._warehouse.append(analysis)
            self._registry.counter("evolution.versions").inc()
            now = time.perf_counter()
            self._registry.histogram("stage.version").record(now - self._since)
            self._since = now


def run_evolution(config: EvolveConfig) -> EvolveResult:
    """Analyze every version of every lineage; diff and aggregate."""
    if config.n_versions < 1:
        raise ValueError("n_versions must be >= 1")
    if config.verdict_store:
        # Same fail-fast contract as the farm coordinator: a fingerprint
        # mismatch should be one clear error, not N worker crashes.
        VerdictStore(config.verdict_store, config.pipeline).close()

    started = time.perf_counter()
    registry = MetricsRegistry()
    registry.gauge("evolution.workers").set(config.workers)
    warehouse = SnapshotWarehouse(config.warehouse) if config.warehouse else None
    try:
        versions = _Versions(config, registry, warehouse)
        run_leases(versions, run_lineage_shard, config.workers)
    finally:
        if warehouse is not None:
            warehouse.close()
    reports, history = versions.reports, versions.history

    diffs: List[SnapshotDiff] = []
    for package in sorted(history):
        snapshots = history[package]
        for old, new in zip(snapshots, snapshots[1:]):
            diff_started = time.perf_counter()
            diff = diff_analyses(old, new)
            registry.histogram("stage.diff").record(
                time.perf_counter() - diff_started
            )
            registry.counter(
                "evolution.drift.{}".format(diff.severity.label)
            ).inc()
            if not diff.is_empty:
                diffs.append(diff)

    timeline = build_timeline(history)
    wall_s = time.perf_counter() - started
    snapshots_total = sum(report.n_total for report in reports)
    evolution = evolution_summary(registry)
    metrics = {
        "apps": config.n_apps,
        "versions": config.n_versions,
        "snapshots_analyzed": snapshots_total,
        "workers": config.workers,
        "wall_s": round(wall_s, 3),
        "snapshots_per_second": round(snapshots_total / wall_s, 3) if wall_s else 0.0,
        "evolution": evolution,
        "drift": evolution["drift"],
        "verdict_cache": verdict_cache_summary(registry),
        "verdict_store": verdict_store_summary(registry),
        "registry": registry.to_dict(),
    }
    return EvolveResult(
        reports=reports,
        diffs=diffs,
        timeline=timeline,
        metrics=metrics,
        spans=merge_span_lists(versions.shard_spans),
    )
