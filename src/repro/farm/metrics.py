"""Farm run metrics: throughput, per-stage latency, failure accounting.

The collector lives in the coordinator and is backed by one
:class:`~repro.observe.metrics.MetricsRegistry`: workers ship their own
serialized registries (pipeline stage histograms, verdict-cache counters)
inside each :class:`~repro.farm.jobs.ShardResult`, and ``record_shard``
folds them in with order-independent merges, so the registry -- like the
merged report -- is identical for every worker count and completion
order.  ``to_dict`` is the structured JSON summary ``repro farm run
--metrics-out`` writes.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.observe.metrics import (
    MetricsRegistry,
    verdict_cache_summary,
    verdict_store_summary,
)

__all__ = ["FarmMetrics"]


class FarmMetrics:
    """Accumulates one farm run's operational numbers."""

    def __init__(
        self,
        workers: int,
        shards_planned: int,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.workers = workers
        self.shards_planned = shards_planned
        self.shards_run = 0
        self.apps_analyzed = 0
        self.apps_resumed = 0
        self.apps_quarantined = 0
        self.retries = 0
        self.registry = registry if registry is not None else MetricsRegistry()
        #: the coordinator-side views of the worker-recorded stage
        #: histograms (kept as attributes for existing callers).
        self.stage_latency = {
            "build": self.registry.histogram("stage.build"),
            "analyze": self.registry.histogram("stage.analyze"),
        }
        self._started: Optional[float] = None
        self.wall_s = 0.0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> None:
        if self._started is not None:
            self.wall_s = time.perf_counter() - self._started

    # -- recording -------------------------------------------------------------

    def record_resumed(self, n_apps: int, n_quarantined: int = 0) -> None:
        self.apps_resumed += n_apps
        self.apps_quarantined += n_quarantined

    def record_coordinator_quarantine(self) -> None:
        """An app lost to a dead worker process (no shard registry exists)."""
        self.apps_quarantined += 1
        self.registry.counter("farm.quarantined").inc()

    def record_shard(self, shard_result) -> None:
        self.shards_run += 1
        for app in shard_result.results:
            self.apps_analyzed += 1
            self.retries += app.retries
        for record in shard_result.quarantined:
            self.apps_quarantined += 1
            self.retries += record.attempts - 1
        if shard_result.metrics:
            self.registry.merge_dict(shard_result.metrics)
        else:
            # Hand-built ShardResult (tests, external callers) without a
            # shipped registry: fall back to the per-app timing fields.
            for app in shard_result.results:
                self.stage_latency["build"].record(app.build_s)
                self.stage_latency["analyze"].record(app.analyze_s)

    # -- export ----------------------------------------------------------------

    @property
    def apps_per_second(self) -> float:
        return self.apps_analyzed / self.wall_s if self.wall_s else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "shards_planned": self.shards_planned,
            "shards_run": self.shards_run,
            "apps_analyzed": self.apps_analyzed,
            "apps_resumed": self.apps_resumed,
            "apps_quarantined": self.apps_quarantined,
            "retries": self.retries,
            "wall_s": round(self.wall_s, 6),
            "apps_per_second": round(self.apps_per_second, 3),
            "stage_latency": {
                stage: histogram.to_dict()
                for stage, histogram in self.stage_latency.items()
            },
            "verdict_cache": verdict_cache_summary(self.registry),
            "verdict_store": verdict_store_summary(self.registry),
            "registry": self.registry.to_dict(),
        }

    def summary_line(self) -> str:
        return (
            "[farm: {} apps in {:.1f}s ({:.1f} apps/s), {} resumed, "
            "{} retries, {} quarantined, {} shards x {} workers]".format(
                self.apps_analyzed,
                self.wall_s,
                self.apps_per_second,
                self.apps_resumed,
                self.retries,
                self.apps_quarantined,
                self.shards_run,
                self.workers,
            )
        )
