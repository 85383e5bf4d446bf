"""Per-version shard worker for ``repro evolve run``.

Mirrors :mod:`repro.farm.worker`: a top-level function a
``ProcessPoolExecutor`` can ship to a child process, which rematerializes
its slice of the lineage from ``(seed, n_apps, n_versions, version,
indices)`` -- no APK or analysis objects ever cross the process boundary
inbound, and results leave already serialized (``AppAnalysis.to_dict``).

Each worker opens (and owns) its own verdict-store handle from the path;
``flock`` coordinates sibling shards, and because the runner leases
versions oldest-first, version *k*'s workers find the unchanged payloads
of versions 1..k-1 already published.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import CorpusGenerator
from repro.evolution.lineage import LineageSpec, build_version_record, plan_lineages
from repro.farm.jobs import AppResult
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import NULL_TRACER, Tracer

__all__ = ["LineageShardJob", "LineageShardResult", "run_lineage_shard"]


@dataclass(frozen=True)
class LineageShardJob:
    """Analyze ``indices`` of one lineage version; plain-data, picklable."""

    shard_id: int
    seed: int
    n_apps: int
    n_versions: int
    version: int                 #: 1-based version ordinal to analyze
    indices: Tuple[int, ...]
    config: DyDroidConfig
    spec: LineageSpec = field(default_factory=LineageSpec)
    trace: bool = False
    verdict_store: Optional[str] = None


@dataclass
class LineageShardResult:
    """Serialized analyses plus the worker's spans and metrics."""

    shard_id: int
    version: int
    results: List[AppResult] = field(default_factory=list)
    spans: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    wall_s: float = 0.0


def run_lineage_shard(job: LineageShardJob) -> LineageShardResult:
    """Build and analyze every app of one (version, shard) cell."""
    started = time.perf_counter()
    tracer = Tracer() if job.trace else NULL_TRACER
    registry = MetricsRegistry()
    generator = CorpusGenerator(seed=job.seed)
    lineages = plan_lineages(
        job.n_apps, job.n_versions, seed=job.seed, spec=job.spec
    )
    dydroid = DyDroid(
        job.config, tracer=tracer, metrics=registry, verdict_store=job.verdict_store
    )
    result = LineageShardResult(shard_id=job.shard_id, version=job.version)

    for index in job.indices:
        app_version = lineages[index].at(job.version)
        build_started = time.perf_counter()
        with tracer.span(
            "evolve.build", index=index, version=job.version
        ):
            record = build_version_record(generator, app_version)
        build_s = time.perf_counter() - build_started
        registry.histogram("stage.build").record(build_s)

        analyze_started = time.perf_counter()
        analysis = dydroid.analyze_app(record)
        analyze_s = time.perf_counter() - analyze_started
        registry.histogram("stage.analyze").record(analyze_s)
        registry.counter("evolution.apps").inc()
        if app_version.mutations:
            registry.counter("evolution.mutated_versions").inc()
        result.results.append(
            AppResult(
                index=index,
                package=record.package,
                analysis=analysis.to_dict(),
                build_s=build_s,
                analyze_s=analyze_s,
            )
        )

    result.wall_s = time.perf_counter() - started
    result.spans = tracer.to_dicts()
    result.metrics = registry.to_dict()
    dydroid.close()
    return result
