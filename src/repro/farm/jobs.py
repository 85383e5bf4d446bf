"""Job and result records shipped between the coordinator and workers.

Everything here is plain-data and picklable; crucially, a :class:`ShardJob`
carries *no* APK objects -- workers regenerate their slice of the corpus
from ``(corpus_seed, n_apps, indices)``, which keeps job payloads tiny and
makes every shard independently re-runnable.

The same property makes jobs *wire-able*: the ``*_to_wire`` /
``*_from_wire`` pairs below round-trip jobs and results through plain
JSON for the network farm (:mod:`repro.farm.netcoord`), where workers on
other hosts lease shards over HTTP instead of receiving pickles.  The
round trip is exact -- a reconstructed config ``repr``-matches the
original, so :func:`run_fingerprint` computed on either side agrees,
which is how a joining worker proves it is analyzing the same run.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import DyDroidConfig, EnvironmentConfig


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic fault injection, for tests and resilience drills.

    ``fail_packages`` raise on their first ``fail_attempts`` analysis
    attempts (``fail_attempts >= max_retries + 1`` forces quarantine);
    ``slow_packages`` sleep ``slow_s`` seconds per attempt so per-app
    timeouts can be exercised without a genuinely slow app.
    """

    fail_packages: Tuple[str, ...] = ()
    fail_attempts: int = 0
    slow_packages: Tuple[str, ...] = ()
    slow_s: float = 0.0

    @property
    def active(self) -> bool:
        return bool(self.fail_packages or self.slow_packages)


@dataclass(frozen=True)
class ShardJob:
    """One schedulable unit: analyze ``indices`` of the seeded corpus."""

    shard_id: int
    corpus_seed: int
    n_apps: int
    indices: Tuple[int, ...]
    config: DyDroidConfig
    timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_s: float = 0.05
    chaos: ChaosSpec = field(default_factory=ChaosSpec)
    #: collect spans in the worker and ship them back for trace export
    #: (the metrics registry is always collected; spans are opt-in).
    trace: bool = False
    #: shared verdict-store path: every shard opens the same file, so a
    #: payload digest analyzed by any shard is reused by all others.
    verdict_store: Optional[str] = None
    #: directory for live telemetry (``flight-<shard>.jsonl`` ring dumps
    #: and ``heartbeat-<shard>.json``); None disables both.
    flight_dir: Optional[str] = None


@dataclass
class AppResult:
    """One successfully analyzed app, already in serialized (JSON) form."""

    index: int
    package: str
    analysis: Dict[str, object]
    retries: int = 0
    build_s: float = 0.0
    analyze_s: float = 0.0


@dataclass
class QuarantineRecord:
    """An app that exhausted its retries; excluded from the merged report."""

    index: int
    package: str
    error: str
    attempts: int


@dataclass
class ShardResult:
    """Everything one worker produced for one shard."""

    shard_id: int
    results: List[AppResult] = field(default_factory=list)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    wall_s: float = 0.0
    #: serialized span dicts (``Tracer.to_dicts``), empty unless tracing.
    spans: List[Dict[str, object]] = field(default_factory=list)
    #: serialized worker registry (``MetricsRegistry.to_dict``).
    metrics: Dict[str, object] = field(default_factory=dict)


# -- wire format (network farm) ----------------------------------------------------


def config_to_wire(config: DyDroidConfig) -> Dict[str, object]:
    """A :class:`DyDroidConfig` as a JSON-able dict (tuples become lists)."""
    return asdict(config)


def config_from_wire(data: Dict[str, object]) -> DyDroidConfig:
    data = dict(data)
    data["replay_configs"] = tuple(
        EnvironmentConfig(**dict(env)) for env in data.get("replay_configs") or ()
    )
    return DyDroidConfig(**data)


def chaos_to_wire(chaos: ChaosSpec) -> Dict[str, object]:
    return asdict(chaos)


def chaos_from_wire(data: Dict[str, object]) -> ChaosSpec:
    data = dict(data)
    data["fail_packages"] = tuple(data.get("fail_packages") or ())
    data["slow_packages"] = tuple(data.get("slow_packages") or ())
    return ChaosSpec(**data)


def shard_job_to_wire(job: ShardJob) -> Dict[str, object]:
    data = asdict(job)
    data["config"] = config_to_wire(job.config)
    data["chaos"] = chaos_to_wire(job.chaos)
    return data


def shard_job_from_wire(data: Dict[str, object]) -> ShardJob:
    data = dict(data)
    data["indices"] = tuple(data.get("indices") or ())
    data["config"] = config_from_wire(data["config"])
    data["chaos"] = chaos_from_wire(data.get("chaos") or {})
    return ShardJob(**data)


def shard_result_to_wire(result: ShardResult) -> Dict[str, object]:
    return {
        "shard_id": result.shard_id,
        "results": [asdict(app) for app in result.results],
        "quarantined": [asdict(rec) for rec in result.quarantined],
        "wall_s": result.wall_s,
        "spans": result.spans,
        "metrics": result.metrics,
    }


def shard_result_from_wire(data: Dict[str, object]) -> ShardResult:
    return ShardResult(
        shard_id=data["shard_id"],
        results=[AppResult(**dict(app)) for app in data.get("results") or []],
        quarantined=[
            QuarantineRecord(**dict(rec)) for rec in data.get("quarantined") or []
        ],
        wall_s=data.get("wall_s", 0.0),
        spans=list(data.get("spans") or []),
        metrics=dict(data.get("metrics") or {}),
    )


def run_fingerprint(corpus_seed: int, n_apps: int, config: DyDroidConfig) -> str:
    """Stable identity of a run's inputs, stored in the checkpoint header.

    A journal written for one ``(seed, n_apps, config)`` must never be
    resumed against another -- the per-app results would silently disagree
    with the corpus being merged.
    """
    raw = repr((corpus_seed, n_apps, config)).encode()
    return hashlib.sha256(raw).hexdigest()[:16]
