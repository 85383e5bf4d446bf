"""Longitudinal evolution: versioned lineages, snapshot warehouse, drift diffing.

The single-snapshot pipeline answers "what does this APK do?"; this
package answers "what *changed*?" -- the question the paper's
review-then-swap threat model actually turns on.  It provides:

- :mod:`repro.evolution.lineage` -- deterministic multi-version app
  lineages with seeded per-version mutations;
- :mod:`repro.evolution.warehouse` -- an append-only, flock-safe store
  of per-version analyses keyed by ``(package, version_code)``;
- :mod:`repro.evolution.differ` -- structured, severity-bucketed diffs
  of two snapshots of the same app;
- :mod:`repro.evolution.timelines` -- fleet-level evolution statistics;
- :mod:`repro.evolution.runner` -- the ``repro evolve run`` coordinator,
  which leases every version's shards, oldest first, through the farm's
  lease loop with a shared verdict store, so unchanged payloads are
  reused rather than re-analyzed.
"""

from repro.evolution.differ import (
    DriftFinding,
    DriftSeverity,
    SnapshotDiff,
    classify_pair,
    diff_analyses,
    diff_digest,
)
from repro.evolution.lineage import (
    AppLineage,
    AppVersion,
    LineageSpec,
    build_version_record,
    plan_lineages,
)
from repro.evolution.runner import EvolveConfig, EvolveResult, run_evolution
from repro.evolution.timelines import (
    FleetTimeline,
    PackageTimeline,
    build_timeline,
    load_warehouse_timeline,
)
from repro.evolution.warehouse import (
    WAREHOUSE_VERSION,
    SnapshotWarehouse,
    WarehouseError,
    compact_warehouse,
)
from repro.evolution.worker import (
    LineageShardJob,
    LineageShardResult,
    run_lineage_shard,
)

__all__ = [
    "AppLineage",
    "AppVersion",
    "DriftFinding",
    "DriftSeverity",
    "EvolveConfig",
    "EvolveResult",
    "FleetTimeline",
    "LineageShardJob",
    "LineageShardResult",
    "LineageSpec",
    "PackageTimeline",
    "SnapshotDiff",
    "SnapshotWarehouse",
    "WAREHOUSE_VERSION",
    "WarehouseError",
    "build_timeline",
    "build_version_record",
    "classify_pair",
    "compact_warehouse",
    "diff_analyses",
    "diff_digest",
    "load_warehouse_timeline",
    "plan_lineages",
    "run_evolution",
    "run_lineage_shard",
]
