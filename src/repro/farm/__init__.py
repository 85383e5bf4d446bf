"""The analysis farm: corpus-scale scheduling around ``DyDroid.analyze_app``.

The paper ran DyDroid over its 46K-app crawl on a cluster of instrumented
emulators; this package is that scheduling layer for the reproduction:

- :mod:`repro.farm.shards`      -- deterministic corpus partitioning;
- :mod:`repro.farm.jobs`        -- picklable job/result records (no APKs
  cross process boundaries; workers regenerate from seed + index);
- :mod:`repro.farm.worker`      -- per-shard analysis with per-app
  timeouts, bounded retry with backoff, and quarantine;
- :mod:`repro.farm.executors`   -- process pool or synchronous in-process;
- :mod:`repro.farm.lease`       -- the one scheduler: a lease ledger and
  the loop leasing its shards to local worker slots;
- :mod:`repro.farm.checkpoint`  -- append-only JSONL journal for resume;
- :mod:`repro.farm.merger`      -- order-independent merge back into one
  :class:`~repro.core.report.MeasurementReport`;
- :mod:`repro.farm.metrics`     -- throughput / latency / failure metrics;
- :mod:`repro.farm.flight`      -- per-shard flight recorder, worker
  heartbeats, and the coordinator's live ``status.json``;
- :mod:`repro.farm.coordinator` -- the run state (ledger, journal, fold,
  result) and :func:`run_farm`, which leases it to local workers;
- :mod:`repro.farm.netcoord`    -- the same run state over HTTP
  (``repro farm serve``), re-queueing the shards of a silent join node;
- :mod:`repro.farm.networker`   -- ``repro farm join``: the same lease
  loop over HTTP, renewing from heartbeats and shipping results back.

Determinism guarantee: for a fixed corpus seed and pipeline config, the
merged report of any shard/worker configuration -- local pool or
multi-node -- renders byte-identically to the serial ``DyDroid.measure``
run (quarantined apps excepted -- those are reported, not silently
dropped).
"""

from repro.farm.checkpoint import CheckpointError, CheckpointJournal
from repro.farm.coordinator import FarmConfig, FarmResult, run_farm
from repro.farm.executors import SyncExecutor, create_executor
from repro.farm.flight import (
    FlightRecorder,
    StatusWriter,
    flight_path,
    heartbeat_path,
    load_flight,
    read_heartbeats,
    write_heartbeat,
)
from repro.farm.jobs import (
    AppResult,
    ChaosSpec,
    QuarantineRecord,
    ShardJob,
    ShardResult,
)
from repro.farm.merger import merge_reports, merge_serialized
from repro.farm.metrics import FarmMetrics
from repro.farm.lease import LeaseEntry, ShardLedger
from repro.farm.netcoord import FarmCoordinator
from repro.farm.networker import FarmJoinError, JoinSummary, join_farm
from repro.farm.shards import ShardSpec, plan_shards
from repro.farm.worker import AppTimeoutError, run_shard

__all__ = [
    "AppResult",
    "AppTimeoutError",
    "ChaosSpec",
    "CheckpointError",
    "CheckpointJournal",
    "FarmConfig",
    "FarmCoordinator",
    "FarmJoinError",
    "FarmMetrics",
    "FarmResult",
    "FlightRecorder",
    "JoinSummary",
    "LeaseEntry",
    "QuarantineRecord",
    "ShardLedger",
    "ShardJob",
    "ShardResult",
    "ShardSpec",
    "StatusWriter",
    "SyncExecutor",
    "create_executor",
    "flight_path",
    "heartbeat_path",
    "join_farm",
    "load_flight",
    "merge_reports",
    "merge_serialized",
    "plan_shards",
    "read_heartbeats",
    "run_farm",
    "run_shard",
    "write_heartbeat",
]
