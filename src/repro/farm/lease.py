"""The one scheduler for batch runs: a lease ledger and the loop draining it.

:class:`ShardLedger` holds a run's shard jobs; :func:`run_leases` leases
its entries to local worker slots, runs them and settles them.
``run_farm`` drives the loop against an in-process ledger, ``repro farm
join`` against the coordinator's ledger over HTTP, and ``run_evolution``
against one ledger holding every version's shards, version-major.

A slot is a :class:`~repro.farm.executors.SyncExecutor` at ``workers <=
1`` (shards run inline) and otherwise a one-process
:class:`ProcessPoolExecutor`, so a worker process dying breaks one slot
and names one in-flight entry.  That entry is settled through ``fail``:
the ledger re-queues a multi-app shard one app per entry (poison
isolation) and surrenders a single-app one.  The slot gets a fresh
process; the other slots run on.  Any other exception out of the shard
function propagates -- per-app failures are already retried and
quarantined inside the worker.

Entry state machine::

    PENDING --lease--> LEASED --complete/fail--> DONE
       ^                  |
       +----- expire -----+   (reaper or lazy, on any ledger access)

Local leases never expire (``lease_s`` is infinite): the loop sees a
death directly.  Expiry, renewal and stealing serve ``repro farm serve``,
whose join nodes can vanish without a word.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.farm.executors import SyncExecutor
from repro.farm.jobs import ShardJob
from repro.observe.metrics import MetricsRegistry

__all__ = ["LOCAL", "WORKER_DIED", "LeaseEntry", "ShardLedger", "run_leases"]

#: the lessee name an in-process run leases under.
LOCAL = "local"
#: the quarantine text of an app whose worker process died on it.
WORKER_DIED = "worker process died"

PENDING = "pending"
LEASED = "leased"
DONE = "done"


@dataclass
class LeaseEntry:
    """One ledger row: a shard job and who (if anyone) holds it right now."""

    entry_id: int
    job: ShardJob
    state: str = PENDING
    worker: Optional[str] = None
    expires_at: float = 0.0
    #: grants so far (1 on first lease; >1 means the shard was requeued).
    attempts: int = 0
    #: who held the lease the reaper last reclaimed (for steal counting).
    prev_worker: Optional[str] = None
    #: last renewal progress: ``{"completed": n, "total": n}``.
    progress: Dict[str, int] = field(default_factory=dict)


class ShardLedger:
    """Thread-safe lease ledger over a fixed set of shard jobs.

    All transitions happen under one mutex with an injectable clock, so
    tests drive expiry deterministically.  Expired leases are reclaimed
    lazily on every ``lease`` call *and* by the coordinator's reaper
    thread, so recovery does not depend on a new worker happening to ask.
    """

    def __init__(
        self,
        jobs: List[ShardJob],
        lease_s: float = 15.0,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        self.lease_s = lease_s
        self._clock = clock
        self._registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._entries: Dict[int, LeaseEntry] = {}
        self._next_id = 0
        self._workers_seen: List[str] = []
        for job in jobs:
            self._append_entry(job)

    def _append_entry(self, job: ShardJob) -> LeaseEntry:
        entry = LeaseEntry(entry_id=self._next_id, job=job)
        self._entries[entry.entry_id] = entry
        self._next_id += 1
        return entry

    def _count(self, name: str) -> None:
        self._registry.counter("farm.lease.{}".format(name)).inc()

    def _expire_locked(self, now: float) -> int:
        expired = 0
        for entry in self._entries.values():
            if entry.state == LEASED and entry.expires_at <= now:
                entry.state = PENDING
                entry.prev_worker = entry.worker
                entry.worker = None
                entry.progress = {}
                expired += 1
                self._count("expired")
        return expired

    # -- transitions -----------------------------------------------------------

    def lease(self, worker: str) -> Optional[LeaseEntry]:
        """Grant the first pending shard to ``worker``; None when drained."""
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            if worker not in self._workers_seen:
                self._workers_seen.append(worker)
            for entry_id in sorted(self._entries):
                entry = self._entries[entry_id]
                if entry.state != PENDING:
                    continue
                entry.state = LEASED
                entry.worker = worker
                entry.expires_at = now + self.lease_s
                entry.attempts += 1
                self._count("granted")
                if entry.prev_worker is not None and entry.prev_worker != worker:
                    self._count("stolen")
                return entry
            return None

    def renew(self, worker: str, entry_id: int, progress: Dict[str, int]) -> bool:
        """Extend a live lease; False means the lease was lost (expired,
        re-granted, or completed by someone else)."""
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            entry = self._entries.get(entry_id)
            if entry is None or entry.state != LEASED or entry.worker != worker:
                return False
            entry.expires_at = now + self.lease_s
            if progress:
                entry.progress = dict(progress)
            self._count("renewed")
            return True

    def complete(self, worker: str, entry_id: int) -> bool:
        """First completion wins; True means the caller's results count.

        A completion is accepted even from a worker whose lease expired
        (the work is done and no one else finished it first); the entry
        flips to DONE under the mutex, so at most one caller ever gets
        True for a given entry -- that is the fleet-wide exactly-once
        folding guarantee.
        """
        with self._lock:
            entry = self._entries.get(entry_id)
            if entry is None:
                return False
            if entry.state == DONE:
                self._count("stale")
                return False
            entry.state = DONE
            entry.worker = worker
            entry.progress = {}
            return True

    def fail(self, worker: str, entry_id: int) -> Tuple[int, Tuple[int, ...]]:
        """A worker process died on this shard.

        Multi-app shards are requeued one app per entry (poison
        isolation); a single-app shard has found its culprit and is
        surrendered.  Returns ``(entries_requeued, indices_surrendered)``.
        """
        with self._lock:
            entry = self._entries.get(entry_id)
            if entry is None or entry.state == DONE:
                return 0, ()
            entry.state = DONE
            entry.worker = worker
            entry.progress = {}
            if len(entry.job.indices) <= 1:
                return 0, entry.job.indices
            for index in entry.job.indices:
                self._append_entry(replace(entry.job, indices=(index,)))
            return len(entry.job.indices), ()

    def expire(self) -> int:
        """Reap expired leases now (the coordinator's reaper tick)."""
        with self._lock:
            return self._expire_locked(self._clock())

    # -- queries ---------------------------------------------------------------

    def done(self) -> bool:
        with self._lock:
            return all(entry.state == DONE for entry in self._entries.values())

    def workers_seen(self) -> List[str]:
        with self._lock:
            return list(self._workers_seen)

    def snapshot(self) -> Dict[str, object]:
        now = self._clock()
        with self._lock:
            states = {PENDING: 0, LEASED: 0, DONE: 0}
            leases = []
            for entry_id in sorted(self._entries):
                entry = self._entries[entry_id]
                states[entry.state] += 1
                if entry.state == LEASED:
                    leases.append(
                        {
                            "entry_id": entry.entry_id,
                            "shard_id": entry.job.shard_id,
                            "indices": list(entry.job.indices),
                            "worker": entry.worker,
                            "expires_in_s": round(entry.expires_at - now, 3),
                            "attempts": entry.attempts,
                            "progress": dict(entry.progress),
                        }
                    )
            return {
                "entries": len(self._entries),
                "pending": states[PENDING],
                "leased": states[LEASED],
                "done": states[DONE],
                "workers": list(self._workers_seen),
                "leases": leases,
            }


def run_leases(lessee, fn: Callable, workers: int, poll_s: float = 0.5) -> None:
    """Lease, run and settle entries until the lessee is drained.

    ``lessee`` provides ``lease()`` (a :class:`LeaseEntry`, or ``None``
    when nothing is pending right now), ``complete(entry_id, result)``,
    ``fail(entry_id)`` and ``drained()``, which ends the loop once no
    entry of this process is in flight.  ``fn(entry.job)`` runs on one
    of ``workers`` slots.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    slots = (
        [SyncExecutor()] if workers <= 1
        else [ProcessPoolExecutor(max_workers=1) for _ in range(workers)]
    )
    active: Dict[Future, Tuple[object, int]] = {}
    try:
        while True:
            while slots:
                entry = lessee.lease()
                if entry is None:
                    break
                slot = slots.pop()
                active[slot.submit(fn, entry.job)] = (slot, entry.entry_id)
            if not active:
                if lessee.drained():
                    return
                time.sleep(poll_s)
                continue
            done, _ = wait(list(active), timeout=poll_s, return_when=FIRST_COMPLETED)
            for future in done:
                slot, entry_id = active.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    slot.shutdown(wait=False)
                    slots.append(ProcessPoolExecutor(max_workers=1))
                    lessee.fail(entry_id)
                    continue
                slots.append(slot)
                lessee.complete(entry_id, result)
    finally:
        for slot in slots + [slot for slot, _ in active.values()]:
            slot.shutdown(wait=True)
