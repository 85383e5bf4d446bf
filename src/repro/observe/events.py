"""The structured event log: leveled, bounded, greppable operational events.

Spans answer "where did the time go"; events answer "what happened".  An
:class:`EventLog` is a thread-safe bounded ring of :class:`Event` records
-- one per operationally interesting transition (job admitted, shard
quarantined, firewall deny, store publish) -- with an optional JSONL sink
so a long-lived daemon leaves a greppable trail on disk::

    events = EventLog(capacity=1024, sink="events.jsonl")
    events.emit("job.admitted", job_id="job-000001", client="tenant-a")
    events.emit("firewall.deny", level="warn", path="/sdcard/evil.dex")

Records are plain dicts (``{"seq", "ts", "level", "name", "fields"}``);
``seq`` is a monotonic per-log counter, so consumers can detect ring
eviction (``dropped``) and concurrent writers can prove no record was
lost or torn.  Two sink modes exist because two consumers need them:

- ``append`` -- write-through, one flushed line per emit (the daemon's
  audit trail; survives crashes up to the last flush, and a reopened sink
  first cuts off the torn line a killed writer left);
- ``rewrite`` -- atomically rewrite the whole ring on every emit (the
  farm flight recorder: the on-disk file always parses, always holds the
  last N records, and a SIGKILL can never tear a line).

:data:`NULL_EVENT_LOG` is the zero-cost disabled path, mirroring
:data:`~repro.observe.tracer.NULL_TRACER`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "EVENT_LEVELS",
    "Event",
    "EventLog",
    "NULL_EVENT_LOG",
    "NullEventLog",
    "load_events",
]

#: level name -> rank; emits below the log's minimum level are dropped.
EVENT_LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warn": 30, "error": 40}

_SINK_MODES = ("append", "rewrite")


def _level_rank(level: str) -> int:
    try:
        return EVENT_LEVELS[level]
    except KeyError:
        raise ValueError(
            "unknown event level {!r} (want one of {})".format(
                level, "/".join(sorted(EVENT_LEVELS, key=EVENT_LEVELS.get))
            )
        )


class Event:
    """One structured record: name, level, wall-clock ts, free-form fields."""

    __slots__ = ("seq", "ts", "level", "name", "fields")

    def __init__(
        self, seq: int, ts: float, level: str, name: str, fields: Dict[str, Any]
    ) -> None:
        self.seq = seq
        self.ts = ts
        self.level = level
        self.name = name
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": round(self.ts, 6),
            "level": self.level,
            "name": self.name,
            "fields": dict(self.fields),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Event(#{} [{}] {} {})".format(self.seq, self.level, self.name, self.fields)


class EventLog:
    """Thread-safe bounded ring of events with an optional JSONL sink."""

    def __init__(
        self,
        capacity: int = 1024,
        sink: Optional[str] = None,
        level: str = "debug",
        sink_mode: str = "append",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if sink_mode not in _SINK_MODES:
            raise ValueError(
                "unknown sink_mode {!r} (want one of {})".format(
                    sink_mode, "/".join(_SINK_MODES)
                )
            )
        self.capacity = capacity
        self.sink = sink
        self.sink_mode = sink_mode
        self._min_rank = _level_rank(level)
        self._ring: Deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()
        self._handle = None
        if sink and sink_mode == "append":
            # deferred: repro.store imports the analyzers, which import us
            from repro.store.log import repair_and_append
            repair_and_append(sink)  # a killed predecessor's torn line
            self._handle = open(sink, "a", encoding="utf-8")

    # -- write -----------------------------------------------------------------

    def emit(self, name: str, level: str = "info", **fields: Any) -> Optional[Event]:
        """Record one event; returns it, or None when filtered by level."""
        rank = _level_rank(level)
        if rank < self._min_rank:
            return None
        with self._lock:
            event = Event(
                seq=self._seq, ts=time.time(), level=level, name=name, fields=fields
            )
            self._seq += 1
            self._ring.append(event)
            if self._handle is not None:
                self._handle.write(json.dumps(event.to_dict(), sort_keys=True))
                self._handle.write("\n")
                self._handle.flush()
            elif self.sink is not None:
                self._rewrite_locked()
        return event

    def _rewrite_locked(self) -> None:
        """Atomically replace the sink with the current ring contents."""
        tmp = "{}.tmp{}".format(self.sink, os.getpid())
        with open(tmp, "w", encoding="utf-8") as handle:
            for event in self._ring:
                handle.write(json.dumps(event.to_dict(), sort_keys=True))
                handle.write("\n")
        os.replace(tmp, self.sink)

    # -- read ------------------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Snapshot of the retained ring, oldest first."""
        with self._lock:
            return [event.to_dict() for event in self._ring]

    @property
    def emitted(self) -> int:
        """Events accepted (post level filter) over the log's lifetime."""
        with self._lock:
            return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted from the ring by the capacity bound."""
        with self._lock:
            return self._seq - len(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class NullEventLog:
    """Disabled log: ``emit`` does nothing, reads are empty."""

    capacity = 0
    sink = None
    emitted = 0
    dropped = 0

    def emit(self, name: str, level: str = "info", **fields: Any) -> None:
        return None

    def to_dicts(self) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0

    def close(self) -> None:
        return None


NULL_EVENT_LOG = NullEventLog()


def load_events(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL event file, tolerating a torn final line.

    An ``append``-mode sink killed mid-write can leave a partial last
    record; post-mortem tooling must still read everything before it, and
    like every log reader it never reads past the last newline.  A torn
    line anywhere *else* is real corruption and raises.
    """
    from repro.store.log import complete_lines

    events: List[Dict[str, Any]] = []
    for line_no, line in enumerate(complete_lines(path), 1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            raise ValueError("{}:{}: unparseable event record".format(path, line_no))
    return events
