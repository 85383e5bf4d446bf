"""Process-wide memos for deterministic artifacts that every job shares.

A market's blueprint table and a trained DroidNative are pure functions
of a few configuration values, so a process builds each one once and
every pipeline, farm shard and daemon thread reads the same read-only
value (:meth:`repro.corpus.generator.CorpusGenerator.sample_blueprints`,
:func:`repro.static_analysis.malware.droidnative.trained_droidnative`).
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, TypeVar

__all__ = ["BuildOnce"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BuildOnce(Generic[K, V]):
    """A memo whose values are built at most once per key at a time.

    ``get(key, build)`` answers from the memo or calls ``build()`` under
    that key's lock: threads that miss on one key together build it once,
    and a slow build of one key does not hold up a hit on another.  A
    build that raises leaves nothing behind, so the next call builds
    again.  Each value weighs ``weight(value)``; once the total passes
    ``capacity`` the least recently used values go, and a value heavier
    than the whole capacity is returned without being kept.
    """

    def __init__(
        self,
        capacity: float = math.inf,
        weight: Callable[[V], int] = lambda value: 1,
    ) -> None:
        self.capacity = capacity
        self._weight = weight
        self._values: "OrderedDict[K, V]" = OrderedDict()
        self._held = 0
        self._reset_locks()
        # A child forked while a thread of this process held one of the
        # locks would inherit it held, with no thread left to release it.
        os.register_at_fork(after_in_child=self._reset_locks)

    def _reset_locks(self) -> None:
        self._lock = threading.Lock()
        self._building: Dict[K, threading.Lock] = {}

    def get(self, key: K, build: Callable[[], V]) -> V:
        with self._lock:
            if key in self._values:
                self._values.move_to_end(key)
                return self._values[key]
            gate = self._building.setdefault(key, threading.Lock())
        with gate:
            try:
                with self._lock:
                    if key in self._values:  # built while this thread waited
                        self._values.move_to_end(key)
                        return self._values[key]
                value = build()
                with self._lock:
                    self._keep(key, value)
                return value
            finally:
                with self._lock:
                    if self._building.get(key) is gate:
                        del self._building[key]

    def _keep(self, key: K, value: V) -> None:
        weight = self._weight(value)
        if weight > self.capacity:
            return
        self._values[key] = value
        self._held += weight
        while self._held > self.capacity:
            _, evicted = self._values.popitem(last=False)
            self._held -= self._weight(evicted)
