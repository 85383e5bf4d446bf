"""The metrics registry: named counters, gauges, histograms, distinct sets.

Everything here is plain-data, dependency-free, and built for the farm's
determinism guarantee: a registry serializes with ``to_dict`` and merges
with ``merge_dict`` using only order-independent operations (sum, max,
set union), so merging shard registries in any completion order yields
the same result.

:class:`LatencyHistogram`'s ``record`` is a ``bisect`` over the fixed
1-2-5 bucket ladder.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Set

__all__ = [
    "Counter",
    "DistinctSet",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "defense_summary",
    "evolution_summary",
    "lease_summary",
    "triage_summary",
    "verdict_cache_summary",
    "verdict_store_summary",
]

#: 1-2-5 bucket ladder from 1ms to 100s (seconds); +inf is implicit.
_BUCKET_BOUNDS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with exact summary stats.

    Bucket semantics are cumulative-upper-bound (``value <= bound``);
    values past the last bound land in the implicit ``le_inf`` bucket.
    Negative values are clamped to zero -- latency can never be negative,
    and a clock hiccup must not corrupt ``total_s``.
    """

    def __init__(self) -> None:
        self.counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        if seconds < 0.0:
            seconds = 0.0
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        self.counts[bisect_left(_BUCKET_BOUNDS, seconds)] += 1

    def merge(self, other: "LatencyHistogram") -> None:
        self.count += other.count
        self.total_s += other.total_s
        self.max_s = max(self.max_s, other.max_s)
        for position, count in enumerate(other.counts):
            self.counts[position] += count

    def to_dict(self) -> Dict[str, object]:
        buckets = {
            "le_{:g}s".format(bound): count
            for bound, count in zip(_BUCKET_BOUNDS, self.counts)
        }
        buckets["le_inf"] = self.counts[-1]
        return {
            "count": self.count,
            "total_s": round(self.total_s, 6),
            "mean_s": round(self.total_s / self.count, 6) if self.count else 0.0,
            "max_s": round(self.max_s, 6),
            "buckets": buckets,
        }

    def merge_dict(self, payload: Dict[str, object]) -> None:
        """Fold a serialized histogram (``to_dict`` output) into this one."""
        self.count += payload["count"]
        self.total_s += payload["total_s"]
        self.max_s = max(self.max_s, payload["max_s"])
        buckets = payload["buckets"]
        for position, bound in enumerate(_BUCKET_BOUNDS):
            self.counts[position] += buckets["le_{:g}s".format(bound)]
        self.counts[-1] += buckets["le_inf"]


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-written value; merges take the max (order-independent)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class DistinctSet:
    """A set of string keys; merges by union.

    This is what makes cache metrics shard-invariant: per-shard hit/miss
    counters depend on which apps share a shard, but the *union of missed
    digests* (= distinct payloads actually analyzed) is identical for any
    sharding of the same seeded corpus.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: Set[str] = set()

    def add(self, value: str) -> None:
        self.values.add(value)

    @property
    def count(self) -> int:
        return len(self.values)


class MetricsRegistry:
    """Create-on-first-use registry of named metrics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._distincts: Dict[str, DistinctSet] = {}

    # -- access ----------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            metric = self._gauges[name] = Gauge()
            return metric

    def histogram(self, name: str) -> LatencyHistogram:
        try:
            return self._histograms[name]
        except KeyError:
            metric = self._histograms[name] = LatencyHistogram()
            return metric

    def distinct(self, name: str) -> DistinctSet:
        try:
            return self._distincts[name]
        except KeyError:
            metric = self._distincts[name] = DistinctSet()
            return metric

    # -- read-only helpers (absent metric reads as empty) ----------------------

    def counter_value(self, name: str) -> int:
        metric = self._counters.get(name)
        return metric.value if metric else 0

    def distinct_count(self, name: str) -> int:
        metric = self._distincts.get(name)
        return metric.count if metric else 0

    # -- serialization / merge -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "counters": {
                name: counter.value for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self._histograms.items())
            },
            "distinct": {
                name: sorted(dset.values)
                for name, dset in sorted(self._distincts.items())
            },
        }

    def merge_dict(self, payload: Dict[str, object]) -> None:
        """Fold a serialized registry (``to_dict`` output) into this one.

        Every operation is commutative and associative, so shard
        registries can arrive in any completion order.
        """
        for name, value in payload.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in payload.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, histogram in payload.get("histograms", {}).items():
            self.histogram(name).merge_dict(histogram)
        for name, values in payload.get("distinct", {}).items():
            self.distinct(name).values.update(values)

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_dict(other.to_dict())


def verdict_cache_summary(registry: MetricsRegistry) -> Dict[str, Dict[str, int]]:
    """Shard-invariant verdict-cache effectiveness numbers.

    ``lookups`` counts every detection/privacy cache probe and ``misses``
    the *distinct* payload digests probed -- both are properties of the
    seeded corpus alone, so any sharding of the same run reports the same
    numbers.  ``hits`` is the deduplicated work avoided.  (The per-process
    ``cache.<kind>.hit``/``.miss`` counters remain in the registry; those
    legitimately vary with sharding and LRU eviction.)
    """
    summary: Dict[str, Dict[str, int]] = {}
    for kind in ("detection", "privacy"):
        lookups = registry.counter_value("cache.{}.lookups".format(kind))
        misses = registry.distinct_count("cache.{}.digests".format(kind))
        summary[kind] = {
            "lookups": lookups,
            "misses": misses,
            "hits": max(0, lookups - misses),
        }
    return summary


def verdict_store_summary(registry: MetricsRegistry) -> Dict[str, Dict[str, int]]:
    """Tier-2 (shared verdict store) effectiveness numbers.

    ``probes`` counts tier-1 misses that consulted the store; ``hits``
    are verdicts served without recomputation (published by a sibling
    shard, another process, or a previous run); ``misses`` forced an
    actual DroidNative/FlowDroid invocation.  On a cold store a run's
    ``misses`` equals its distinct-digest count; on a warm store it is 0.
    """
    summary: Dict[str, Dict[str, int]] = {}
    for kind in ("detection", "privacy"):
        hits = registry.counter_value("store.{}.hit".format(kind))
        misses = registry.counter_value("store.{}.miss".format(kind))
        summary[kind] = {"probes": hits + misses, "hits": hits, "misses": misses}
    return summary


def lease_summary(registry: MetricsRegistry) -> Dict[str, int]:
    """Network-farm lease-ledger numbers from the ``farm.lease.*`` counters.

    ``granted`` counts every lease handed to a worker (including
    re-grants of requeued shards -- the work-stealing path), ``renewed``
    successful heartbeat extensions, ``expired`` leases the reaper
    reclaimed from silent workers, ``stolen`` expired shards re-leased to
    a different worker, and ``stale`` completions that arrived after the
    ledger had already accepted the shard from someone else (discarded;
    exactly-once folding is first-completion-wins).
    """
    return {
        name: registry.counter_value("farm.lease.{}".format(name))
        for name in ("granted", "renewed", "expired", "stolen", "stale")
    }


def evolution_summary(registry: MetricsRegistry) -> Dict[str, object]:
    """Longitudinal-run numbers from the ``evolution.*`` counters.

    ``snapshots`` counts every (package, version) analysis, ``mutated``
    the versions whose blueprint drifted from its predecessor, and
    ``drift`` buckets the adjacent-version diffs by their severity label
    (``none`` means the pair produced no findings at all).
    """
    return {
        "snapshots": registry.counter_value("evolution.apps"),
        "mutated_versions": registry.counter_value("evolution.mutated_versions"),
        "versions": registry.counter_value("evolution.versions"),
        "drift": {
            severity: registry.counter_value("evolution.drift.{}".format(severity))
            for severity in ("none", "benign", "suspicious", "critical")
        },
    }


def defense_summary(registry: MetricsRegistry) -> Dict[str, object]:
    """Enforcement numbers from the ``defense.*`` counters.

    ``loads_checked`` counts every inline firewall verdict (ALLOWs
    included), ``loads_denied``/``loads_quarantined`` the blocking ones,
    ``apps_blocked`` the apps with at least one blocked load, and
    ``by_rule`` attributes blocks to the policy rule that fired.
    ``secure_loader_rejections`` counts the developer-side saves
    (:class:`~repro.defense.secure_loader.SecureDexClassLoader` refusals),
    which never reach the firewall because the load never happens.
    """
    counters = registry.to_dict()["counters"]
    prefix = "defense.rule."
    return {
        "loads_checked": registry.counter_value("defense.loads_checked"),
        "loads_denied": registry.counter_value("defense.loads_denied"),
        "loads_quarantined": registry.counter_value("defense.loads_quarantined"),
        "apps_blocked": registry.counter_value("defense.apps_blocked"),
        "secure_loader_rejections": registry.counter_value(
            "defense.secure_loader_rejections"
        ),
        "by_rule": {
            name[len(prefix):]: value
            for name, value in counters.items()
            if name.startswith(prefix)
        },
    }


def triage_summary(registry: MetricsRegistry) -> Dict[str, object]:
    """Tier-0 gate numbers from the ``triage.*`` counters.

    ``gated`` counts every session the gate scored, ``hit`` the apps whose
    verdicts it short-circuited, ``fallthrough`` the undecided apps that
    ran the full analyzers (and were harvested as training data), and
    ``override`` the decided apps where every payload resolved from the
    LRU/verdict store anyway -- tier 1/2 results always beat predictions.
    ``analyzers_skipped`` counts per-payload analyzer invocations avoided.
    """
    gated = registry.counter_value("triage.gated")
    hit = registry.counter_value("triage.hit")
    return {
        "gated": gated,
        "hit": hit,
        "fallthrough": registry.counter_value("triage.fallthrough"),
        "override": registry.counter_value("triage.override"),
        "analyzers_skipped": registry.counter_value("triage.analyzers_skipped"),
        "short_circuit_rate": round(hit / gated, 4) if gated else 0.0,
    }


def iter_bucket_bounds() -> Iterable[float]:
    """The histogram bucket ladder (exported for tests and docs)."""
    return _BUCKET_BOUNDS
