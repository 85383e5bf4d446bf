"""Layer spans recorded from outside the program.

:func:`tracing` patches the public entry point of every layer (the
``WRAPS`` table) with a wrapper that records one :class:`Span` per call
on a thread-local stack, and restores the original attributes on exit.
A function that a module imported by name is patched in the importing
module (``repro.core.pipeline.analyze_dex``), because patching the
defining module would not reach the copy the caller holds.

Spans stay in memory; :func:`layer_stats` folds them into per-layer call
counts, self time (duration minus the union of child spans) and call
durations, and :func:`layer_metrics` turns those into the ``per_layer``
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from bench.stats import percentile


class Span:
    """One call into a layer: name, interval, parent, thread, app/job id."""

    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "ctx", "ok")

    def __init__(self, sid, name, start, end, parent, thread, ctx, ok=None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.ctx = ctx
        self.ok = ok

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(**data)


class SpanRecorder:
    """Thread-safe in-memory span sink with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, ctx_of=None, outcome=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        ctx = ctx_of(args) if ctx_of is not None else None
        if ctx is None and parent is not None:
            ctx = parent.ctx
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(
            sid, name, 0.0, 0.0, parent.sid if parent else None,
            threading.get_ident(), ctx,
        )
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if outcome is not None:
                span.ok = bool(outcome(result))
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)


@dataclass(frozen=True)
class Wrap:
    """One patch point: ``module.owner.attr`` (or ``module.attr``)."""

    layer: str
    module: str
    attr: str
    #: derives the app or job id from the call's positional arguments.
    ctx_of: Optional[Callable[[tuple], object]] = None
    #: maps the return value to a success flag (``Span.ok``).
    outcome: Optional[Callable[[object], object]] = None


def _record_id(args) -> str:
    record = args[1]
    return "{}@{}".format(record.package, record.version_code)


def _job_id(args) -> str:
    spec = args[0]
    return "job:{}:{}:{}".format(spec.seed, spec.n_apps, spec.index)


def _found(result) -> bool:
    return result[0]


WRAPS: Tuple[Wrap, ...] = (
    Wrap("corpus.build_record", "repro.corpus.generator", "CorpusGenerator.build_record"),
    Wrap("corpus.sample_blueprints", "repro.corpus.generator",
         "CorpusGenerator.sample_blueprints"),
    Wrap("android.dex_decode", "repro.android.dex", "DexFile.from_bytes"),
    Wrap("android.manifest_parse", "repro.android.apk", "Apk.manifest"),
    Wrap("core.init", "repro.core.pipeline", "DyDroid.__init__"),
    Wrap("core.analyze_app", "repro.core.pipeline", "DyDroid.analyze_app",
         ctx_of=_record_id),
    Wrap("core.serialize", "repro.core.report", "AppAnalysis.to_dict"),
    Wrap("static_analysis.decompile", "repro.static_analysis.decompiler",
         "Decompiler.decompile"),
    Wrap("static_analysis.prefilter", "repro.core.pipeline", "prefilter"),
    Wrap("static_analysis.obfuscation", "repro.core.pipeline", "analyze_obfuscation"),
    Wrap("static_analysis.vulnerability", "repro.core.pipeline", "classify_loads"),
    Wrap("dynamic.engine_run", "repro.dynamic.engine", "AppExecutionEngine.run"),
    Wrap("dynamic.replay", "repro.dynamic.engine",
         "AppExecutionEngine.replay_under_configs"),
    Wrap("runtime.run_entry", "repro.runtime.vm", "DalvikVM.run_entry"),
    Wrap("malware.detect", "repro.static_analysis.malware.droidnative", "DroidNative.detect"),
    Wrap("privacy.analyze_dex", "repro.core.pipeline", "analyze_dex"),
    Wrap("ecosystems.classify_hazards", "repro.core.pipeline", "classify_hazards"),
    Wrap("store.open", "repro.store.verdicts", "VerdictStore.__init__"),
    Wrap("store.get", "repro.store.verdicts", "VerdictStore.get_detection", outcome=_found),
    Wrap("store.get", "repro.store.verdicts", "VerdictStore.get_privacy", outcome=_found),
    Wrap("store.put", "repro.store.verdicts", "VerdictStore.put_detection"),
    Wrap("store.put", "repro.store.verdicts", "VerdictStore.put_privacy"),
    Wrap("farm.merge", "repro.farm.coordinator", "merge_serialized"),
    Wrap("farm.merge", "repro.evolution.runner", "merge_serialized"),
    Wrap("evolution.diff", "repro.evolution.runner", "diff_analyses"),
    Wrap("evolution.warehouse_append", "repro.evolution.warehouse",
         "SnapshotWarehouse.append"),
    Wrap("service.build", "repro.service.spec", "JobSpec.build_record", ctx_of=_job_id),
)


def _owner_and_name(wrap: Wrap):
    owner = importlib.import_module(wrap.module)
    *path, name = wrap.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _wrapped(recorder: SpanRecorder, wrap: Wrap, raw):
    """A replacement for ``raw`` (function, classmethod or property)."""

    def around(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(wrap.layer, fn, args, kwargs, wrap.ctx_of, wrap.outcome)

        return wrapper

    if isinstance(raw, classmethod):
        return classmethod(around(raw.__func__))
    if isinstance(raw, property):
        return property(around(raw.fget), raw.fset, raw.fdel, raw.__doc__)
    return around(raw)


@contextmanager
def tracing(
    recorder: SpanRecorder, wraps: Sequence[Wrap] = WRAPS
) -> Iterator[SpanRecorder]:
    """Install every wrapper; restore the original attributes on exit."""
    patched = []
    try:
        for wrap in wraps:
            owner, name = _owner_and_name(wrap)
            raw = owner.__dict__[name]
            setattr(owner, name, _wrapped(recorder, wrap, raw))
            patched.append((owner, name, raw))
        yield recorder
    finally:
        for owner, name, raw in reversed(patched):
            setattr(owner, name, raw)


# -- folding spans into layer numbers ------------------------------------------


def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    ok: int = 0
    durations: List[float] = field(default_factory=list)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """span id -> duration minus the part of it its children cover.

    Children are matched by parent id, whatever thread they ran on, and
    overlapping children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration
        - _covered(span.start, span.end, children.get(span.sid, []))
        for span in spans
    }


def layer_stats(spans: Sequence[Span]) -> Dict[str, LayerStats]:
    own = self_times(spans)
    stats: Dict[str, LayerStats] = defaultdict(LayerStats)
    for span in spans:
        row = stats[span.name]
        row.calls += 1
        row.self_s += own[span.sid]
        row.total_s += span.duration
        row.ok += bool(span.ok)
        row.durations.append(span.duration)
    return stats


def root_time(spans: Sequence[Span]) -> float:
    """Time inside top-level spans (no recorded parent)."""
    return sum(span.duration for span in spans if span.parent is None)


def version_ordinals(spans: Sequence[Span]) -> Dict[str, int]:
    """``package@version_code`` -> 1-based version ordinal within its package."""
    codes: Dict[str, set] = defaultdict(set)
    for span in spans:
        if span.name == "core.analyze_app":
            package, code = span.ctx.rsplit("@", 1)
            codes[package].add(int(code))
    return {
        "{}@{}".format(package, code): ordinal
        for package, found in codes.items()
        for ordinal, code in enumerate(sorted(found), start=1)
    }


def analyzer_calls_by_version(spans: Sequence[Span]) -> Dict[int, int]:
    """DroidNative + FlowDroid invocations per lineage version ordinal."""
    ordinals = version_ordinals(spans)
    calls: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.name in ("malware.detect", "privacy.analyze_dex"):
            calls[ordinals[span.ctx]] += 1
    return dict(calls)


def layer_metrics(
    spans: Sequence[Span], busy_s: float, cycles: int = 1
) -> Dict[str, float]:
    """The span-derived ``per_layer`` metrics.

    ``busy_s`` is the time the spans are a share of (the traced round time
    of a single-threaded batch run, or the daemon's summed job execution
    time).  Counts are per cycle over the inputs, so they repeat exactly
    across runs of a seed.
    """
    stats = layer_stats(spans)

    def calls(layer):
        return stats[layer].calls / cycles

    def frac(layer):
        return stats[layer].self_s / busy_s

    def ratio(num, den):
        return num / den if den else 0.0

    def p_ms(layer, q):
        durations = stats[layer].durations
        return percentile(durations, q) * 1e3 if durations else 0.0

    apps = stats["core.analyze_app"]
    metrics = {
        "trace.covered_frac": root_time(spans) / busy_s,
        "core.unattributed_frac": ratio(apps.self_s, apps.total_s),
        "core.analyze_app.p50_ms": p_ms("core.analyze_app", 50),
        "core.analyze_app.p95_ms": p_ms("core.analyze_app", 95),
        "dynamic.engine_run.p95_ms": p_ms("dynamic.engine_run", 95),
        "android.dex_decodes_per_app": ratio(
            stats["android.dex_decode"].calls, apps.calls
        ),
        "malware.detect_per_payload": ratio(
            stats["malware.detect"].calls, stats["ecosystems.classify_hazards"].calls
        ),
        "store.hit_ratio": ratio(stats["store.get"].ok, stats["store.get"].calls),
    }
    for layer in COUNTED_LAYERS:
        metrics[layer + ".calls"] = calls(layer)
    for layer in TIMED_LAYERS:
        metrics[layer + ".self_frac"] = frac(layer)
    return metrics


#: layers reported with a per-cycle ``.calls`` count.
COUNTED_LAYERS = (
    "corpus.build_record", "corpus.sample_blueprints",
    "android.dex_decode", "android.manifest_parse",
    "core.init", "core.analyze_app", "core.serialize",
    "dynamic.engine_run", "dynamic.replay", "runtime.run_entry",
    "malware.detect", "privacy.analyze_dex", "ecosystems.classify_hazards",
    "store.open", "store.get", "store.put",
    "farm.merge", "evolution.diff", "evolution.warehouse_append", "service.build",
)

#: layers reported with ``.self_frac``: self time as a share of busy time.
TIMED_LAYERS = COUNTED_LAYERS + (
    "static_analysis.decompile", "static_analysis.prefilter",
    "static_analysis.obfuscation", "static_analysis.vulnerability",
)
