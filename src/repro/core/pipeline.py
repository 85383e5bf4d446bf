"""The DyDroid orchestrator (Figure 1 of the paper).

Per app: decompile -> prefilter -> (DCL candidates only) dynamic analysis
with Monkey -> provenance/entity attribution -> static analysis of the
intercepted binaries (DroidNative malware matching, FlowDroid-style privacy
tracking) -> vulnerability classification -> obfuscation analysis.  Apps
whose intercepted payloads are flagged malicious are replayed under the
Table VIII environment configurations to expose trigger conditions.
"""

from __future__ import annotations

import hashlib

from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Generic, NamedTuple, Optional, Sequence, Set, TypeVar, Union

from repro.core.config import DyDroidConfig
from repro.core.report import AppAnalysis, MeasurementReport, PayloadVerdict
from repro.corpus.generator import AppRecord
from repro.dynamic.engine import AppExecutionEngine, DynamicReport, EngineOptions
from repro.dynamic.interceptor import InterceptedPayload, PayloadKind
from repro.dynamic.provenance import Entity, Provenance
from repro.ecosystems.hazards import classify_hazards
from repro.observe.events import NULL_EVENT_LOG
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import NULL_TRACER, stage
from repro.static_analysis.decompiler import DecompilationError, Decompiler
from repro.static_analysis.malware.droidnative import (
    Detection,
    DroidNative,
    trained_droidnative,
)
from repro.static_analysis.obfuscation.detector import analyze_obfuscation
from repro.static_analysis.prefilter import prefilter
from repro.static_analysis.privacy.flowdroid import analyze_dex
from repro.static_analysis.smali import SmaliProgram
from repro.static_analysis.vulnerability import classify_loads
from repro.store.verdicts import VerdictStore
from repro.runtime.stacktrace import shares_app_package
from repro.triage.tier import TriageDecision, TriageGate, full_pipeline_label

K = TypeVar("K")
V = TypeVar("V")


class LruCache(Generic[K, V]):
    """Bounded mapping with least-recently-used eviction.

    Keyed by payload digest, one entry per *distinct* intercepted binary;
    the bound keeps week-long corpus runs from growing without limit while
    still deduplicating the common SDK payloads that dominate a market.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[K, V]" = OrderedDict()

    def __contains__(self, key: K) -> bool:
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        return False

    def __getitem__(self, key: K) -> V:
        value = self._entries[key]
        self._entries.move_to_end(key)
        return value

    def __setitem__(self, key: K, value: V) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


def _droidnative(dydroid: DyDroid, payload: InterceptedPayload) -> Optional[Detection]:
    binary = payload.as_dex() or payload.as_native()
    if binary is None:
        return None
    dydroid.metrics.counter("analyzer.droidnative.invocations").inc()
    return dydroid.droidnative.detect(binary, tracer=dydroid.tracer)


def _flowdroid(dydroid: DyDroid, payload: InterceptedPayload) -> tuple:
    dex = payload.as_dex()
    if dex is None:
        return ()
    dydroid.metrics.counter("analyzer.flowdroid.invocations").inc()
    return tuple(analyze_dex(dex, tracer=dydroid.tracer))


class Analyzer(NamedTuple):
    """What differs between the static analyzers :meth:`DyDroid._resolve`
    fronts (DroidNative for malware, FlowDroid for privacy)."""

    #: names the ``cache.<kind>.*``/``store.<kind>.*`` counters, the
    #: ``<kind>_cached``/``<kind>_stored`` span attributes, the
    #: ``stage.store`` tier and the store's ``get_<kind>``/``put_<kind>``.
    kind: str
    #: the :class:`PayloadVerdict` field the verdict fills.
    field: str
    #: the :class:`DyDroidConfig` switch that enables the analyzer.
    switch: str
    #: the payload kinds it reads.
    reads: Sequence[PayloadKind]
    #: decodes the payload and runs the analyzer on it.
    compute: Callable[[DyDroid, InterceptedPayload], object]
    #: the stand-in verdict a decided tier-0 gate gives.
    stand_in: Callable[[TriageGate, TriageDecision], object]
    #: the analyzer's fields of the ``store.publish`` event.
    published: Callable[[object], Dict[str, object]]


ANALYZERS: Sequence[Analyzer] = (
    Analyzer(
        "detection", "detection", "run_malware",
        (PayloadKind.DEX, PayloadKind.NATIVE, PayloadKind.APK),
        compute=_droidnative,
        stand_in=lambda gate, decision: (
            gate.suspected_detection(decision) if decision.label == "hazard" else None
        ),
        published=lambda detection: {"malicious": detection is not None},
    ),
    Analyzer(
        "privacy", "leaks", "run_privacy", (PayloadKind.DEX, PayloadKind.APK),
        compute=_flowdroid,
        stand_in=lambda gate, decision: (),
        published=lambda leaks: {"leaks": len(leaks)},
    ),
)


class DyDroid:
    """The measurement system: analyze one app or a whole corpus."""

    def __init__(
        self,
        config: Optional[DyDroidConfig] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        verdict_store: Union[None, str, Path, VerdictStore] = None,
        events=None,
    ) -> None:
        self.config = config or DyDroidConfig()
        #: span sink; defaults to the zero-cost null tracer.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: always-on counters/histograms (cheap; only read when exported).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: structured event sink (store publishes, firewall enforcement);
        #: defaults to the zero-cost null log.
        self.events = events if events is not None else NULL_EVENT_LOG
        #: tier-2 verdict cache, shared across processes.  A path opens a
        #: store this instance owns (and closes); a ready-made instance is
        #: borrowed -- the service shares one store across worker threads.
        self._owns_store = isinstance(verdict_store, (str, Path))
        self.verdict_store: Optional[VerdictStore] = (
            VerdictStore(verdict_store, self.config)
            if self._owns_store
            else verdict_store
        )
        self.decompiler = Decompiler(strict=True)
        #: read-only and shared by every DyDroid of this configuration in
        #: the process: training is deterministic, so it runs once.
        self.droidnative = (
            trained_droidnative(
                self.config.train_samples_per_family,
                self.config.training_seed,
                self.config.droidnative_threshold,
            )
            if self.config.run_malware
            else DroidNative(threshold=self.config.droidnative_threshold)
        )
        #: per-process verdict caches, one per analyzer kind, keyed by
        #: payload digest.
        capacity = self.config.verdict_cache_capacity
        self._verdict_caches = {analyzer.kind: LruCache(capacity) for analyzer in ANALYZERS}
        #: tier-0 behavioral-fingerprint gate (None when no model is
        #: configured); consulted per payload after the LRU and the
        #: verdict-store probe both miss.
        self.triage: Optional[TriageGate] = TriageGate.from_config(self.config)

    # -- per-app analysis ------------------------------------------------------------

    def analyze_app(self, record: AppRecord) -> AppAnalysis:
        with self.tracer.span(
            "app", package=record.package, index=record.blueprint.index
        ):
            return self._analyze_app(record)

    def _analyze_app(self, record: AppRecord) -> AppAnalysis:
        analysis = AppAnalysis(
            package=record.package,
            metadata=record.metadata,
            corpus_index=record.blueprint.index,
        )
        self.metrics.counter("pipeline.apps").inc()

        # 1. unpack/decompile (apktool/baksmali stage).
        program: Optional[SmaliProgram] = None
        with stage(self.tracer, self.metrics, "decompile") as span:
            try:
                program = self.decompiler.decompile(record.apk, tracer=self.tracer)
            except DecompilationError:
                span.set(failed=True)
        if program is None:
            analysis.decompile_failed = True
            self.metrics.counter("pipeline.decompile_failed").inc()
            with stage(self.tracer, self.metrics, "obfuscation"):
                analysis.obfuscation = analyze_obfuscation(record.apk, None)
            return analysis

        # 2. prefilter: does DCL-related code exist at all?
        with stage(self.tracer, self.metrics, "prefilter") as span:
            analysis.prefilter = prefilter(program)
            span.set(
                dex=analysis.prefilter.has_dex_dcl,
                native=analysis.prefilter.has_native_dcl,
            )
        if analysis.prefilter.has_any_dcl:
            self.metrics.counter("prefilter.candidates").inc()

        # 3. dynamic analysis for candidates.
        dynamic: Optional[DynamicReport] = None
        if analysis.prefilter.has_any_dcl:
            with stage(self.tracer, self.metrics, "dynamic") as span:
                engine = AppExecutionEngine(
                    self._engine_options(record), tracer=self.tracer
                )
                dynamic = engine.run(record.apk)
                analysis.dynamic = dynamic
                span.set(
                    outcome=dynamic.outcome.value,
                    events_run=dynamic.events_run,
                    intercepted=len(dynamic.intercepted),
                )
            self._count_defense(dynamic)

        # 4. obfuscation profile (native confirmed by the dynamic output).
        with stage(self.tracer, self.metrics, "obfuscation"):
            native_confirmed = bool(dynamic and dynamic.native_loaded)
            analysis.obfuscation = analyze_obfuscation(
                record.apk,
                program,
                dynamic_native_confirmed=native_confirmed
                if analysis.prefilter.has_native_dcl
                else None,
            )

        if dynamic is None or not dynamic.intercepted_any:
            return analysis

        # 4b. tier-0 triage: score the session's behavioral fingerprint
        # once per app; the decision is consulted per payload below, after
        # the LRU and verdict-store probes miss.
        decision: Optional[TriageDecision] = None
        if self.triage is not None:
            with stage(self.tracer, self.metrics, "triage") as span:
                decision = self.triage.assess(record.package, dynamic)
                span.set(
                    probability=round(decision.probability, 4),
                    decided=decision.decided,
                    label=decision.label,
                )
            self.metrics.counter("triage.gated").inc()

        # 5. provenance/entity + static analysis of every intercepted binary.
        # Host-side facts for ecosystem hazard classification, computed
        # once per app: the manifest component table and the classes the
        # host packages in its own dex files.
        component_names = record.apk.manifest.component_names()
        host_classes = {
            cls.name for dex in record.apk.dex_files() for cls in dex.classes
        }
        with stage(
            self.tracer, self.metrics, "verdicts", n_payloads=len(dynamic.intercepted)
        ):
            analysis.payloads = [
                self._verdict_for(
                    payload, record.package, dynamic, decision,
                    component_names=component_names, host_classes=host_classes,
                )
                for payload in dynamic.intercepted
            ]
        if decision is not None:
            if not decision.decided:
                self.metrics.counter("triage.fallthrough").inc()
            elif any(p.verdict_source == "triage" for p in analysis.payloads):
                analysis.verdict_source = "triage"
                self.metrics.counter("triage.hit").inc()
            else:
                # Decided, but every payload resolved from the LRU or the
                # verdict store -- tier 1/2 results always win over tier 0.
                self.metrics.counter("triage.override").inc()

        # 6. code-injection vulnerability classification.
        with stage(self.tracer, self.metrics, "vulnerability") as span:
            analysis.vulnerabilities = classify_loads(
                package=record.package,
                manifest=record.apk.manifest,
                dex_events=dynamic.dcl.dex_events,
                native_events=dynamic.dcl.native_events,
                program=program,
            )
            span.set(findings=len(analysis.vulnerabilities))

        # 5b. online hard-example harvesting: a fall-through ran the full
        # analyzers, so its tier-1 label is free training data.
        if decision is not None and not decision.decided:
            self.triage.harvest(decision, full_pipeline_label(analysis))

        # 7. Table VIII replays for malware-flagged apps.  Triage-decided
        # apps skip replays: a synthetic "suspected" verdict must not
        # trigger tier-1 work the short-circuit exists to avoid.
        if (
            self.config.run_replays
            and analysis.verdict_source != "triage"
            and any(p.is_malicious for p in analysis.payloads)
        ):
            with stage(self.tracer, self.metrics, "replay"):
                analysis.replay_loaded = self._replay(record)
        return analysis

    def _count_defense(self, dynamic: DynamicReport) -> None:
        """Fold one session's enforcement outcomes into ``defense.*`` counters."""
        blocked = 0
        for decision in dynamic.firewall_decisions:
            self.metrics.counter("defense.loads_checked").inc()
            if decision.verdict == "deny":
                self.metrics.counter("defense.loads_denied").inc()
            elif decision.verdict == "quarantine":
                self.metrics.counter("defense.loads_quarantined").inc()
            else:
                continue
            blocked += 1
            self.metrics.counter("defense.rule." + decision.rule).inc()
        if blocked:
            self.metrics.counter("defense.apps_blocked").inc()
        if dynamic.dcl.rejected_events:
            self.metrics.counter("defense.secure_loader_rejections").inc(
                len(dynamic.dcl.rejected_events)
            )

    def _engine_options(self, record: AppRecord) -> EngineOptions:
        return EngineOptions(
            monkey_seed=self.config.monkey_seed,
            monkey_budget=self.config.monkey_budget,
            instruction_budget=self.config.instruction_budget,
            block_file_ops=self.config.block_file_ops,
            release_time_ms=record.release_time_ms,
            companions=record.companions,
            remote_resources=record.remote_resources,
            firewall_policy=self.config.firewall_policy or None,
            quarantine_dir=self.config.quarantine_dir or None,
            verdict_store=self.verdict_store,
            events=self.events,
        )

    def _verdict_for(
        self,
        payload: InterceptedPayload,
        package: str,
        dynamic: DynamicReport,
        decision: Optional[TriageDecision] = None,
        component_names: Optional[Set[str]] = None,
        host_classes: Optional[Set[str]] = None,
    ) -> PayloadVerdict:
        entity = Entity.UNKNOWN
        if payload.call_site:
            entity = (
                Entity.OWN
                if shares_app_package(payload.call_site, package)
                else Entity.THIRD_PARTY
            )
        # One reverse-reachability pass answers both provenance questions:
        # a payload is remote exactly when some URL spec flowed into it.
        sources = tuple(dynamic.tracker.remote_sources(payload.path))
        digest = hashlib.sha256(payload.data).hexdigest()
        verdict = PayloadVerdict(
            path=payload.path,
            kind=payload.kind,
            entity=entity,
            provenance=Provenance.REMOTE if sources else Provenance.LOCAL,
            remote_sources=sources,
            digest=digest,
        )
        verdict.hazards = classify_hazards(
            path=payload.path,
            data=payload.data,
            entity=entity,
            provenance=verdict.provenance,
            remote_sources=sources,
            component_names=component_names or set(),
            host_classes=host_classes or set(),
            app_package=package,
        )
        self.metrics.counter("payload.kind." + payload.kind.value).inc()
        for hazard in verdict.hazards:
            self.metrics.counter("hazard." + hazard).inc()

        with self.tracer.span(
            "payload", digest=digest[:12], kind=payload.kind.value
        ) as span:
            for analyzer in ANALYZERS:
                if getattr(self.config, analyzer.switch) and payload.kind in analyzer.reads:
                    value = self._resolve(analyzer, payload, verdict, decision, span)
                    setattr(verdict, analyzer.field, value)
            if verdict.detection is not None:
                span.set(malicious=verdict.detection.family)
        return verdict

    def _resolve(
        self, analyzer: Analyzer, payload: InterceptedPayload, verdict: PayloadVerdict,
        decision: Optional[TriageDecision], span,
    ):
        """One payload's verdict from ``analyzer``: the first tier that
        answers wins -- the per-process LRU, the cross-process verdict
        store, the tier-0 gate -- else the analyzer computes it and the
        verdict is published to the store.  LRU misses answered by the
        store or the analyzer fill the LRU; a triage stand-in is neither
        cached nor published, so a misprediction cannot outlive this app.
        """
        kind, digest = analyzer.kind, verdict.digest
        counter = self.metrics.counter
        counter("cache." + kind + ".lookups").inc()
        self.metrics.distinct("cache." + kind + ".digests").add(digest)
        cache = self._verdict_caches[kind]
        if digest in cache:
            counter("cache." + kind + ".hit").inc()
            span.set(**{kind + "_cached": True})
            return cache[digest]
        counter("cache." + kind + ".miss").inc()

        store, found = self.verdict_store, False
        if store is not None:
            with stage(self.tracer, self.metrics, "store", tier=kind):
                found, value = getattr(store, "get_" + kind)(digest)
            counter("store." + kind + (".hit" if found else ".miss")).inc()
        if found:
            span.set(**{kind + "_stored": True})
        elif decision is not None and decision.decided:
            counter("triage.analyzers_skipped").inc()
            verdict.verdict_source = "triage"
            span.set(triage=True)
            return analyzer.stand_in(self.triage, decision)
        else:
            value = analyzer.compute(self, payload)
            if store is not None:
                with stage(self.tracer, self.metrics, "store", tier=kind):
                    getattr(store, "put_" + kind)(digest, value)
                self.events.emit(
                    "store.publish", tier=kind, digest=digest[:12],
                    **analyzer.published(value),
                )
        cache[digest] = value
        return value

    def close(self) -> None:
        """Release the verdict store if this pipeline opened it from a path."""
        if self._owns_store and self.verdict_store is not None:
            self.verdict_store.close()

    def _replay(self, record: AppRecord) -> Dict[str, Set[str]]:
        """Which paths load under each Table VIII environment config."""
        engine = AppExecutionEngine(self._engine_options(record), tracer=self.tracer)
        results = engine.replay_under_configs(
            record.apk, self.config.replay_configs
        )
        return {
            name: set(report.intercepted_paths()) for name, report in results.items()
        }

    # -- corpus-level measurement ----------------------------------------------------------

    def measure(self, corpus: Sequence[AppRecord]) -> MeasurementReport:
        """Analyze every app and aggregate the paper's tables."""
        return MeasurementReport(apps=[self.analyze_app(record) for record in corpus])
