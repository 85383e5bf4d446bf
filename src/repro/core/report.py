"""Per-app analysis results and their aggregation into the paper's tables.

:class:`AppAnalysis` is everything DyDroid concluded about one app;
:class:`MeasurementReport` aggregates a corpus worth of them and exposes
one method per table/figure of the evaluation section (II-X plus Figure 3),
each with a ``render_*`` twin producing the paper-style text block.

Every per-app result is round-trippable through plain JSON data
(``to_dict``/``from_dict``), which is what the analysis farm
(:mod:`repro.farm`) ships across process boundaries and appends to its
checkpoint journal.  A deserialized app carries a :class:`DynamicDigest`
in place of the live :class:`DynamicReport`; the digest preserves exactly
what the tables consume, so a merged report renders byte-identically to
the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.corpus.metadata import AppMetadata
from repro.dynamic.engine import DynamicOutcome, DynamicReport
from repro.dynamic.interceptor import PayloadKind
from repro.dynamic.provenance import Entity, Provenance
from repro.static_analysis.malware.droidnative import Detection
from repro.static_analysis.obfuscation.detector import ObfuscationProfile
from repro.static_analysis.prefilter import PrefilterResult
from repro.static_analysis.privacy.flowdroid import PrivacyLeak
from repro.static_analysis.privacy.sources import DATA_TYPE_CATEGORY, DATA_TYPES
from repro.static_analysis.vulnerability import RiskyLoadCategory, VulnerabilityFinding

#: bump when the ``to_dict``/``from_dict`` shape changes incompatibly.
SERIALIZATION_VERSION = 1


def _plain_dict(instance) -> Dict[str, object]:
    """Shallow dataclass -> dict for types whose fields are all JSON-plain."""
    return {f.name: getattr(instance, f.name) for f in fields(instance)}


@dataclass
class DynamicDigest:
    """JSON-safe summary of a :class:`DynamicReport`.

    Keeps exactly the dynamic-analysis facts the tables consume (outcome
    bucket, whether DEX/native loads fired, session counters) without the
    live session objects (DCL event lists, flow graph, payload bytes),
    which makes a deserialized :class:`AppAnalysis` aggregate identically
    to one fresh out of the pipeline.
    """

    outcome: DynamicOutcome
    environment: str = ""
    rewritten: bool = False
    events_run: int = 0
    crash_reason: Optional[str] = None
    dex_loaded: bool = False
    native_loaded: bool = False
    storage_cleanups: int = 0
    methods_total: int = 0
    methods_executed: int = 0
    #: enforcement policy in effect ("" = firewall off) and the firewall's
    #: per-load audit trail, as plain dicts (see
    #: :class:`repro.defense.firewall.FirewallDecision`).
    firewall_policy: str = ""
    firewall_decisions: List[Dict[str, str]] = field(default_factory=list)
    loads_denied: int = 0
    loads_quarantined: int = 0
    #: developer-side secure-loader refusals observed during the session.
    loads_rejected: int = 0

    @classmethod
    def from_report(cls, report: "DynamicLike") -> "DynamicDigest":
        if isinstance(report, cls):
            return report
        return cls(
            outcome=report.outcome,
            environment=report.environment,
            rewritten=report.rewritten,
            events_run=report.events_run,
            crash_reason=report.crash_reason,
            dex_loaded=report.dex_loaded,
            native_loaded=report.native_loaded,
            storage_cleanups=report.storage_cleanups,
            methods_total=report.methods_total,
            methods_executed=report.methods_executed,
            firewall_policy=report.firewall_policy,
            firewall_decisions=[d.to_dict() for d in report.firewall_decisions],
            loads_denied=report.loads_denied,
            loads_quarantined=report.loads_quarantined,
            loads_rejected=len(report.dcl.rejected_events),
        )

    def to_dict(self) -> Dict[str, object]:
        data = _plain_dict(self)
        data["outcome"] = self.outcome.value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DynamicDigest":
        data = dict(data)
        data["outcome"] = DynamicOutcome(data["outcome"])
        # records predating the defense subsystem lack these fields.
        data.setdefault("firewall_policy", "")
        data.setdefault("firewall_decisions", [])
        data.setdefault("loads_denied", 0)
        data.setdefault("loads_quarantined", 0)
        data.setdefault("loads_rejected", 0)
        return cls(**data)


#: what :attr:`AppAnalysis.dynamic` may hold: the live session report from
#: the pipeline, or its digest after a serialization round trip.
DynamicLike = Union[DynamicReport, DynamicDigest]


def _detection_to_dict(detection: Detection) -> Dict[str, object]:
    return _plain_dict(detection)


def _detection_from_dict(data: Dict[str, object]) -> Detection:
    return Detection(**data)


def _leak_from_dict(data: Dict[str, object]) -> PrivacyLeak:
    return PrivacyLeak(**data)


def _finding_to_dict(finding: VulnerabilityFinding) -> Dict[str, object]:
    data = _plain_dict(finding)
    data["category"] = finding.category.value
    return data


def _finding_from_dict(data: Dict[str, object]) -> VulnerabilityFinding:
    data = dict(data)
    data["category"] = RiskyLoadCategory(data["category"])
    return VulnerabilityFinding(**data)


def _prefilter_from_dict(data: Dict[str, object]) -> PrefilterResult:
    return PrefilterResult(**data)


@dataclass
class PayloadVerdict:
    """Static-analysis outcome for one intercepted binary."""

    path: str
    kind: PayloadKind
    entity: Entity
    provenance: Provenance
    remote_sources: Tuple[str, ...] = ()
    detection: Optional[Detection] = None
    leaks: Tuple[PrivacyLeak, ...] = ()
    #: sha256 of the payload bytes; the cross-version identity the
    #: evolution differ tracks (empty on records predating this field).
    digest: str = ""
    #: ecosystem hazard classes this payload triggered (see
    #: :mod:`repro.ecosystems.hazards`); empty for classic-landscape loads
    #: and on records predating the scenario pack.
    hazards: Tuple[str, ...] = ()
    #: who produced the analysis verdict: "full" = tier-1 analyzers (or
    #: the caches/store fed by them), "triage" = the tier-0 gate
    #: short-circuited them (:mod:`repro.triage`).
    verdict_source: str = "full"

    @property
    def is_malicious(self) -> bool:
        return self.detection is not None

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "kind": self.kind.value,
            "entity": self.entity.value,
            "provenance": self.provenance.value,
            "remote_sources": list(self.remote_sources),
            "detection": _detection_to_dict(self.detection) if self.detection else None,
            "leaks": [_plain_dict(leak) for leak in self.leaks],
            "digest": self.digest,
            "hazards": list(self.hazards),
            "verdict_source": self.verdict_source,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PayloadVerdict":
        return cls(
            path=data["path"],
            kind=PayloadKind(data["kind"]),
            entity=Entity(data["entity"]),
            provenance=Provenance(data["provenance"]),
            remote_sources=tuple(data["remote_sources"]),
            detection=_detection_from_dict(data["detection"]) if data["detection"] else None,
            leaks=tuple(_leak_from_dict(leak) for leak in data["leaks"]),
            digest=data.get("digest", ""),
            hazards=tuple(data.get("hazards", ())),
            verdict_source=data.get("verdict_source", "full"),
        )


@dataclass
class AppAnalysis:
    """Everything DyDroid concluded about one app."""

    package: str
    metadata: AppMetadata
    decompile_failed: bool = False
    prefilter: Optional[PrefilterResult] = None
    obfuscation: Optional[ObfuscationProfile] = None
    dynamic: Optional[DynamicLike] = None
    payloads: List[PayloadVerdict] = field(default_factory=list)
    vulnerabilities: List[VulnerabilityFinding] = field(default_factory=list)
    #: Table VIII: environment name -> malicious paths loaded in that replay.
    replay_loaded: Dict[str, Set[str]] = field(default_factory=dict)
    #: position in the generated corpus; the farm's merge key.  -1 for
    #: analyses built outside a corpus run (hand-made, unit tests).
    corpus_index: int = -1
    #: "triage" when the tier-0 gate short-circuited at least one payload
    #: verdict for this app, else "full"; keeps cheap predictions from
    #: being conflated with analyzer results anywhere downstream.
    verdict_source: str = "full"

    # -- derived views -----------------------------------------------------------

    @property
    def version_code(self) -> int:
        return self.metadata.version_code

    @property
    def has_dex_dcl_code(self) -> bool:
        return bool(self.prefilter and self.prefilter.has_dex_dcl)

    @property
    def has_native_dcl_code(self) -> bool:
        return bool(self.prefilter and self.prefilter.has_native_dcl)

    @property
    def outcome(self) -> Optional[DynamicOutcome]:
        return self.dynamic.outcome if self.dynamic else None

    @property
    def exercised(self) -> bool:
        return self.outcome is DynamicOutcome.EXERCISED

    @property
    def dex_intercepted(self) -> bool:
        return self.exercised and bool(self.dynamic and self.dynamic.dex_loaded)

    @property
    def native_intercepted(self) -> bool:
        return self.exercised and bool(self.dynamic and self.dynamic.native_loaded)

    def dex_entities(self) -> Set[Entity]:
        return {
            p.entity
            for p in self.payloads
            if p.kind
            in (PayloadKind.DEX, PayloadKind.ENCRYPTED, PayloadKind.APK, PayloadKind.UNKNOWN)
            and p.entity is not Entity.UNKNOWN
        }

    def native_entities(self) -> Set[Entity]:
        return {
            p.entity
            for p in self.payloads
            if p.kind is PayloadKind.NATIVE and p.entity is not Entity.UNKNOWN
        }

    def remote_payloads(self) -> List[PayloadVerdict]:
        return [p for p in self.payloads if p.provenance is Provenance.REMOTE]

    def malicious_payloads(self) -> List[PayloadVerdict]:
        return [p for p in self.payloads if p.is_malicious]

    def leaked_types(self) -> Dict[str, Set[Entity]]:
        """data type -> entities of the payloads leaking it."""
        result: Dict[str, Set[Entity]] = {}
        for payload in self.payloads:
            for leak in payload.leaks:
                result.setdefault(leak.data_type, set()).add(payload.entity)
        return result

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-plain form preserving everything the tables consume."""
        return {
            "package": self.package,
            "corpus_index": self.corpus_index,
            "metadata": _plain_dict(self.metadata),
            "decompile_failed": self.decompile_failed,
            "prefilter": _plain_dict(self.prefilter) if self.prefilter else None,
            "obfuscation": _plain_dict(self.obfuscation) if self.obfuscation else None,
            "dynamic": DynamicDigest.from_report(self.dynamic).to_dict()
            if self.dynamic
            else None,
            "payloads": [payload.to_dict() for payload in self.payloads],
            "vulnerabilities": [_finding_to_dict(f) for f in self.vulnerabilities],
            "replay_loaded": {
                config: sorted(paths) for config, paths in self.replay_loaded.items()
            },
            "verdict_source": self.verdict_source,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AppAnalysis":
        return cls(
            package=data["package"],
            corpus_index=data.get("corpus_index", -1),
            metadata=AppMetadata(**data["metadata"]),
            decompile_failed=data["decompile_failed"],
            prefilter=_prefilter_from_dict(data["prefilter"]) if data["prefilter"] else None,
            obfuscation=ObfuscationProfile(**data["obfuscation"])
            if data["obfuscation"]
            else None,
            dynamic=DynamicDigest.from_dict(data["dynamic"]) if data["dynamic"] else None,
            payloads=[PayloadVerdict.from_dict(p) for p in data["payloads"]],
            vulnerabilities=[_finding_from_dict(f) for f in data["vulnerabilities"]],
            replay_loaded={
                config: set(paths) for config, paths in data["replay_loaded"].items()
            },
            verdict_source=data.get("verdict_source", "full"),
        )


def _pct(count: int, total: int) -> str:
    return "{:.2%}".format(count / total) if total else "n/a"


def _decision_fields(decision) -> Tuple[str, str]:
    """(verdict, rule) from a live FirewallDecision or its digest dict."""
    if isinstance(decision, dict):
        return str(decision.get("verdict", "")), str(decision.get("rule", ""))
    return decision.verdict, decision.rule


@dataclass
class MeasurementReport:
    """Aggregation over a measured corpus: every table, one method each."""

    apps: List[AppAnalysis]

    # -- merging -----------------------------------------------------------------

    @classmethod
    def merge(cls, reports: Iterable["MeasurementReport"]) -> "MeasurementReport":
        """Combine partial reports into one.

        Apps are ordered by corpus index (ties broken by package), so the
        merge of any shard partition equals the serial run regardless of
        shard order -- the farm's determinism guarantee.
        """
        apps = [app for report in reports for app in report.apps]
        apps.sort(key=lambda app: (app.corpus_index, app.package))
        return cls(apps=apps)

    # -- corpus-level counts ------------------------------------------------------

    @property
    def n_total(self) -> int:
        return len(self.apps)

    def dex_candidates(self) -> List[AppAnalysis]:
        return [a for a in self.apps if a.has_dex_dcl_code]

    def native_candidates(self) -> List[AppAnalysis]:
        return [a for a in self.apps if a.has_native_dcl_code]

    # -- Table II: dynamic analysis summary -------------------------------------------

    def dynamic_summary(self) -> Dict[str, Dict[str, int]]:
        summary: Dict[str, Dict[str, int]] = {}
        for side, candidates in (
            ("dex", self.dex_candidates()),
            ("native", self.native_candidates()),
        ):
            rewriting = sum(
                1 for a in candidates if a.outcome is DynamicOutcome.REWRITING_FAILURE
            )
            no_activity = sum(
                1 for a in candidates if a.outcome is DynamicOutcome.NO_ACTIVITY
            )
            crash = sum(1 for a in candidates if a.outcome is DynamicOutcome.CRASH)
            exercised = sum(1 for a in candidates if a.exercised)
            intercepted = sum(
                1
                for a in candidates
                if (a.dex_intercepted if side == "dex" else a.native_intercepted)
            )
            summary[side] = {
                "candidates": len(candidates),
                "failure": rewriting + no_activity + crash,
                "rewriting_failure": rewriting,
                "no_activity": no_activity,
                "crash": crash,
                "exercised": exercised,
                "intercepted": intercepted,
            }
        return summary

    def render_dynamic_summary(self) -> str:
        summary = self.dynamic_summary()
        lines = [
            "TABLE II: dynamic analysis summary out of {} apps for bytecode and {} apps for native code".format(
                summary["dex"]["candidates"], summary["native"]["candidates"]
            ),
            "{:<22}{:>18}{:>18}".format("", "DEX", "Native"),
        ]
        for label, key in (
            ("Failure", "failure"),
            ("Rewriting failure", "rewriting_failure"),
            ("No activity", "no_activity"),
            ("Crash", "crash"),
            ("Exercised", "exercised"),
            ("Intercepted", "intercepted"),
        ):
            row = "{:<22}".format(label)
            for side in ("dex", "native"):
                count = summary[side][key]
                row += "{:>18}".format(
                    "{} ({})".format(count, _pct(count, summary[side]["candidates"]))
                )
            lines.append(row)
        return "\n".join(lines)

    # -- Table III: popularity ------------------------------------------------------------

    def popularity(self) -> Dict[str, Dict[str, float]]:
        def stats(group: Sequence[AppAnalysis]) -> Dict[str, float]:
            if not group:
                return {"downloads": 0.0, "n_ratings": 0.0, "rating": 0.0}
            return {
                "downloads": sum(a.metadata.downloads for a in group) / len(group),
                "n_ratings": sum(a.metadata.n_ratings for a in group) / len(group),
                "rating": sum(a.metadata.avg_rating for a in group) / len(group),
            }

        dex = [a for a in self.apps if a.has_dex_dcl_code]
        no_dex = [a for a in self.apps if not a.has_dex_dcl_code]
        native = [a for a in self.apps if a.has_native_dcl_code]
        no_native = [a for a in self.apps if not a.has_native_dcl_code]
        return {
            "DEX": stats(dex),
            "Without DEX": stats(no_dex),
            "Native": stats(native),
            "Without Native": stats(no_native),
        }

    def render_popularity(self) -> str:
        table = self.popularity()
        lines = [
            "TABLE III: DCL vs application popularity based on {} applications".format(self.n_total),
            "{:<16}{:>14}{:>12}{:>9}".format("", "#Downloads", "#Ratings", "Rating"),
        ]
        for group in ("DEX", "Without DEX", "Native", "Without Native"):
            stats = table[group]
            lines.append(
                "{:<16}{:>14,.0f}{:>12,.0f}{:>9.2f}".format(
                    group, stats["downloads"], stats["n_ratings"], stats["rating"]
                )
            )
        return "\n".join(lines)

    # -- Table IV: responsible entity ----------------------------------------------------------

    def entity_table(self) -> Dict[str, Dict[str, int]]:
        result = {}
        for side in ("dex", "native"):
            apps = [
                a
                for a in self.apps
                if (a.dex_intercepted if side == "dex" else a.native_intercepted)
            ]
            entity_sets = [
                (a.dex_entities() if side == "dex" else a.native_entities()) for a in apps
            ]
            both = sum(1 for s in entity_sets if Entity.OWN in s and Entity.THIRD_PARTY in s)
            third = sum(1 for s in entity_sets if Entity.THIRD_PARTY in s)
            own = sum(1 for s in entity_sets if Entity.OWN in s)
            result[side] = {
                "apps": len(apps),
                "third": third,
                "own": own,
                "both": both,
            }
        return result

    def render_entity_table(self) -> str:
        table = self.entity_table()
        lines = [
            "TABLE IV: responsible entity of DCL out of {} apps for bytecode and {} apps for native code".format(
                table["dex"]["apps"], table["native"]["apps"]
            ),
            "{:<10}{:>22}{:>18}{:>24}".format("", "3rd-party (#Apps)", "Own (#Apps)", "3rd-party & Own (#Apps)"),
        ]
        for side, label in (("dex", "DEX"), ("native", "Native")):
            row = table[side]
            total = row["apps"]
            lines.append(
                "{:<10}{:>22}{:>18}{:>24}".format(
                    label,
                    "{} ({})".format(row["third"], _pct(row["third"], total)),
                    "{} ({})".format(row["own"], _pct(row["own"], total)),
                    "{} ({})".format(row["both"], _pct(row["both"], total)),
                )
            )
        return "\n".join(lines)

    # -- Table V: remote fetch ---------------------------------------------------------------------

    def remote_fetch_apps(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """(package, remote source URLs) for apps executing remote code."""
        rows = []
        for app in self.apps:
            remote = app.remote_payloads()
            if remote:
                urls: List[str] = []
                for payload in remote:
                    urls.extend(payload.remote_sources)
                rows.append((app.package, tuple(sorted(set(urls)))))
        return sorted(rows)

    def render_remote_fetch(self) -> str:
        rows = self.remote_fetch_apps()
        lines = ["TABLE V: {} apps executing binaries downloaded from remote servers".format(len(rows))]
        for package, urls in rows:
            lines.append("  {}  <- {}".format(package, ", ".join(urls)))
        return "\n".join(lines)

    # -- Table VI: obfuscation ------------------------------------------------------------------------

    def obfuscation_table(self) -> Dict[str, int]:
        counts = {
            "Lexical": 0,
            "Reflection": 0,
            "Native": 0,
            "DEX encryption": 0,
            "Anti-decompilation": 0,
        }
        for app in self.apps:
            profile = app.obfuscation
            if profile is None:
                continue
            counts["Lexical"] += profile.lexical
            counts["Reflection"] += profile.reflection
            counts["Native"] += profile.native
            counts["DEX encryption"] += profile.dex_encryption
            counts["Anti-decompilation"] += profile.anti_decompilation
        return counts

    def render_obfuscation_table(self) -> str:
        counts = self.obfuscation_table()
        lines = [
            "TABLE VI: #apps using obfuscation techniques out of {} applications".format(self.n_total),
            "{:<22}{:>16}".format("Technique", "#Apps (%)"),
        ]
        for technique, count in counts.items():
            lines.append(
                "{:<22}{:>16}".format(technique, "{} ({})".format(count, _pct(count, self.n_total)))
            )
        return "\n".join(lines)

    # -- Figure 3: DEX encryption by category ----------------------------------------------------------

    def dex_encryption_by_category(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for app in self.apps:
            if app.obfuscation and app.obfuscation.dex_encryption:
                counts[app.metadata.category] = counts.get(app.metadata.category, 0) + 1
        return dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))

    def packer_vendors(self) -> Dict[str, int]:
        """Hardening-vendor attribution for the DEX-encryption apps."""
        counts: Dict[str, int] = {}
        for app in self.apps:
            profile = app.obfuscation
            if profile and profile.dex_encryption and profile.packer_vendor:
                counts[profile.packer_vendor] = counts.get(profile.packer_vendor, 0) + 1
        return dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))

    def render_fig3(self) -> str:
        counts = self.dex_encryption_by_category()
        lines = ["FIGURE 3: #apps with DEX encryption vs application category"]
        for category, count in counts.items():
            lines.append("  {:<20}{:>4} {}".format(category, count, "#" * count))
        return "\n".join(lines)

    # -- Table VII: malware -----------------------------------------------------------------------------

    def malware_table(self) -> Dict[str, Dict[str, object]]:
        rows: Dict[str, Dict[str, object]] = {}
        for app in self.apps:
            for payload in app.malicious_payloads():
                family = payload.detection.family
                row = rows.setdefault(
                    family,
                    {"apps": set(), "files": 0, "kind": payload.kind.value, "sample": None},
                )
                row["apps"].add(app.package)
                row["files"] += 1
                best = row["sample"]
                if best is None or app.metadata.downloads > best[1]:
                    row["sample"] = (app.package, app.metadata.downloads)
        return {
            family: {
                "n_apps": len(row["apps"]),
                "n_files": row["files"],
                "kind": row["kind"],
                "sample_app": row["sample"][0] if row["sample"] else "",
                "sample_downloads": row["sample"][1] if row["sample"] else 0,
            }
            for family, row in rows.items()
        }

    def render_malware_table(self) -> str:
        table = self.malware_table()
        total_apps = len(
            {app.package for app in self.apps if app.malicious_payloads()}
        )
        total_files = sum(row["n_files"] for row in table.values())
        lines = [
            "TABLE VII: malware detected in DCL ({} apps, {} files)".format(total_apps, total_files),
            "{:<10}{:<28}{:>7}  {}".format("", "Family", "#Apps", "Sample App (#Downloads)"),
        ]
        for family, row in sorted(table.items()):
            lines.append(
                "{:<10}{:<28}{:>7}  {} ({:,})".format(
                    "DEX" if row["kind"] == "dex" else "Native",
                    family,
                    row["n_apps"],
                    row["sample_app"],
                    row["sample_downloads"],
                )
            )
        return "\n".join(lines)

    # -- Table VIII: runtime configurations ------------------------------------------------------------------

    def malicious_file_count(self) -> int:
        return sum(len(app.malicious_payloads()) for app in self.apps)

    def runtime_config_table(self) -> Dict[str, Dict[str, int]]:
        """config name -> {loaded, total} over all malicious files."""
        totals: Dict[str, Dict[str, int]] = {}
        for app in self.apps:
            malicious = {p.path for p in app.malicious_payloads()}
            if not malicious:
                continue
            for config, loaded_paths in app.replay_loaded.items():
                bucket = totals.setdefault(config, {"loaded": 0, "total": 0})
                bucket["total"] += len(malicious)
                bucket["loaded"] += len(malicious & loaded_paths)
        return totals

    def render_runtime_config_table(self) -> str:
        table = self.runtime_config_table()
        lines = [
            "TABLE VIII: malicious code loaded in various configurations over {} files".format(
                self.malicious_file_count()
            ),
            "{:<34}{:>26}".format("Configuration", "#Files intercepted (%)"),
        ]
        for config, bucket in sorted(table.items()):
            lines.append(
                "{:<34}{:>26}".format(
                    config,
                    "{} ({})".format(bucket["loaded"], _pct(bucket["loaded"], bucket["total"])),
                )
            )
        return "\n".join(lines)

    # -- Table IX: vulnerabilities ----------------------------------------------------------------------------

    def vulnerability_table(self) -> Dict[Tuple[str, str], List[Tuple[str, int]]]:
        """(code kind, category) -> [(package, downloads)]."""
        rows: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
        for app in self.apps:
            for finding in app.vulnerabilities:
                key = (finding.code_kind, finding.category.value)
                rows.setdefault(key, []).append((app.package, app.metadata.downloads))
        return {key: sorted(set(value), key=lambda r: -r[1]) for key, value in rows.items()}

    def render_vulnerability_table(self) -> str:
        table = self.vulnerability_table()
        n_apps = len({pkg for rows in table.values() for pkg, _ in rows})
        lines = ["TABLE IX: {} vulnerable applications detected".format(n_apps)]
        for (kind, category), rows in sorted(table.items()):
            lines.append("  {} / {}: {} apps".format(kind.upper(), category, len(rows)))
            for package, downloads in rows:
                lines.append("    {} ({:,})".format(package, downloads))
        return "\n".join(lines)

    # -- Table X: privacy ----------------------------------------------------------------------------------------

    def privacy_table(self) -> Dict[str, Dict[str, object]]:
        """data type -> {category, n_apps, exclusively_third, pct}."""
        table: Dict[str, Dict[str, object]] = {}
        for data_type in DATA_TYPES:
            apps_with = 0
            exclusively_third = 0
            for app in self.apps:
                entities = app.leaked_types().get(data_type)
                if not entities:
                    continue
                apps_with += 1
                if entities == {Entity.THIRD_PARTY}:
                    exclusively_third += 1
            if apps_with:
                table[data_type] = {
                    "category": DATA_TYPE_CATEGORY.get(data_type, "?"),
                    "n_apps": apps_with,
                    "exclusively_third": exclusively_third,
                }
        return table

    def render_privacy_table(self) -> str:
        table = self.privacy_table()
        n_base = sum(1 for a in self.apps if a.dex_intercepted)
        lines = [
            "TABLE X: privacy tracking in dynamically loaded code based on {} applications".format(n_base),
            "{:<24}{:>6}{:>9}{:>28}".format("Data type", "Categ", "#Apps", "Exclusively 3rd-party (%)"),
        ]
        for data_type, row in table.items():
            lines.append(
                "{:<24}{:>6}{:>9}{:>28}".format(
                    data_type,
                    row["category"],
                    row["n_apps"],
                    "{} ({})".format(
                        row["exclusively_third"], _pct(row["exclusively_third"], row["n_apps"])
                    ),
                )
            )
        return "\n".join(lines)

    # -- defense: firewall enforcement outcomes --------------------------------------------------------------------

    def defense_table(self) -> Dict[str, object]:
        """Enforcement outcomes carried on the per-app dynamic results.

        Aggregates identically from live :class:`DynamicReport` objects and
        deserialized :class:`DynamicDigest` records, so defended farm runs
        merge to the same numbers as a defended serial run.
        """
        policies: Set[str] = set()
        denied = quarantined = rejected = apps_blocked = 0
        by_rule: Dict[str, int] = {}
        for app in self.apps:
            dynamic = app.dynamic
            if dynamic is None:
                continue
            if dynamic.firewall_policy:
                policies.add(dynamic.firewall_policy)
            blocked_here = 0
            for decision in dynamic.firewall_decisions:
                verdict, rule = _decision_fields(decision)
                if verdict == "deny":
                    denied += 1
                elif verdict == "quarantine":
                    quarantined += 1
                else:
                    continue
                blocked_here += 1
                by_rule[rule] = by_rule.get(rule, 0) + 1
            if blocked_here:
                apps_blocked += 1
            rejected += dynamic.loads_rejected
        return {
            "policies": sorted(policies),
            "apps_blocked": apps_blocked,
            "loads_denied": denied,
            "loads_quarantined": quarantined,
            "secure_loader_rejections": rejected,
            "by_rule": dict(sorted(by_rule.items())),
        }

    def render_defense_table(self) -> str:
        table = self.defense_table()
        lines = [
            "DEFENSE: DCL firewall enforcement under policy [{}] over {} applications".format(
                ", ".join(table["policies"]) or "off", self.n_total
            ),
            "{:<28}{:>10}".format("Apps with blocked loads", "{} ({})".format(
                table["apps_blocked"], _pct(table["apps_blocked"], self.n_total)
            )),
            "{:<28}{:>10}".format("Loads denied", table["loads_denied"]),
            "{:<28}{:>10}".format("Loads quarantined", table["loads_quarantined"]),
            "{:<28}{:>10}".format("Secure-loader rejections", table["secure_loader_rejections"]),
        ]
        for rule, count in table["by_rule"].items():
            lines.append("  rule {:<22}{:>10}".format(rule, count))
        return "\n".join(lines)

    # -- triage: tier-0 verdict provenance -------------------------------------------------------------------------

    def triage_table(self) -> Dict[str, object]:
        """Which verdicts came from the tier-0 gate vs the full analyzers.

        Counts apps and payloads by ``verdict_source`` so a triage
        short-circuit is never silently conflated with an analyzer
        verdict; ``suspected`` counts the synthetic ``triage.suspected``
        detections among the triage-sourced apps.
        """
        payload_apps = triaged_apps = suspected = 0
        triaged_payloads = full_payloads = 0
        for app in self.apps:
            if not app.payloads:
                continue
            payload_apps += 1
            if app.verdict_source == "triage":
                triaged_apps += 1
            for payload in app.payloads:
                if payload.verdict_source == "triage":
                    triaged_payloads += 1
                    if payload.detection is not None:
                        suspected += 1
                else:
                    full_payloads += 1
        return {
            "payload_apps": payload_apps,
            "triaged_apps": triaged_apps,
            "full_apps": payload_apps - triaged_apps,
            "triaged_payloads": triaged_payloads,
            "full_payloads": full_payloads,
            "suspected_detections": suspected,
        }

    def render_triage_table(self) -> str:
        table = self.triage_table()
        lines = [
            "TRIAGE: tier-0 verdict provenance over {} applications with payloads".format(
                table["payload_apps"]
            ),
            "{:<30}{:>12}".format(
                "Apps short-circuited",
                "{} ({})".format(
                    table["triaged_apps"],
                    _pct(table["triaged_apps"], table["payload_apps"]),
                ),
            ),
            "{:<30}{:>12}".format("Apps fully analyzed", table["full_apps"]),
            "{:<30}{:>12}".format("Payload verdicts from triage", table["triaged_payloads"]),
            "{:<30}{:>12}".format("Payload verdicts from tier 1", table["full_payloads"]),
            "{:<30}{:>12}".format("Suspected-hazard verdicts", table["suspected_detections"]),
        ]
        return "\n".join(lines)

    # -- Table 11: modern DCL ecosystems --------------------------------------------------------------------------------

    def ecosystems_table(self) -> Dict[str, object]:
        """Hazard-class coverage of the modern-DCL ecosystem scenario pack.

        One row per hazard class (apps triggering it, payloads carrying
        it); zero rows on classic-landscape corpora, so the table -- like
        the defense and triage extras -- only renders when it has data.
        """
        from repro.ecosystems.hazards import ALL_HAZARD_CLASSES

        by_class: Dict[str, Dict[str, object]] = {}
        hazard_apps: Set[str] = set()
        for app in self.apps:
            app_classes: Set[str] = set()
            for payload in app.payloads:
                for hazard in payload.hazards:
                    row = by_class.setdefault(hazard, {"apps": set(), "payloads": 0})
                    row["apps"].add(app.package)
                    row["payloads"] += 1
                    app_classes.add(hazard)
            if app_classes:
                hazard_apps.add(app.package)
        return {
            "hazard_apps": len(hazard_apps),
            "classes": {
                hazard: {
                    "n_apps": len(by_class[hazard]["apps"]),
                    "n_payloads": by_class[hazard]["payloads"],
                }
                for hazard in ALL_HAZARD_CLASSES
                if hazard in by_class
            },
        }

    def render_ecosystems_table(self) -> str:
        table = self.ecosystems_table()
        lines = [
            "TABLE 11: modern DCL ecosystem hazards in {} of {} applications".format(
                table["hazard_apps"], self.n_total
            ),
            "{:<24}{:>9}{:>12}".format("Hazard class", "#Apps", "#Payloads"),
        ]
        for hazard, row in table["classes"].items():
            lines.append(
                "{:<24}{:>9}{:>12}".format(hazard, row["n_apps"], row["n_payloads"])
            )
        return "\n".join(lines)

    # -- machine-readable export -------------------------------------------------------------------------------------

    def to_dict(self, include_apps: bool = False) -> Dict[str, object]:
        """Every table as plain data, for JSON export / downstream tooling.

        With ``include_apps`` the document additionally carries the full
        per-app serialization under ``"apps"``; such a document restores
        through :meth:`from_dict`.
        """
        vulnerability = {
            "{}/{}".format(kind, category): rows
            for (kind, category), rows in self.vulnerability_table().items()
        }
        data = {}
        if include_apps:
            data["serialization_version"] = SERIALIZATION_VERSION
            data["apps"] = [app.to_dict() for app in self.apps]
        data.update(self._tables_dict(vulnerability))
        return data

    def _tables_dict(self, vulnerability: Dict[str, object]) -> Dict[str, object]:
        return {
            "n_total": self.n_total,
            "table2_dynamic_summary": self.dynamic_summary(),
            "table3_popularity": self.popularity(),
            "table4_entity": self.entity_table(),
            "table5_remote_fetch": [
                {"package": package, "urls": list(urls)}
                for package, urls in self.remote_fetch_apps()
            ],
            "table6_obfuscation": self.obfuscation_table(),
            "fig3_dex_encryption_by_category": self.dex_encryption_by_category(),
            "table7_malware": self.malware_table(),
            "table8_runtime_configs": self.runtime_config_table(),
            "table9_vulnerabilities": vulnerability,
            "table10_privacy": self.privacy_table(),
            "defense_enforcement": self.defense_table(),
            "triage_provenance": self.triage_table(),
            "table11_ecosystems": self.ecosystems_table(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MeasurementReport":
        """Restore a report serialized via ``to_dict(include_apps=True)``."""
        if "apps" not in data:
            raise ValueError(
                "not a full report document (serialize with include_apps=True)"
            )
        version = data.get("serialization_version", SERIALIZATION_VERSION)
        if version != SERIALIZATION_VERSION:
            raise ValueError(
                "unsupported report serialization version {}".format(version)
            )
        return cls(apps=[AppAnalysis.from_dict(app) for app in data["apps"]])

    def to_json(self, indent: int = 1, include_apps: bool = False) -> str:
        import json

        return json.dumps(
            self.to_dict(include_apps=include_apps), indent=indent, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "MeasurementReport":
        import json

        return cls.from_dict(json.loads(text))

    # -- everything --------------------------------------------------------------------------------------------------

    def render_all(self) -> str:
        blocks = [
            self.render_dynamic_summary(),
            self.render_popularity(),
            self.render_entity_table(),
            self.render_remote_fetch(),
            self.render_obfuscation_table(),
            self.render_fig3(),
            self.render_malware_table(),
            self.render_runtime_config_table(),
            self.render_vulnerability_table(),
            self.render_privacy_table(),
        ]
        # Only defended runs grow the extra block, keeping undefended
        # output byte-identical to the pre-firewall pipeline.
        if self.defense_table()["policies"]:
            blocks.append(self.render_defense_table())
        # Same for triage: only runs with tier-0 short-circuits grow it.
        if self.triage_table()["triaged_apps"]:
            blocks.append(self.render_triage_table())
        # And for the ecosystem scenario pack: classic corpora trigger no
        # ecosystem hazard classes and keep their original output.
        if self.ecosystems_table()["classes"]:
            blocks.append(self.render_ecosystems_table())
        return "\n\n".join(blocks)
