"""Blueprint sampling and APK assembly for the synthetic market.

``generate_corpus(n_apps, seed)`` is the library's stand-in for the paper's
58,739-app Google Play crawl.  Generation is two-phase:

1. **blueprints** -- per-app feature vectors sampled from the calibrated
   :class:`CorpusProfile` (DCL code presence, runtime reachability, entity
   mix, obfuscation, popularity), with the paper's *rare* populations
   (remote-fetch apps, malware carriers, packed apps, vulnerable apps,
   per-type privacy trackers) planted deterministically so every table has
   content at any scale;
2. **assembly** -- each blueprint becomes a real installable :class:`Apk`
   with bytecode emitted by :mod:`repro.corpus.behaviors` /
   :mod:`repro.corpus.sdks`, plus its runtime environment (remote
   resources to host, companion apps to pre-install).

Each :class:`AppRecord` keeps its blueprint as ground truth so tests can
score the analyses against what was actually generated.

Blueprint sampling is a pure function of (profile, seed, n_apps), so a
process samples each table once: :meth:`CorpusGenerator.sample_blueprints`
answers from a bounded process-wide memo with a read-only table.
"""

from __future__ import annotations

import copy
import random
from dataclasses import FrozenInstanceError, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.android.apk import Apk
from repro.android.builders import (
    MethodBuilder,
    build_secondary_dex,
    build_split_apk,
    class_builder,
)
from repro.android.dex import DexClass, DexFile
from repro.android.manifest import (
    INTERNET,
    WRITE_EXTERNAL_STORAGE,
    AndroidManifest,
    Component,
    ComponentKind,
)
from repro.android.nativelib import (
    INTRINSIC_DECRYPT_AND_LOAD,
    NativeBlock,
    NativeFunction,
    NativeInsn,
    NativeLibrary,
    NativeOp,
)
from repro.corpus import behaviors, names, sdks
from repro.corpus.behaviors import CTX, BehaviorContext, EnvGates
from repro.corpus.metadata import CATEGORIES, AppMetadata, sample_metadata
from repro.corpus.profiles import FIG3_CATEGORY_WEIGHTS, CorpusProfile
from repro.memo import BuildOnce
from repro.runtime.device import DEFAULT_TIME_MS
from repro.static_analysis.malware import families

#: packer vendor container namespaces (Bangcle/Ijiami/360/Alibaba-style).
PACKER_CONTAINERS = (
    "com.secneo.guard.StubApplication",
    "com.bangcle.protect.ApplicationWrapper",
    "com.qihoo.util.StubApp",
    "com.ali.mobisecenhance.StubApplication",
)

MALWARE_SDK_PACKAGE = "com.pushmob.plugin"
CHATHOOK_SDK_PACKAGE = "com.hookassist.core"

#: blueprints the process-wide table memo keeps, summed over its tables
#: (about 1.85 KB each): room for a 5,000-app market beside smaller ones.
TABLE_MEMO_BLUEPRINTS = 10_000


class CorpusTooSmallError(ValueError):
    """The requested corpus has fewer apps than its planted roles need."""


def check_corpus_size(n_apps: int, profile: Optional[CorpusProfile] = None) -> None:
    """Raise :class:`CorpusTooSmallError` unless an ``n_apps`` market can
    hold one distinct app per planted role (without sampling it)."""
    needed = (profile or CorpusProfile()).planted_apps(n_apps)
    if n_apps < needed:
        raise CorpusTooSmallError(
            "a corpus of {} apps is too small: its planted roles need {} "
            "distinct apps".format(n_apps, needed)
        )


@dataclass
class AppBlueprint:
    """Ground-truth feature vector for one generated app."""

    index: int
    package: str
    category: str
    # obfuscation
    lexical_obfuscated: bool = False
    reflection: bool = False
    anti_decompilation: bool = False
    is_packed: bool = False
    packer_container: Optional[str] = None
    # DCL code presence and runtime reachability
    has_dex_dcl_code: bool = False
    dex_dcl_reachable: bool = False
    has_native_code: bool = False
    native_dcl_reachable: bool = False
    dex_entity: Optional[str] = None       # "third" | "own" | "both"
    native_entity: Optional[str] = None
    # dynamic-analysis outcome drivers (Table II)
    anti_repackaging: bool = False
    no_activity: bool = False
    crashy: bool = False
    declares_external_write: bool = True
    # rare planted roles
    is_baidu_remote: bool = False
    malware_family: Optional[str] = None
    chathook_double: bool = False
    malware_gates: EnvGates = field(default_factory=EnvGates)
    vuln_kind: Optional[str] = None        # "dex-external" | "native-other-app"
    vuln_other_app: Optional[str] = None
    #: where reachable DCL fires: at launch (most apps) or from a UI handler.
    dcl_trigger: str = "launch"
    # privacy (Table X)
    uses_google_ads: bool = False
    leak_types: Tuple[str, ...] = ()
    #: pinned analytics-SDK vendor; ``None`` lets the assembly rng choose.
    #: Lineage mutations (:mod:`repro.evolution.lineage`) pin it so an SDK
    #: swap changes exactly one payload across versions.
    sdk_vendor: Optional[str] = None
    # modern DCL ecosystems (scenario pack; all off under paper profiles).
    #: app-as-host loading a whole sub-app through a plugin framework.
    is_plugin_host: bool = False
    #: ships secondary dex + feature/config split APKs loaded at runtime.
    is_split_apk: bool = False
    #: dropper chain: each fetched payload fetches the next stage.
    is_staged_downloader: bool = False
    staged_depth: int = 0
    #: shelves features behind guard stubs, re-loads them on demand.
    is_self_debloating: bool = False
    #: lineage churn counters: bumping one re-generates that ecosystem's
    #: payload bytes (hot update / split update / staged update / re-shelf).
    plugin_generation: int = 0
    split_generation: int = 0
    stage_generation: int = 0
    shelf_generation: int = 0


class SharedBlueprint(AppBlueprint):
    """A blueprint of a memoized table, read by every job in the process.

    Assigning to it raises :class:`dataclasses.FrozenInstanceError`;
    ``copy.deepcopy`` returns a mutable :class:`AppBlueprint`, which is
    how lineage planning derives later versions.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(
            "cannot assign {!r}: blueprint {} belongs to a shared table; "
            "mutate a copy.deepcopy of it".format(name, self.index)
        )

    def __delattr__(self, name: str) -> None:
        self.__setattr__(name, None)

    def __deepcopy__(self, memo: dict) -> AppBlueprint:
        thawed = AppBlueprint.__new__(AppBlueprint)
        thawed.__dict__.update(copy.deepcopy(vars(self), memo))
        return thawed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AppBlueprint):
            return NotImplemented
        return vars(self) == vars(other)


#: (profile, seed, n_apps) -> read-only table, weighed in blueprints.
_TABLES: BuildOnce = BuildOnce(capacity=TABLE_MEMO_BLUEPRINTS, weight=len)


@dataclass
class AppRecord:
    """One corpus entry: the APK plus its runtime environment."""

    apk: Apk
    metadata: AppMetadata
    blueprint: AppBlueprint
    remote_resources: Dict[str, bytes] = field(default_factory=dict)
    companions: Tuple[Apk, ...] = ()

    @property
    def package(self) -> str:
        return self.blueprint.package

    @property
    def release_time_ms(self) -> int:
        return self.metadata.release_time_ms

    @property
    def version_code(self) -> int:
        return self.metadata.version_code


class CorpusGenerator:
    """Deterministic market synthesis from a profile + seed."""

    def __init__(self, profile: Optional[CorpusProfile] = None, seed: int = 0) -> None:
        self.profile = profile or CorpusProfile()
        self.seed = seed

    # -- phase 1: blueprints ----------------------------------------------------

    def sample_blueprints(self, n_apps: int) -> Tuple[SharedBlueprint, ...]:
        """The market's ``n_apps`` blueprints: a read-only table shared by
        every caller in the process that asks for the same (profile, seed,
        n_apps).  Raises :class:`CorpusTooSmallError` (and caches nothing)
        when the planted roles do not fit."""
        # Fields are numbers or dicts of numbers, so this tuple identifies
        # the profile; it is built on every call, so it must stay cheap.
        profile = tuple(
            tuple(value.items()) if isinstance(value, dict) else value
            for value in vars(self.profile).values()
        )
        key = (type(self.profile), profile, self.seed, n_apps)
        return _TABLES.get(key, lambda: self._sample(n_apps))

    def _sample(self, n_apps: int) -> Tuple[SharedBlueprint, ...]:
        """One sampling pass; the memo above is its only caller."""
        check_corpus_size(n_apps, self.profile)
        profile = self.profile
        rng = random.Random("corpus-blueprints-{}".format(self.seed))
        blueprints: List[AppBlueprint] = []
        used_packages = set()

        for index in range(n_apps):
            package = names.package_name(rng)
            while package in used_packages:
                package = names.package_name(rng)
            used_packages.add(package)

            has_dex = rng.random() < profile.p_dex_dcl_code
            p_native = (
                profile.p_native_code_given_dex
                if has_dex
                else profile.p_native_code_given_no_dex
            )
            has_native = rng.random() < p_native

            blueprint = AppBlueprint(
                index=index,
                package=package,
                category=rng.choice(CATEGORIES),
                lexical_obfuscated=rng.random() < profile.p_lexical_obfuscation,
                reflection=rng.random() < profile.p_reflection,
                has_dex_dcl_code=has_dex,
                has_native_code=has_native,
            )
            if has_dex:
                blueprint.anti_repackaging = rng.random() < profile.p_anti_repackaging
                blueprint.no_activity = rng.random() < profile.p_no_activity
                blueprint.crashy = rng.random() < profile.p_crash
            elif has_native:
                blueprint.no_activity = rng.random() < profile.p_no_activity
                blueprint.crashy = rng.random() < profile.p_crash_native_only
            blueprint.declares_external_write = (
                not blueprint.anti_repackaging and rng.random() < 0.55
            )
            exercised = not (
                blueprint.anti_repackaging or blueprint.no_activity or blueprint.crashy
            )
            if has_dex and exercised:
                blueprint.dex_dcl_reachable = rng.random() < profile.p_dex_dcl_reachable
            if has_native and exercised:
                blueprint.native_dcl_reachable = (
                    rng.random() < profile.p_native_dcl_reachable
                )
            if blueprint.dex_dcl_reachable:
                blueprint.dex_entity = _sample_mix(rng, profile.dex_entity_mix)
            if blueprint.native_dcl_reachable:
                blueprint.native_entity = _sample_mix(rng, profile.native_entity_mix)
            if blueprint.dex_dcl_reachable or blueprint.native_dcl_reachable:
                if rng.random() < profile.p_dcl_on_ui_event:
                    blueprint.dcl_trigger = "ui"
            blueprints.append(blueprint)

        taken = self._plant_rare_roles(rng, blueprints, n_apps)
        self._assign_privacy(rng, blueprints, n_apps)
        # the ecosystem pack plants last, from its own rng stream, AFTER the
        # privacy draws: the paper corpus must stay byte-identical with the
        # pack's knobs off OR on (only planted apps may differ).
        self._plant_ecosystem_roles(blueprints, n_apps, taken)
        for blueprint in blueprints:
            blueprint.__class__ = SharedBlueprint
        return tuple(blueprints)

    def _plant_rare_roles(
        self, rng: random.Random, blueprints: List[AppBlueprint], n_apps: int
    ) -> Set[int]:
        profile = self.profile
        order = list(range(len(blueprints)))
        rng.shuffle(order)
        cursor = iter(order)
        taken = set()

        def claim(force_dex: bool = False, force_native: bool = False) -> AppBlueprint:
            for index in cursor:
                if index in taken:
                    continue
                blueprint = blueprints[index]
                if blueprint.is_packed or blueprint.anti_decompilation:
                    continue
                taken.add(index)
                blueprint.anti_repackaging = False
                blueprint.no_activity = False
                blueprint.crashy = False
                blueprint.dcl_trigger = "launch"  # deterministic interception
                if force_dex:
                    blueprint.has_dex_dcl_code = True
                    blueprint.dex_dcl_reachable = True
                    if blueprint.dex_entity is None:
                        blueprint.dex_entity = "third"
                if force_native:
                    blueprint.has_native_code = True
                    blueprint.native_dcl_reachable = True
                    if blueprint.native_entity is None:
                        blueprint.native_entity = "third"
                return blueprint
            raise AssertionError("CorpusProfile.planted_apps undercounts the rare roles")

        # anti-decompilation apps (Table VI row 5).
        for _ in range(profile.planted_count(profile.n_anti_decompilation_apps, n_apps)):
            blueprint = claim()
            blueprint.anti_decompilation = True

        # DEX-encryption packed apps (Table VI row 4, Figure 3).
        categories = sorted(FIG3_CATEGORY_WEIGHTS)
        weights = [FIG3_CATEGORY_WEIGHTS[c] for c in categories]
        for _ in range(profile.planted_count(profile.n_dex_encryption_apps, n_apps)):
            blueprint = claim(force_dex=True)
            blueprint.is_packed = True
            blueprint.packer_container = rng.choice(PACKER_CONTAINERS)
            blueprint.category = rng.choices(categories, weights=weights, k=1)[0]
            blueprint.dex_entity = "third"

        # remote-fetch apps (Table V).
        for _ in range(profile.planted_count(profile.n_remote_fetch_apps, n_apps)):
            blueprint = claim(force_dex=True)
            blueprint.is_baidu_remote = True
            if blueprint.dex_entity == "own":
                blueprint.dex_entity = "third"

        # malware carriers (Tables VII/VIII).
        for family, count in (
            (families.SWISS_CODE_MONKEYS, profile.n_swiss_code_monkeys_apps),
            (families.ADWARE_AIRPUSH, profile.n_airpush_apps),
        ):
            for _ in range(profile.planted_count(count, n_apps)):
                blueprint = claim(force_dex=True)
                blueprint.malware_family = family
                blueprint.malware_gates = self._sample_gates(rng)
        n_chathook = profile.planted_count(profile.n_chathook_apps, n_apps)
        n_double = profile.planted_count(profile.n_chathook_double_loaders, n_apps)
        for position in range(n_chathook):
            blueprint = claim(force_native=True)
            blueprint.malware_family = families.CHATHOOK_PTRACE
            blueprint.chathook_double = position < n_double
            blueprint.malware_gates = self._sample_gates(rng)

        # vulnerable apps (Table IX).
        for _ in range(profile.planted_count(profile.n_vuln_dex_external, n_apps)):
            blueprint = claim(force_dex=True)
            blueprint.vuln_kind = "dex-external"
            blueprint.declares_external_write = True
            if blueprint.dex_entity == "third":
                blueprint.dex_entity = "own"
        n_vuln_native = profile.planted_count(profile.n_vuln_native_other_app, n_apps)
        for position in range(n_vuln_native):
            blueprint = claim(force_native=True)
            blueprint.vuln_kind = "native-other-app"
            blueprint.vuln_other_app = (
                "com.devicescape.offloader" if position == n_vuln_native - 1 and n_vuln_native > 1
                else "com.adobe.air"
            )
            blueprint.native_entity = "own"
        return taken

    def _plant_ecosystem_roles(
        self, blueprints: List[AppBlueprint], n_apps: int, taken: Set[int]
    ) -> None:
        """Modern DCL ecosystems (scenario pack).

        Runs after every classic draw from its own rng stream so that with
        the pack's knobs at their zero defaults -- and for every app the
        pack does not claim -- the generated corpus is byte-identical to
        the plain paper profile.
        """
        profile = self.profile
        total = (
            profile.n_plugin_host_apps
            + profile.n_split_apk_apps
            + profile.n_staged_downloader_apps
            + profile.n_self_debloating_apps
        )
        if total == 0:
            return
        rng = random.Random("corpus-ecosystems-{}".format(self.seed))
        order = list(range(len(blueprints)))
        rng.shuffle(order)
        cursor = iter(order)

        def claim() -> AppBlueprint:
            for index in cursor:
                if index in taken:
                    continue
                blueprint = blueprints[index]
                if blueprint.is_packed or blueprint.anti_decompilation:
                    continue
                taken.add(index)
                blueprint.anti_repackaging = False
                blueprint.no_activity = False
                blueprint.crashy = False
                blueprint.dcl_trigger = "launch"  # deterministic interception
                blueprint.has_dex_dcl_code = True
                blueprint.dex_dcl_reachable = True
                if blueprint.dex_entity is None:
                    blueprint.dex_entity = "third"
                return blueprint
            raise AssertionError("CorpusProfile.planted_apps undercounts the ecosystem roles")

        for _ in range(profile.planted_count(profile.n_plugin_host_apps, n_apps)):
            claim().is_plugin_host = True
        for _ in range(profile.planted_count(profile.n_split_apk_apps, n_apps)):
            claim().is_split_apk = True
        for _ in range(profile.planted_count(profile.n_staged_downloader_apps, n_apps)):
            blueprint = claim()
            blueprint.is_staged_downloader = True
            blueprint.staged_depth = profile.staged_downloader_depth
        for _ in range(profile.planted_count(profile.n_self_debloating_apps, n_apps)):
            claim().is_self_debloating = True

    def _sample_gates(self, rng: random.Random) -> EnvGates:
        profile = self.profile
        return EnvGates(
            system_time=rng.random() < profile.p_gate_system_time,
            airplane_flag=rng.random() < profile.p_gate_airplane_flag,
            connectivity=rng.random() < profile.p_gate_connectivity,
            location=rng.random() < profile.p_gate_location,
        )

    def _assign_privacy(
        self, rng: random.Random, blueprints: List[AppBlueprint], n_apps: int
    ) -> None:
        profile = self.profile
        hosts = [
            blueprint
            for blueprint in blueprints
            if blueprint.dex_dcl_reachable
            and not blueprint.is_packed
            and not blueprint.is_baidu_remote
            and blueprint.malware_family is None
        ]
        others: List[AppBlueprint] = []
        for blueprint in hosts:
            if blueprint.dex_entity != "own" and rng.random() < profile.p_google_ads_sdk:
                blueprint.uses_google_ads = True
            else:
                others.append(blueprint)

        leak_sets: Dict[int, set] = {blueprint.index: set() for blueprint in others}
        for data_type, paper_count in profile.table_x_counts.items():
            target = profile.planted_count(paper_count, n_apps)
            if not others:
                break
            for blueprint in rng.sample(others, k=min(target, len(others))):
                leak_sets[blueprint.index].add(data_type)
        for blueprint in others:
            chosen = leak_sets[blueprint.index]
            if rng.random() < profile.p_other_payload_tracks_settings:
                chosen.add("Settings")
            blueprint.leak_types = tuple(sorted(chosen))

    # -- phase 2: assembly ---------------------------------------------------------

    def build_record(
        self,
        blueprint: AppBlueprint,
        version_code: Optional[int] = None,
        release_offset_ms: int = 0,
    ) -> AppRecord:
        """Assemble one APK; ``version_code``/``release_offset_ms`` stamp a
        lineage version on top of the base (version 1) identity.

        The assembly rng is keyed by ``(seed, index)`` only, so an app
        whose blueprint is unchanged between versions emits byte-identical
        payloads -- the invariant cross-version verdict dedup rests on.
        Only the manifest/metadata version stamp differs.
        """
        rng = random.Random("app-{}-{}".format(self.seed, blueprint.index))
        meta_rng = random.Random("meta-{}-{}".format(self.seed, blueprint.index))
        metadata = sample_metadata(
            meta_rng,
            self.profile,
            blueprint.has_dex_dcl_code,
            blueprint.has_native_code,
            blueprint.category,
            DEFAULT_TIME_MS,
        )
        if version_code is not None or release_offset_ms:
            metadata = replace(
                metadata,
                version_code=version_code if version_code is not None else metadata.version_code,
                release_time_ms=metadata.release_time_ms + release_offset_ms,
            )
        ctx = BehaviorContext(
            rng=rng, package=blueprint.package, release_time_ms=metadata.release_time_ms
        )
        if blueprint.is_packed:
            apk = self._build_packed_apk(rng, blueprint, ctx)
        else:
            apk = self._build_regular_apk(rng, blueprint, ctx)
        if version_code is not None:
            manifest = apk.manifest
            manifest.version_code = version_code
            apk.put_manifest(manifest)
        if blueprint.anti_decompilation:
            apk.enable_anti_decompilation()
        if blueprint.anti_repackaging:
            apk.enable_anti_repackaging()
        self._host_embedded_urls(apk, ctx)
        return AppRecord(
            apk=apk,
            metadata=metadata,
            blueprint=blueprint,
            remote_resources=dict(ctx.remote_resources),
            companions=tuple(ctx.companions),
        )

    def _host_embedded_urls(self, apk: Apk, ctx: BehaviorContext) -> None:
        """Host every URL any bundled bytecode references.

        Real ad/analytics/C2 endpoints were live during the paper's
        measurement; without this, payload fetches would 404 and crash apps
        that were perfectly healthy in the wild.  Already-registered
        resources (the Baidu remote binaries) are left untouched.
        """
        from repro.android.dex import DexFormatError, is_dex_bytes

        dexes = list(apk.dex_files())
        for _, data in apk.asset_entries():
            if is_dex_bytes(data):
                try:
                    dexes.append(DexFile.from_bytes(data))
                except DexFormatError:
                    continue
        for data in list(ctx.remote_resources.values()):
            if is_dex_bytes(data):
                try:
                    dexes.append(DexFile.from_bytes(data))
                except DexFormatError:
                    continue
        for dex in dexes:
            for url in behaviors.extract_url_constants(dex):
                ctx.remote_resources.setdefault(url, b"HTTP/200 content")

    # -- regular apps ------------------------------------------------------------------

    def _build_regular_apk(
        self, rng: random.Random, blueprint: AppBlueprint, ctx: BehaviorContext
    ) -> Apk:
        package = blueprint.package
        obfuscated = blueprint.lexical_obfuscated
        class_names = names.class_names_for_app(rng, package, 5, obfuscated)
        activity_name = class_names[0]

        dex = DexFile()
        stub_calls: List[Tuple[str, str]] = []

        # SDK stubs first (they register assets/resources on ctx).
        if blueprint.uses_google_ads:
            stub = sdks.build_google_ads_sdk(ctx)
            dex.classes.append(stub.dex_class)
            stub_calls.append((stub.entry_class, stub.entry_method))
        if blueprint.is_baidu_remote:
            stub = sdks.build_baidu_remote_ads_sdk(ctx)
            dex.classes.append(stub.dex_class)
            stub_calls.append((stub.entry_class, stub.entry_method))
        needs_generic_sdk = (
            blueprint.dex_dcl_reachable
            and blueprint.dex_entity in ("third", "both")
            and not blueprint.uses_google_ads
            and not blueprint.is_baidu_remote
            and blueprint.malware_family
            not in (families.SWISS_CODE_MONKEYS, families.ADWARE_AIRPUSH)
        )
        if needs_generic_sdk:
            # Even with no sensitive tracking, the SDK still loads its
            # payload at runtime (an empty leak list is a clean payload).
            # The vendor draw happens unconditionally so a pinned
            # ``sdk_vendor`` (lineage SDK swap) leaves the rng stream --
            # and therefore every *other* payload's bytes -- unchanged.
            drawn_vendor = ctx.rng.choice(sdks.ANALYTICS_VENDORS)
            stub = sdks.build_analytics_sdk(
                ctx,
                list(blueprint.leak_types),
                vendor=blueprint.sdk_vendor or drawn_vendor,
            )
            dex.classes.append(stub.dex_class)
            stub_calls.append((stub.entry_class, stub.entry_method))
        if blueprint.native_dcl_reachable and blueprint.native_entity in ("third", "both"):
            stub = sdks.build_native_engine_sdk(ctx)
            dex.classes.append(stub.dex_class)
            stub_calls.append((stub.entry_class, stub.entry_method))
        if blueprint.malware_family in (families.SWISS_CODE_MONKEYS, families.ADWARE_AIRPUSH):
            stub = self._build_dex_malware_stub(rng, blueprint, ctx)
            dex.classes.append(stub.dex_class)
            stub_calls.append((stub.entry_class, stub.entry_method))
        if blueprint.malware_family == families.CHATHOOK_PTRACE:
            stub = self._build_chathook_stub(rng, blueprint, ctx)
            dex.classes.append(stub.dex_class)
            stub_calls.append((stub.entry_class, stub.entry_method))
        if blueprint.is_plugin_host:
            stub = sdks.build_plugin_host_sdk(
                ctx, hijack_class=activity_name,
                generation=blueprint.plugin_generation,
            )
            dex.classes.append(stub.dex_class)
            stub_calls.append((stub.entry_class, stub.entry_method))
        if blueprint.is_staged_downloader:
            stub = sdks.build_staged_downloader_sdk(
                ctx, depth=blueprint.staged_depth or 3,
                generation=blueprint.stage_generation,
            )
            dex.classes.append(stub.dex_class)
            stub_calls.append((stub.entry_class, stub.entry_method))
        if blueprint.is_self_debloating:
            stub = self._build_self_debloating_stub(blueprint, ctx)
            dex.classes.append(stub.dex_class)
            stub_calls.append((stub.entry_class, stub.entry_method))
        if blueprint.vuln_kind == "native-other-app":
            ctx.companions.append(self._build_companion(rng, blueprint.vuln_other_app))

        # The activity.  DCL fires either at launch (onCreate) or only from
        # a UI handler the Monkey has to reach (the event-budget ablation).
        activity = class_builder(activity_name, superclass="android.app.Activity")
        on_create = MethodBuilder("onCreate", activity_name, arity=1)
        if blueprint.crashy:
            on_create.throw_new("java.lang.NullPointerException")
        if blueprint.reflection:
            behaviors.emit_reflection_use(on_create, activity_name)
        if blueprint.dcl_trigger == "ui":
            trigger = MethodBuilder("onBannerClick", activity_name, arity=1)
        else:
            trigger = on_create
        for stub_class, stub_method in stub_calls:
            trigger.call_void(stub_class, stub_method, trigger.arg(CTX))
        extra_dexes: List[DexFile] = []
        if blueprint.is_split_apk:
            extra_dexes.append(
                self._emit_split_payloads(trigger, blueprint, ctx, class_names)
            )
        if blueprint.dex_dcl_reachable and blueprint.dex_entity in ("own", "both"):
            self._emit_own_plugin_load(rng, trigger, blueprint, ctx)
        if blueprint.vuln_kind == "dex-external":
            self._emit_external_storage_load(rng, trigger, blueprint, ctx)
        if blueprint.vuln_kind == "native-other-app":
            behaviors.emit_native_load_path(
                trigger,
                "/data/data/{}/lib/{}".format(
                    blueprint.vuln_other_app,
                    "libCore.so" if blueprint.vuln_other_app == "com.adobe.air" else "libdevicescape-jni.so",
                ),
            )
        if blueprint.native_dcl_reachable and blueprint.native_entity in ("own", "both"):
            library = sdks.benign_native_library(rng)
            ctx.native_libs.append(library)
            behaviors.emit_native_load_library(
                trigger, library.name[len("lib"):-len(".so")]
            )
        on_create.ret_void()
        activity.add_method(on_create.build())
        if trigger is not on_create:
            trigger.ret_void()
            activity.add_method(trigger.build())

        # Dead DCL code: present in the IR, never invoked (prefilter-only).
        if blueprint.has_dex_dcl_code and not blueprint.dex_dcl_reachable and not stub_calls:
            activity.add_method(self._dead_dex_dcl_method(rng, activity_name, package))
        elif blueprint.has_dex_dcl_code and not blueprint.dex_dcl_reachable:
            activity.add_method(self._dead_dex_dcl_method(rng, activity_name, package))
        if blueprint.has_native_code and not blueprint.native_dcl_reachable:
            activity.add_method(self._dead_native_dcl_method(rng, activity_name))
        dex.classes.append(activity)

        # Filler classes with benign bodies.
        for class_name in class_names[1:]:
            dex.classes.append(self._filler_class(rng, class_name, obfuscated))

        manifest = AndroidManifest(
            package=package,
            min_sdk=14 if rng.random() < 0.8 else 19,
            permissions={INTERNET}
            | ({WRITE_EXTERNAL_STORAGE} if blueprint.declares_external_write else set()),
            components=[]
            if blueprint.no_activity
            else [Component(ComponentKind.ACTIVITY, activity_name, True)],
        )
        if blueprint.vuln_kind == "dex-external":
            manifest.min_sdk = 14  # verified as supporting pre-KitKat (Table IX)
        return Apk.build(
            manifest,
            dex_files=[dex] + extra_dexes,
            native_libs=list(ctx.native_libs),
            assets=ctx.assets,
        )

    # -- packed apps -----------------------------------------------------------------------

    def _build_packed_apk(
        self, rng: random.Random, blueprint: AppBlueprint, ctx: BehaviorContext
    ) -> Apk:
        """The Bangcle/Ijiami pattern: container + native decryptor + payload."""
        package = blueprint.package
        activity_name = "{}.MainActivity".format(package)

        original_activity = class_builder(activity_name, superclass="android.app.Activity")
        on_create = MethodBuilder("onCreate", activity_name, arity=1)
        on_create.call_void(
            "android.util.Log", "d", on_create.new_string("app"), on_create.new_string("real app running")
        )
        on_create.ret_void()
        original_activity.add_method(on_create.build())
        original_dex = DexFile(classes=[original_activity])

        key = bytes([rng.randint(1, 255)])
        encrypted = original_dex.encrypt(key)
        asset_name = "jiagu_data.bin"
        decrypted_path = "/data/data/{}/files/.cache_real.dex".format(package)

        decryptor = NativeLibrary(
            name="libsecexec.so",
            functions=[
                NativeFunction(
                    "JNI_OnLoad",
                    [
                        NativeBlock(
                            "entry",
                            [
                                NativeInsn(NativeOp.BL, ("libc!fopen",)),
                                NativeInsn(NativeOp.XOR, ("r0", "r1")),
                                NativeInsn(NativeOp.BL, ("libc!fwrite",)),
                                NativeInsn(NativeOp.SVC, ("ptrace",)),  # anti-debug
                                NativeInsn(NativeOp.RET),
                            ],
                        )
                    ],
                )
            ],
            intrinsics={
                "JNI_OnLoad": {
                    "kind": INTRINSIC_DECRYPT_AND_LOAD,
                    "source": "asset:{}".format(asset_name),
                    "dest": decrypted_path,
                    "key_hex": key.hex(),
                }
            },
        )

        container_name = blueprint.packer_container
        container = class_builder(container_name, superclass="android.app.Application")
        boot = MethodBuilder("onCreate", container_name, arity=1)
        behaviors.emit_native_load_library(boot, "secexec")
        behaviors.emit_dex_load(
            boot, decrypted_path, "/data/data/{}/cache/odex".format(package)
        )
        boot.ret_void()
        container.add_method(boot.build())
        container_dex = DexFile(classes=[container])

        manifest = AndroidManifest(
            package=package,
            min_sdk=14,
            permissions={INTERNET, WRITE_EXTERNAL_STORAGE},
            components=[Component(ComponentKind.ACTIVITY, activity_name, True)],
            application_name=container_name,
        )
        return Apk.build(
            manifest,
            dex_files=[container_dex],
            native_libs=[decryptor],
            assets={"assets/{}".format(asset_name): encrypted},
        )

    # -- special stubs ----------------------------------------------------------------------

    def _build_dex_malware_stub(
        self, rng: random.Random, blueprint: AppBlueprint, ctx: BehaviorContext
    ) -> sdks.SdkStub:
        """A shady plugin SDK copying + env-gated-loading a malicious DEX."""
        if blueprint.malware_family == families.SWISS_CODE_MONKEYS:
            payload = families.swiss_code_monkeys_dex(rng.randint(0, 2**31))
            entry_method = "onStart"
        else:
            payload = families.adware_airpush_minimob_dex(rng.randint(0, 2**31))
            entry_method = "run"
        entry_class = payload.classes[0].name
        asset_name = "plugin_core.bin"
        ctx.assets["assets/{}".format(asset_name)] = payload.to_bytes()

        stub_name = "{}.PluginLoader".format(MALWARE_SDK_PACKAGE)
        cls = class_builder(stub_name)
        b = MethodBuilder("start", stub_name, arity=1, is_static=True)
        skip = "hide"
        behaviors.emit_env_gates(b, blueprint.malware_gates, ctx.release_time_ms, skip)
        dest = "/data/data/{}/files/plugin_core.jar".format(ctx.package)
        behaviors.emit_asset_to_file(b, asset_name, dest)
        behaviors.emit_dex_load(
            b,
            dest,
            "/data/data/{}/cache/odex".format(ctx.package),
            entry_class=entry_class,
            entry_method=entry_method,
        )
        b.label(skip)
        b.ret_void()
        cls.add_method(b.build())
        return sdks.SdkStub(dex_class=cls, entry_class=stub_name)

    def _build_chathook_stub(
        self, rng: random.Random, blueprint: AppBlueprint, ctx: BehaviorContext
    ) -> sdks.SdkStub:
        """A helper SDK env-gated-loading the Chathook native payload(s)."""
        libraries = [families.chathook_ptrace_native(rng.randint(0, 2**31))]
        if blueprint.chathook_double:
            libraries.append(families.chathook_ptrace_native(rng.randint(0, 2**31)))
        ctx.native_libs.extend(libraries)

        stub_name = "{}.NativeHelper".format(CHATHOOK_SDK_PACKAGE)
        cls = class_builder(stub_name)
        b = MethodBuilder("start", stub_name, arity=1, is_static=True)
        skip = "hide"
        behaviors.emit_env_gates(b, blueprint.malware_gates, ctx.release_time_ms, skip)
        for library in libraries:
            behaviors.emit_native_load_library(b, library.name[len("lib"):-len(".so")])
        b.label(skip)
        b.ret_void()
        cls.add_method(b.build())
        return sdks.SdkStub(dex_class=cls, entry_class=stub_name)

    def _build_companion(self, rng: random.Random, package: str) -> Apk:
        """The other app whose private library a vulnerable app loads."""
        lib_name = "libCore.so" if package == "com.adobe.air" else "libdevicescape-jni.so"
        library = sdks.benign_native_library(rng, name=lib_name)
        manifest = AndroidManifest(package=package, permissions={INTERNET})
        return Apk.build(manifest, dex_files=[DexFile()], native_libs=[library])

    # -- per-app emission helpers ------------------------------------------------------------

    def _emit_split_payloads(
        self,
        b: MethodBuilder,
        blueprint: AppBlueprint,
        ctx: BehaviorContext,
        class_names: List[str],
    ) -> DexFile:
        """Multi-dex + split-APK ecosystem: returns the ``classes2.dex``.

        The app ships a secondary dex (warmed from the trigger, so the
        multi-dex install path is exercised), plus a feature split and a
        config split as assets.  At runtime both splits are copied into
        the app's private ``splits/`` dir and loaded through ONE
        classloader whose dexPath lists them in the wrong order -- the
        split-aware load-order logic in the runtime has to fix it.  The
        feature split deliberately redefines a host class
        (``class_names[1]``), the namespace-collision hazard.
        """
        package = blueprint.package
        generation = blueprint.split_generation

        secondary_name = "{}.multidex.Secondary".format(package)
        secondary_cls = class_builder(secondary_name)
        warm = MethodBuilder("warm", secondary_name, arity=1, is_static=True)
        warm.call_void(
            "android.util.Log", "d", warm.new_string("multidex"),
            warm.new_string("secondary dex warm"),
        )
        warm.ret_void()
        secondary_cls.add_method(warm.build())
        b.call_void(secondary_name, "warm", b.arg(CTX))

        feature_main = "{}.feature.FeatureMain".format(package)
        feature_cls = class_builder(feature_main)
        init = MethodBuilder("<init>", feature_main, arity=1)
        init.ret_void()
        feature_cls.add_method(init.build())
        run = MethodBuilder("run", feature_main, arity=1)
        run.call_void(
            "android.util.Log", "d", run.new_string("split"),
            run.new_string("feature split generation {}".format(generation)),
        )
        run.ret_void()
        feature_cls.add_method(run.build())
        collided = class_builder(class_names[1])
        shadow = MethodBuilder("shadow", class_names[1], arity=1)
        shadow.ret_void()
        collided.add_method(shadow.build())
        feature_apk = build_split_apk(
            package, "feature", [feature_cls, collided], version_code=1 + generation
        )

        config_name = "{}.config.DensityPack".format(package)
        config_cls = class_builder(config_name)
        config_cls.add_method(
            MethodBuilder("densities", config_name, arity=1).build()
        )
        config_apk = build_split_apk(
            package, "config.xhdpi", [config_cls], version_code=1 + generation
        )

        ctx.assets["assets/split_feature.apk"] = feature_apk.to_bytes()
        ctx.assets["assets/config.xhdpi.apk"] = config_apk.to_bytes()
        splits_dir = "/data/data/{}/splits".format(package)
        feature_dest = "{}/split_feature.apk".format(splits_dir)
        config_dest = "{}/config.xhdpi.apk".format(splits_dir)
        behaviors.emit_asset_to_file(b, "split_feature.apk", feature_dest)
        behaviors.emit_asset_to_file(b, "config.xhdpi.apk", config_dest)
        behaviors.emit_dex_load(
            b,
            "{}:{}".format(feature_dest, config_dest),  # deliberately unordered
            "/data/data/{}/cache/odex".format(package),
            entry_class=feature_main,
        )
        return build_secondary_dex([secondary_cls])

    def _build_self_debloating_stub(
        self, blueprint: AppBlueprint, ctx: BehaviorContext
    ) -> sdks.SdkStub:
        """Self-debloating ecosystem: shelved features behind guard stubs.

        The inverse of the debloating rewriter: feature bodies live as
        shelved dex assets; the in-app guard re-materializes each one
        under the app's private ``shelf/`` dir and loads it on demand.
        ``shelf_generation`` is baked into the shelved bytes, so every
        re-shelve lineage version churns the payload digests.
        """
        package = ctx.package
        generation = blueprint.shelf_generation
        guard_name = "{}.shelf.ShelfGuards".format(package)
        cls = class_builder(guard_name)
        b = MethodBuilder("start", guard_name, arity=1, is_static=True)
        for feature in (1, 2):
            feature_class = "{}.shelf.Feature{}".format(package, feature)
            payload_cls = class_builder(feature_class)
            init = MethodBuilder("<init>", feature_class, arity=1)
            init.ret_void()
            payload_cls.add_method(init.build())
            run = MethodBuilder("run", feature_class, arity=1)
            run.call_void(
                "android.util.Log", "d", run.new_string("shelf"),
                run.new_string(
                    "feature {} reloaded (generation {})".format(feature, generation)
                ),
            )
            run.ret_void()
            payload_cls.add_method(run.build())
            payload = DexFile(
                classes=[payload_cls], source_name="feature{}.jar".format(feature)
            )
            asset_name = "shelf/feature{}.bin".format(feature)
            ctx.assets["assets/{}".format(asset_name)] = payload.to_bytes()
            dest = "/data/data/{}/shelf/feature{}.dex".format(package, feature)
            behaviors.emit_asset_to_file(b, asset_name, dest)
            behaviors.emit_dex_load(
                b,
                dest,
                "/data/data/{}/shelf/odex".format(package),
                entry_class=feature_class,
            )
        b.ret_void()
        cls.add_method(b.build())
        return sdks.SdkStub(dex_class=cls, entry_class=guard_name)

    def _emit_own_plugin_load(
        self,
        rng: random.Random,
        b: MethodBuilder,
        blueprint: AppBlueprint,
        ctx: BehaviorContext,
    ) -> None:
        """Developer-initiated DCL (entity = own): load a bundled plugin."""
        leak_types = list(blueprint.leak_types) if blueprint.dex_entity == "own" else []
        payload = behaviors.privacy_payload_dex(
            rng, "{}.plugin".format(ctx.package), leak_types
        )
        asset_name = "own_plugin.bin"
        ctx.assets["assets/{}".format(asset_name)] = payload.to_bytes()
        dest = "/data/data/{}/files/own_plugin.jar".format(ctx.package)
        behaviors.emit_asset_to_file(b, asset_name, dest)
        behaviors.emit_dex_load(
            b,
            dest,
            "/data/data/{}/cache/odex".format(ctx.package),
            entry_class=payload.classes[0].name,
        )

    def _emit_external_storage_load(
        self,
        rng: random.Random,
        b: MethodBuilder,
        blueprint: AppBlueprint,
        ctx: BehaviorContext,
    ) -> None:
        """Table IX row 1: cache the loadable bytecode on the sdcard."""
        payload = behaviors.privacy_payload_dex(rng, "{}.voice".format(ctx.package), [])
        asset_name = "voice_sdk.bin"
        ctx.assets["assets/{}".format(asset_name)] = payload.to_bytes()
        dest = "/mnt/sdcard/im_sdk/jar/{}_for_assets.jar".format(
            ctx.package.rsplit(".", 1)[-1]
        )
        behaviors.emit_asset_to_file(b, asset_name, dest)
        behaviors.emit_dex_load(
            b,
            dest,
            "/data/data/{}/cache/odex".format(ctx.package),
            entry_class=payload.classes[0].name,
        )

    def _dead_dex_dcl_method(
        self, rng: random.Random, class_name: str, package: str
    ) -> "DexMethod":
        """Loader-constructing code no callback reaches (prefilter-only)."""
        b = MethodBuilder("legacyPluginPath", class_name, arity=1)
        behaviors.emit_dex_load(
            b,
            "/data/data/{}/files/legacy.jar".format(package),
            "/data/data/{}/cache/odex".format(package),
            loader_kind="dalvik.system.DexClassLoader"
            if rng.random() < 0.7
            else "dalvik.system.PathClassLoader",
        )
        b.ret_void()
        return b.build()

    def _dead_native_dcl_method(self, rng: random.Random, class_name: str) -> "DexMethod":
        b = MethodBuilder("legacyNativeInit", class_name, arity=1)
        behaviors.emit_native_load_library(b, "legacy{}".format(rng.randint(0, 99)))
        b.ret_void()
        return b.build()

    def _filler_class(
        self, rng: random.Random, class_name: str, obfuscated: bool
    ) -> DexClass:
        cls = class_builder(class_name)
        n_methods = rng.randint(2, 4)
        for position in range(n_methods):
            if obfuscated:
                method_name = names.obfuscated_identifier(rng, position)
            else:
                method_name = names.readable_identifier(rng, rng.randint(1, 3))
            b = MethodBuilder(method_name, class_name, arity=1)
            sb = b.new_instance_of("java.lang.StringBuilder")
            b.call_virtual("java.lang.StringBuilder", "append", sb, b.new_string("state"))
            text = b.call_virtual("java.lang.StringBuilder", "toString", sb)
            b.call_void("android.util.Log", "d", b.new_string("app"), text)
            b.ret_void()
            cls.add_method(b.build())
        return cls

    # -- top level ------------------------------------------------------------------------------

    def generate(self, n_apps: int) -> List[AppRecord]:
        blueprints = self.sample_blueprints(n_apps)
        return [self.build_record(blueprint) for blueprint in blueprints]

    def records_at(self, n_apps: int, indices: Sequence[int]) -> List[AppRecord]:
        """Build only the records at ``indices`` of an ``n_apps`` corpus.

        Blueprint sampling is corpus-global (rare roles are planted over
        the whole market), so the whole table is needed even for one app;
        it comes from the process-wide memo, so a process samples it at
        most once, and only the expensive APK assembly is restricted to the
        requested slice.  This is how the daemon builds one app of a
        market per job from ``(seed, n_apps, index)``, with no APK object
        crossing a process boundary.
        """
        blueprints = self.sample_blueprints(n_apps)
        out_of_range = [i for i in indices if not 0 <= i < n_apps]
        if out_of_range:
            raise IndexError(
                "corpus of {} apps has no indices {}".format(n_apps, out_of_range)
            )
        return [self.build_record(blueprints[index]) for index in indices]

    def split(
        self, n_apps: int, ratio: float = 0.5, split_seed: int = 0
    ) -> Tuple[List[int], List[int]]:
        """Seeded, disjoint (train, test) index partition of an ``n_apps`` corpus.

        The shuffle is keyed by (corpus seed, split seed, size, ratio), so
        the same arguments always produce the same partition -- ``repro
        triage train`` and ``repro triage eval`` can never see each other's
        apps.  Both halves are guaranteed non-empty for ``n_apps >= 2``.
        """
        if n_apps < 2:
            raise ValueError("a train/test split needs at least 2 apps")
        if not 0.0 < ratio < 1.0:
            raise ValueError("split ratio must be in (0, 1), got {}".format(ratio))
        key = "corpus-split-{}-{}-{}-{}".format(self.seed, split_seed, n_apps, ratio)
        order = list(range(n_apps))
        random.Random(key).shuffle(order)
        n_train = min(max(int(n_apps * ratio), 1), n_apps - 1)
        return sorted(order[:n_train]), sorted(order[n_train:])

    def lineage(self, n_apps: int, n_versions: int, spec=None):
        """Plan a deterministic multi-version lineage for every package.

        Returns one :class:`repro.evolution.lineage.AppLineage` per app:
        version 1 is the plain corpus blueprint, each later version
        applies seeded mutations (DCL added/dropped, SDK swapped, payload
        gone remote, turned malicious) with monotone ``version_code`` /
        ``release_time_ms`` stamps.  Build any version with
        :func:`repro.evolution.lineage.build_version_record`.
        """
        # Imported here: repro.evolution imports this module at top level.
        from repro.evolution.lineage import plan_lineages

        return plan_lineages(
            n_apps, n_versions, seed=self.seed, profile=self.profile, spec=spec
        )


def _sample_mix(rng: random.Random, mix: Dict[str, float]) -> str:
    roll = rng.random()
    cumulative = 0.0
    for key in ("own", "both", "third"):
        cumulative += mix.get(key, 0.0)
        if roll < cumulative:
            return key
    return "third"


def generate_corpus(
    n_apps: int, seed: int = 0, profile: Optional[CorpusProfile] = None
) -> List[AppRecord]:
    """The public one-call corpus factory."""
    return CorpusGenerator(profile=profile, seed=seed).generate(n_apps)
