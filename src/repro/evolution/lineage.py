"""Deterministic multi-version app lineages: the corpus gains a time axis.

DyDroid's security story is that DCL lets an app change behavior *after*
review; modeling that requires the same package at several version codes.
A lineage is planned in one seeded pass per app (``Random("lineage-{seed}-
{index}")``): version 1 is the plain corpus blueprint, and every later
version applies zero or more mutations drawn from the paper's observed
drift patterns:

- ``add_dcl``       -- an update gains a DCL call site (new plugin SDK);
- ``drop_dcl``      -- an update removes its DCL machinery;
- ``swap_sdk``      -- the bundled analytics SDK changes vendor, so exactly
  one payload digest churns while every other payload stays byte-identical;
- ``go_remote``     -- a locally bundled payload becomes a remote fetch
  (the provenance transition the differ flags as suspicious);
- ``turn_malicious``-- the app turns malicious at version *k*, governed by
  a per-version Bernoulli hazard; once malicious, always malicious.

Version stamps are monotone: ``version_code`` strictly increases and
``release_time_ms`` moves forward by a seeded number of days per release.
Because :meth:`CorpusGenerator.build_record` keys its assembly rng by
``(seed, index)`` only, an unmutated blueprint re-emits byte-identical
payload bytes at every version -- which is what lets a shared verdict
store analyze each distinct payload exactly once across a whole lineage.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.corpus.generator import AppBlueprint, AppRecord, CorpusGenerator
from repro.corpus.profiles import CorpusProfile
from repro.corpus.sdks import ANALYTICS_VENDORS
from repro.static_analysis.malware import families

__all__ = [
    "AppLineage",
    "AppVersion",
    "LineageSpec",
    "build_version_record",
    "plan_lineage",
    "plan_lineages",
]

#: one release every 1..13 weeks (seeded per step); keeps release times
#: strictly monotone per package.
_MIN_RELEASE_GAP_DAYS = 7
_MAX_RELEASE_GAP_DAYS = 91
_DAY_MS = 86_400_000


@dataclass(frozen=True)
class LineageSpec:
    """Mutation probabilities applied independently at each version step."""

    p_add_dcl: float = 0.15
    p_drop_dcl: float = 0.08
    p_swap_sdk: float = 0.20
    p_go_remote: float = 0.10
    #: per-version probability that a so-far-benign app turns malicious
    #: (the "turn malicious at version k" hazard).
    malicious_hazard: float = 0.05
    # -- ecosystem-pack churn (only drawn for apps planted with the
    # matching role, so paper-profile lineages consume zero extra rng) --
    #: plugin host ships a new hot-update pack generation.
    p_hot_update: float = 0.45
    #: split-APK app re-emits its feature/config splits.
    p_split_update: float = 0.40
    #: staged downloader rotates its delivery-chain payloads.
    p_stage_update: float = 0.35
    #: self-debloating app reshelves its on-demand features (high churn:
    #: shelving is routine maintenance, not a rare event).
    p_reshelve: float = 0.50


@dataclass(frozen=True)
class AppVersion:
    """One planned version of one app: blueprint + monotone stamps."""

    version: int                #: 1-based ordinal within the lineage
    version_code: int           #: strictly increasing store version code
    release_offset_ms: int      #: added to the base (v1) release time
    mutations: Tuple[str, ...]  #: mutation names applied at this step
    blueprint: AppBlueprint


@dataclass
class AppLineage:
    """Every planned version of one package, oldest first."""

    index: int
    package: str
    versions: List[AppVersion] = field(default_factory=list)

    def at(self, version: int) -> AppVersion:
        for app_version in self.versions:
            if app_version.version == version:
                return app_version
        raise KeyError(
            "{} has no version {} (has {})".format(
                self.package, version, [v.version for v in self.versions]
            )
        )

    @property
    def turned_malicious_at(self) -> Optional[int]:
        """Version ordinal of the first malicious version, if any."""
        for app_version in self.versions:
            if "turn_malicious" in app_version.mutations:
                return app_version.version
        return None


def _can_turn_malicious(blueprint: AppBlueprint) -> bool:
    # Packed apps take a different assembly path (no malware stubs) and
    # anti-decompilation defeats the static side entirely; neither makes
    # a useful planted escalation.
    return (
        blueprint.malware_family is None
        and not blueprint.is_packed
        and not blueprint.anti_decompilation
    )


def _uses_generic_sdk(blueprint: AppBlueprint) -> bool:
    """Mirror of the generator's ``needs_generic_sdk`` assembly guard."""
    return (
        blueprint.dex_dcl_reachable
        and blueprint.dex_entity in ("third", "both")
        and not blueprint.uses_google_ads
        and not blueprint.is_baidu_remote
        and blueprint.malware_family
        not in (families.SWISS_CODE_MONKEYS, families.ADWARE_AIRPUSH)
    )


def _exercisable(blueprint: AppBlueprint) -> bool:
    return not (blueprint.anti_repackaging or blueprint.no_activity or blueprint.crashy)


def _mutate(
    rng: random.Random, blueprint: AppBlueprint, spec: LineageSpec
) -> Tuple[AppBlueprint, Tuple[str, ...]]:
    """One version step: apply each eligible mutation independently."""
    mutated = copy.deepcopy(blueprint)
    applied: List[str] = []

    if _can_turn_malicious(mutated) and rng.random() < spec.malicious_hazard:
        # Ungated (empty EnvGates) launch-triggered load: the escalation
        # must intercept deterministically, like the planted carriers.
        mutated.malware_family = families.SWISS_CODE_MONKEYS
        mutated.malware_gates = type(mutated.malware_gates)()
        mutated.has_dex_dcl_code = True
        mutated.dex_dcl_reachable = True
        mutated.dex_entity = mutated.dex_entity or "third"
        mutated.anti_repackaging = False
        mutated.no_activity = False
        mutated.crashy = False
        mutated.dcl_trigger = "launch"
        applied.append("turn_malicious")

    if (
        not mutated.has_dex_dcl_code
        and not mutated.is_packed
        and rng.random() < spec.p_add_dcl
    ):
        mutated.has_dex_dcl_code = True
        if _exercisable(mutated):
            mutated.dex_dcl_reachable = True
            mutated.dex_entity = mutated.dex_entity or "third"
        applied.append("add_dcl")

    droppable = (
        mutated.has_dex_dcl_code
        and "add_dcl" not in applied
        and mutated.malware_family is None
        and not mutated.is_baidu_remote
        and not mutated.is_packed
        and not mutated.uses_google_ads
        and mutated.vuln_kind is None
    )
    if droppable and rng.random() < spec.p_drop_dcl:
        mutated.has_dex_dcl_code = False
        mutated.dex_dcl_reachable = False
        mutated.dex_entity = None
        mutated.sdk_vendor = None
        mutated.leak_types = ()
        applied.append("drop_dcl")

    if _uses_generic_sdk(mutated) and rng.random() < spec.p_swap_sdk:
        candidates = [v for v in ANALYTICS_VENDORS if v != mutated.sdk_vendor]
        mutated.sdk_vendor = rng.choice(candidates)
        applied.append("swap_sdk")

    if (
        mutated.dex_dcl_reachable
        and not mutated.is_baidu_remote
        and not mutated.is_packed
        and mutated.malware_family is None
        and rng.random() < spec.p_go_remote
    ):
        mutated.is_baidu_remote = True
        if mutated.dex_entity == "own":
            mutated.dex_entity = "third"
        applied.append("go_remote")

    # Ecosystem-pack churn: bumping a generation counter changes the
    # planted payload bytes (new digests) while the host role stays fixed.
    # Guards come first so lineages without the role draw nothing.
    if mutated.is_plugin_host and rng.random() < spec.p_hot_update:
        mutated.plugin_generation += 1
        applied.append("hot_update")

    if mutated.is_split_apk and rng.random() < spec.p_split_update:
        mutated.split_generation += 1
        applied.append("split_update")

    if mutated.is_staged_downloader and rng.random() < spec.p_stage_update:
        mutated.stage_generation += 1
        applied.append("stage_update")

    if mutated.is_self_debloating and rng.random() < spec.p_reshelve:
        mutated.shelf_generation += 1
        applied.append("reshelve")

    return mutated, tuple(applied)


def plan_lineage(
    blueprint: AppBlueprint, n_versions: int, seed: int, spec: LineageSpec
) -> AppLineage:
    """Plan ``n_versions`` of one app of the ``seed`` corpus.

    Each lineage draws from its own ``Random("lineage-{seed}-{index}")``,
    so one app plans identically alone or as part of its whole corpus.
    """
    rng = random.Random("lineage-{}-{}".format(seed, blueprint.index))
    base = copy.deepcopy(blueprint)
    if _uses_generic_sdk(base):
        # Pin the analytics vendor from version 1 so a later SDK swap
        # is guaranteed to actually change vendors (the swap draws
        # from the complement of the current pin).
        base.sdk_vendor = rng.choice(ANALYTICS_VENDORS)
    lineage = AppLineage(index=blueprint.index, package=blueprint.package)
    version_code = 1 + rng.randint(0, 3)
    lineage.versions.append(
        AppVersion(
            version=1,
            version_code=version_code,
            release_offset_ms=0,
            mutations=(),
            blueprint=base,
        )
    )
    current = base
    release_offset_ms = 0
    for ordinal in range(2, n_versions + 1):
        current, applied = _mutate(rng, current, spec)
        version_code += 1 + rng.randint(0, 4)
        release_offset_ms += (
            rng.randint(_MIN_RELEASE_GAP_DAYS, _MAX_RELEASE_GAP_DAYS) * _DAY_MS
        )
        lineage.versions.append(
            AppVersion(
                version=ordinal,
                version_code=version_code,
                release_offset_ms=release_offset_ms,
                mutations=applied,
                blueprint=current,
            )
        )
    return lineage


def plan_lineages(
    n_apps: int,
    n_versions: int,
    seed: int = 0,
    profile: Optional[CorpusProfile] = None,
    spec: Optional[LineageSpec] = None,
) -> List[AppLineage]:
    """Plan ``n_versions`` of every app in the ``(seed, n_apps)`` corpus.

    Pure function of its arguments: two calls with the same inputs plan
    identical lineages, and building any planned version (in any process)
    yields byte-identical APKs -- the farm-worker rematerialization
    contract extended with a version axis.
    """
    if n_versions < 1:
        raise ValueError("n_versions must be >= 1")
    spec = spec or LineageSpec()
    blueprints = CorpusGenerator(profile=profile, seed=seed).sample_blueprints(n_apps)
    return [plan_lineage(blueprint, n_versions, seed, spec) for blueprint in blueprints]


def build_version_record(
    generator: CorpusGenerator, app_version: AppVersion
) -> AppRecord:
    """Assemble the APK for one planned version (any process, any order)."""
    return generator.build_record(
        app_version.blueprint,
        version_code=app_version.version_code,
        release_offset_ms=app_version.release_offset_ms,
    )
