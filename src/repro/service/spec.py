"""Job specifications: what a client asks the service to analyze.

Two spec kinds cover the intake paths DyDroid's crawl had:

- ``corpus`` -- a ``(seed, n_apps, index)`` reference into the seeded
  market.  The daemon assembles the one app from the market's blueprint
  table (:meth:`CorpusGenerator.records_at`), which the process samples
  once and every later job of that market reuses, so submissions stay
  tiny and the same reference always denotes the same APK bytes.
- ``apk``    -- an uploaded package, base64 of :meth:`Apk.to_bytes`.
  Store-page metadata is unknown for uploads, so a neutral blueprint is
  synthesized around the manifest package name.

``key()`` is the *submission* identity used for queue-time deduplication
and in-flight coalescing; the *result* identity is always the built
APK's ``sha256()`` (content addressing), computed by the worker.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from dataclasses import dataclass
from typing import Dict

from repro.android.apk import Apk, ApkFormatError
from repro.corpus.generator import AppBlueprint, AppRecord, CorpusGenerator
from repro.corpus.metadata import AppMetadata

__all__ = ["JobSpec", "SpecError", "MAX_CORPUS_APPS"]

#: upper bound on the corpus size a single submission may reference --
#: admission control for the blueprint pass, not a corpus limitation.
MAX_CORPUS_APPS = 1_000_000


class SpecError(ValueError):
    """The submission payload does not describe a valid job."""


@dataclass(frozen=True)
class JobSpec:
    """One validated, hashable analysis request."""

    kind: str  # "corpus" | "apk"
    seed: int = 0
    n_apps: int = 0
    index: int = -1
    apk_b64: str = ""
    #: per-tenant firewall policy name ("" = the daemon's default config);
    #: part of the submission identity -- the same app analyzed under two
    #: policies is two different results.
    policy: str = ""
    #: per-tenant tier-0 triage override: "" = daemon default, "on" =
    #: require the gate (rejected when the daemon has no model), "off" =
    #: full analyzers for this submission regardless of the daemon model.
    triage: str = ""
    #: per-tenant confidence bar; 0.0 = the daemon's configured/default
    #: threshold.  Only meaningful with ``triage="on"``.
    triage_threshold: float = 0.0

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "JobSpec":
        """Validate a client JSON body into a spec; raises :class:`SpecError`."""
        if not isinstance(payload, dict):
            raise SpecError("submission body must be a JSON object")
        kind = payload.get("kind", "corpus")
        policy = payload.get("policy", "")
        if not isinstance(policy, str):
            raise SpecError("'policy' must be a string")
        if policy:
            from repro.defense.firewall import policy_names

            if policy not in policy_names():
                raise SpecError(
                    "unknown firewall policy {!r} (known: {})".format(
                        policy, ", ".join(policy_names())
                    )
                )
        triage = payload.get("triage", "")
        if triage not in ("", "on", "off"):
            raise SpecError("'triage' must be \"on\" or \"off\"")
        raw_threshold = payload.get("triage_threshold", 0.0)
        try:
            triage_threshold = float(raw_threshold)
        except (TypeError, ValueError):
            raise SpecError("'triage_threshold' must be a number")
        if triage_threshold and triage != "on":
            raise SpecError("'triage_threshold' requires triage: \"on\"")
        if triage_threshold and not 0.5 <= triage_threshold <= 1.0:
            raise SpecError("'triage_threshold' must be in [0.5, 1.0]")
        if kind == "corpus":
            try:
                seed = int(payload["seed"])
                n_apps = int(payload["n_apps"])
                index = int(payload["index"])
            except (KeyError, TypeError, ValueError):
                raise SpecError(
                    "corpus spec needs integer 'seed', 'n_apps' and 'index'"
                )
            if not 0 < n_apps <= MAX_CORPUS_APPS:
                raise SpecError(
                    "n_apps must be in 1..{}".format(MAX_CORPUS_APPS)
                )
            if not 0 <= index < n_apps:
                raise SpecError(
                    "index {} out of range for a corpus of {} apps".format(index, n_apps)
                )
            return cls(
                kind="corpus", seed=seed, n_apps=n_apps, index=index, policy=policy,
                triage=triage, triage_threshold=triage_threshold,
            )
        if kind == "apk":
            raw = payload.get("apk_b64")
            if not isinstance(raw, str) or not raw:
                raise SpecError("apk spec needs a base64 'apk_b64' field")
            try:
                data = base64.b64decode(raw, validate=True)
            except (binascii.Error, ValueError):
                raise SpecError("apk_b64 is not valid base64")
            try:
                Apk.from_bytes(data)
            except ApkFormatError as exc:
                raise SpecError("apk_b64 does not decode to an APK: {}".format(exc))
            return cls(
                kind="apk", apk_b64=raw, policy=policy,
                triage=triage, triage_threshold=triage_threshold,
            )
        raise SpecError("unknown spec kind {!r}".format(kind))

    # -- identity --------------------------------------------------------------

    def key(self) -> str:
        """Stable submission identity (dedup / coalescing key).

        ``policy`` and the triage settings enter the canonical form only
        when set, so keys of plain submissions are byte-identical to those
        of daemons (and journals) that predate the fields.
        """
        if self.kind == "apk":
            # identical bytes submitted under different encodings dedupe.
            raw = b"apk:" + base64.b64decode(self.apk_b64)
            if self.policy:
                raw += b":policy:" + self.policy.encode("utf-8")
            if self.triage:
                raw += b":triage:" + self.triage.encode("utf-8")
            if self.triage_threshold:
                raw += b":triage_threshold:" + repr(self.triage_threshold).encode("utf-8")
        else:
            canonical = {"kind": "corpus", "seed": self.seed,
                         "n_apps": self.n_apps, "index": self.index}
            if self.policy:
                canonical["policy"] = self.policy
            if self.triage:
                canonical["triage"] = self.triage
            if self.triage_threshold:
                canonical["triage_threshold"] = self.triage_threshold
            raw = json.dumps(canonical, sort_keys=True).encode("utf-8")
        return hashlib.sha256(raw).hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        if self.kind == "apk":
            body: Dict[str, object] = {"kind": "apk", "apk_sha256_prefix": self.key()}
        else:
            body = {
                "kind": "corpus",
                "seed": self.seed,
                "n_apps": self.n_apps,
                "index": self.index,
            }
        if self.policy:
            body["policy"] = self.policy
        if self.triage:
            body["triage"] = self.triage
        if self.triage_threshold:
            body["triage_threshold"] = self.triage_threshold
        return body

    # -- materialization (worker side) -----------------------------------------

    def build_record(self) -> AppRecord:
        """Build the :class:`AppRecord` this spec denotes."""
        if self.kind == "corpus":
            generator = CorpusGenerator(seed=self.seed)
            return generator.records_at(self.n_apps, [self.index])[0]
        apk = Apk.from_bytes(base64.b64decode(self.apk_b64))
        package = apk.package
        return AppRecord(
            apk=apk,
            metadata=AppMetadata(
                category="uploaded",
                downloads=0,
                n_ratings=0,
                avg_rating=0.0,
                release_time_ms=0,
            ),
            blueprint=AppBlueprint(index=-1, package=package, category="uploaded"),
        )
