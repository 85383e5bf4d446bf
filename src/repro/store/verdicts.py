"""The cross-shard verdict store: expensive verdicts computed once, fleet-wide.

DyDroid's scale claim rests on never re-analyzing the SDK payloads that
dominate a market: a handful of third-party SDKs account for most
intercepted DEX files, so DroidNative/FlowDroid work is naturally keyed by
payload digest, not by app.  The per-process
:class:`~repro.core.pipeline.LruCache` already deduplicates *within* one
pipeline instance; this module extends that to *every* pipeline instance
sharing a store path -- serial runs, farm shards (separate processes),
network farm nodes (separate hosts sharing a filesystem), and service
workers (separate threads):

- **tier 1** stays the in-process LRU in front (zero-cost hits);
- **tier 2** is this store, a shared :class:`~repro.store.log.AppendLog`
  keyed by ``(kind, digest)``, so a verdict one process publishes is seen
  by every other before it recomputes it.

File layout (one file, line-oriented)::

    {"kind": "header", "version": 1, "fingerprint": "<sha256[:16]>"}
    {"kind": "detection", "digest": "<payload sha256>", "verdict": {...} | null}
    {"kind": "privacy",   "digest": "<payload sha256>", "leaks": [{...}, ...]}

``verdict: null`` records a *computed* benign outcome -- distinct from
absence, which means "never analyzed".  The header fingerprint covers only
the configuration fields verdicts depend on (detector threshold, training
corpus identity, which analyses run), so Monkey seeds, replay settings and
other app-level knobs never invalidate a warm store.  A store written
under a different verdict configuration is refused with
:class:`StoreError`, mirroring the journal fingerprint contracts in
:mod:`repro.farm.checkpoint` and :mod:`repro.service.persist`.

Locking, torn tails, the sqlite sidecar and compaction are the log's
(:mod:`repro.store.log`); duplicate publishes fold first-write-wins
everywhere.  One instance is safe to share across threads.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.static_analysis.malware.droidnative import Detection
from repro.static_analysis.privacy.flowdroid import PrivacyLeak
from repro.store.log import AppendLog, Key, LogBacked

if TYPE_CHECKING:  # a runtime import would cycle through repro.core.pipeline
    from repro.core.config import DyDroidConfig

__all__ = [
    "STORE_VERSION",
    "StoreError",
    "VerdictStore",
    "compact_store",
    "verdict_fingerprint",
]

STORE_VERSION = 1


class StoreError(ValueError):
    """The store file is unusable or was written for another configuration."""


def verdict_fingerprint(config: DyDroidConfig) -> str:
    """Identity of the configuration fields a payload verdict depends on.

    Deliberately narrower than the farm's run fingerprint or the service
    journal's whole-config fingerprint: detection and privacy verdicts are
    pure functions of the payload bytes and the analyzer setup, so only
    the analyzer knobs participate.  Changing the Monkey budget must not
    throw away a week of DroidNative work.
    """
    raw = repr(
        (
            "verdict-store",
            config.droidnative_threshold,
            config.train_samples_per_family,
            config.training_seed,
            config.run_malware,
            config.run_privacy,
        )
    ).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:16]


def _key(entry: Dict[str, object]) -> Optional[Key]:
    kind, digest = entry.get("kind"), entry.get("digest")
    if kind in ("detection", "privacy") and isinstance(digest, str):
        return kind, digest
    return None


def _check_header(
    path: Path, fingerprint: Optional[str], entry: Optional[Dict[str, object]]
) -> None:
    """Refuse anything but a store header (for ``fingerprint``, unless None)."""
    if entry is None or entry.get("kind") != "header":
        raise StoreError("{}: no store header found".format(path))
    if entry.get("version") != STORE_VERSION:
        raise StoreError(
            "{}: unsupported store version {}".format(path, entry.get("version"))
        )
    if fingerprint is not None and entry.get("fingerprint") != fingerprint:
        raise StoreError(
            "verdict store {} was written under a different analyzer "
            "configuration; refusing to serve its verdicts".format(path)
        )


class VerdictStore(LogBacked):
    """Content-addressed detection/privacy verdicts shared across processes.

    One instance per process (or per daemon, shared across its worker
    threads); any number of instances may point at the same path.  A
    lookup misses through this handle's memory, the sidecar index, and the
    file's unindexed tail, so a verdict published by a sibling shard is
    visible before this process recomputes it.
    """

    def __init__(self, path: Union[str, Path], config: DyDroidConfig) -> None:
        self.path = Path(path)
        self.fingerprint = verdict_fingerprint(config)
        #: (kind, digest) -> record this handle published or read, so no
        #: process ever re-reads its own appends.
        self._records: Dict[Key, Dict[str, object]] = {}
        self._log = AppendLog(
            self.path,
            {"kind": "header", "version": STORE_VERSION, "fingerprint": self.fingerprint},
            partial(_check_header, self.path, self.fingerprint),
            StoreError,
            key=_key,
        )

    def _get(self, kind: str, digest: str) -> Optional[Dict[str, object]]:
        entry = self._records.get((kind, digest))
        if entry is None:
            entry = self._log.get((kind, digest))
            if entry is not None:
                self._records[kind, digest] = entry
        return entry

    def _put(self, entry: Dict[str, object]) -> None:
        key = _key(entry)
        if key not in self._records and self._log.append(entry) is not None:
            self._records[key] = entry

    def get_detection(self, digest: str) -> Tuple[bool, Optional[Detection]]:
        """``(found, verdict)``; ``(True, None)`` means computed-benign."""
        entry = self._get("detection", digest)
        if entry is None:
            return False, None
        verdict = entry.get("verdict")
        return True, None if verdict is None else Detection(**verdict)

    def put_detection(self, digest: str, detection: Optional[Detection]) -> None:
        verdict = None if detection is None else asdict(detection)
        self._put({"kind": "detection", "digest": digest, "verdict": verdict})

    def get_privacy(self, digest: str) -> Tuple[bool, Tuple[PrivacyLeak, ...]]:
        entry = self._get("privacy", digest)
        if entry is None:
            return False, ()
        return True, tuple(PrivacyLeak(**leak) for leak in entry.get("leaks") or [])

    def put_privacy(self, digest: str, leaks: Tuple[PrivacyLeak, ...]) -> None:
        plain = [asdict(leak) for leak in leaks]
        self._put({"kind": "privacy", "digest": digest, "leaks": plain})

    def counts(self) -> Dict[str, int]:
        counted = self._log.counts()
        return {kind: counted.get(kind, 0) for kind in ("detection", "privacy")}


def compact_store(path: Union[str, Path]) -> Dict[str, int]:
    """Garbage-collect a store file in place (:meth:`AppendLog.compact`).

    Returns ``{"entries", "dropped_duplicates", "dropped_corrupt",
    "bytes_before", "bytes_after"}``.
    """
    stats = AppendLog.compact(
        path, partial(_check_header, Path(path), None), StoreError, key=_key
    )
    stats["entries"] = stats.pop("kept")
    del stats["dropped_legacy"]
    return stats
