"""Result persistence: append-only JSONL surviving daemon restarts.

Modeled on :mod:`repro.farm.checkpoint`: line 1 is a header binding the
journal to the daemon's pipeline configuration::

    {"kind": "header", "version": 1, "fingerprint": "<sha256[:16] of config>"}

then one line per *distinct* analyzed APK, in completion order::

    {"kind": "result", "digest": "...", "spec_key": "...",
     "package": "com.a.b", "analyze_s": 0.12, "analysis": {...}}

It is an *owner* :class:`~repro.store.log.AppendLog`: a killed daemon
loses at most the job in flight, its torn tail is cut off on the next
start, corruption anywhere earlier is an error, and a second daemon on
the same ``--persist`` file fails fast with :class:`ServicePersistError`.
The fingerprint check refuses to serve results computed under a
different pipeline configuration -- the same contract the farm checkpoint
enforces for ``--resume``.  Unlike the farm journal, opening an existing
file *resumes by default*: a restarted daemon should serve what it
already computed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.config import DyDroidConfig
from repro.store.log import AppendLog, LogBacked

__all__ = ["JOURNAL_VERSION", "ResultJournal", "ServicePersistError", "pipeline_fingerprint"]

JOURNAL_VERSION = 1


class ServicePersistError(ValueError):
    """The journal is unreadable or was written under another pipeline config."""


def pipeline_fingerprint(config: DyDroidConfig) -> str:
    """Stable identity of the pipeline configuration alone.

    The cache is content-addressed, so unlike the farm's
    :func:`~repro.farm.jobs.run_fingerprint` no corpus identity is mixed
    in -- results are reusable across seeds as long as the *analysis*
    behaves identically.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


class ResultJournal(LogBacked):
    """Single-file journal shared by all scheduler threads."""

    def __init__(self, path: Union[str, Path], config: DyDroidConfig) -> None:
        self.path = Path(path)
        self.fingerprint = pipeline_fingerprint(config)
        #: entries restored from a previous daemon's lifetime.
        self.restored: List[Dict[str, object]] = []
        self._log = AppendLog(
            self.path,
            {"kind": "header", "version": JOURNAL_VERSION, "fingerprint": self.fingerprint},
            self._check_header,
            ServicePersistError,
            owner="result journal {} is already owned by a live daemon; "
            "refusing to double-write it",
            load=self._restore,
        )

    def _check_header(self, header: Optional[dict]) -> None:
        if header is None or header.get("kind") != "header":
            raise ServicePersistError(
                "{} does not start with a journal header".format(self.path)
            )
        if header.get("version") != JOURNAL_VERSION:
            raise ServicePersistError(
                "unsupported journal version {}".format(header.get("version"))
            )
        if header.get("fingerprint") != self.fingerprint:
            raise ServicePersistError(
                "journal {} was written under a different pipeline "
                "configuration; refusing to serve its results".format(self.path)
            )

    def _restore(self, line_no: int, entry: dict) -> None:
        if entry.get("kind") != "result":
            raise ServicePersistError(
                "{}:{}: unknown entry kind {!r}".format(self.path, line_no, entry.get("kind"))
            )
        for key in ("spec_key", "digest", "package", "analysis"):
            if key not in entry:
                raise ServicePersistError(
                    "{}:{}: result entry is missing required field "
                    "{!r}".format(self.path, line_no, key)
                )
        self.restored.append(entry)

    def append_result(
        self,
        spec_key: str,
        digest: str,
        package: str,
        analyze_s: float,
        analysis: Dict[str, object],
    ) -> None:
        self._log.append(
            {
                "kind": "result",
                "spec_key": spec_key,
                "digest": digest,
                "package": package,
                "analyze_s": round(analyze_s, 6),
                "analysis": analysis,
            }
        )
