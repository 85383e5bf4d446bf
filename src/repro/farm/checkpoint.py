"""The checkpoint journal: append-only JSONL making farm runs resumable.

Line 1 is a header binding the journal to its run inputs::

    {"kind": "header", "version": 1, "corpus_seed": 7, "n_apps": 600,
     "fingerprint": "<sha256[:16] of (seed, n_apps, config)>"}

then one line per settled app, in completion order::

    {"kind": "result", "index": 17, "package": "com.a.b", "retries": 0,
     "build_s": 0.01, "analyze_s": 0.12, "analysis": {...AppAnalysis...}}
    {"kind": "quarantine", "index": 23, "package": "com.c.d",
     "error": "...", "attempts": 3}

Appends are flushed line-by-line, so a killed run loses at most the app in
flight.  Quarantined apps are remembered too -- resuming does not re-run
an app that already proved poisonous.  The file is an *owner*
:class:`~repro.store.log.AppendLog`: exactly one coordinator holds it
(workers ship results back; network workers POST them), a second one
fails fast with :class:`CheckpointError`, a torn tail is cut off on
resume, and corruption anywhere earlier is an error.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Set, Union

from repro.core.config import DyDroidConfig
from repro.farm.jobs import AppResult, QuarantineRecord, run_fingerprint
from repro.store.log import AppendLog, LogBacked

JOURNAL_VERSION = 1


class CheckpointError(ValueError):
    """The journal is unreadable or belongs to a different run."""


class CheckpointJournal(LogBacked):
    """Single-writer journal owned by the coordinator process."""

    def __init__(
        self,
        path: Union[str, Path],
        corpus_seed: int,
        n_apps: int,
        config: DyDroidConfig,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = run_fingerprint(corpus_seed, n_apps, config)
        self.corpus_seed = corpus_seed
        self.n_apps = n_apps
        #: index -> serialized AppAnalysis restored from a previous run.
        self.completed: Dict[int, Dict[str, object]] = {}
        #: index -> quarantine line restored from a previous run.
        self.quarantined: Dict[int, Dict[str, object]] = {}
        if resume and not self.path.exists():
            raise CheckpointError("no checkpoint to resume at {}".format(self.path))
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "corpus_seed": corpus_seed,
            "n_apps": n_apps,
            "fingerprint": self.fingerprint,
        }
        self._log = AppendLog(
            self.path,
            None if resume else header,
            self._check_header,
            CheckpointError,
            owner="checkpoint {} is already owned by a live coordinator; "
            "refusing to double-write it",
            load=self._restore,
            fresh=not resume,
        )

    def _check_header(self, header: Optional[dict]) -> None:
        if header is None or header.get("kind") != "header":
            raise CheckpointError("{} does not start with a journal header".format(self.path))
        if header.get("version") != JOURNAL_VERSION:
            raise CheckpointError(
                "unsupported journal version {}".format(header.get("version"))
            )
        if header.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                "checkpoint {} was written for a different run "
                "(seed/corpus size/pipeline config changed)".format(self.path)
            )

    def _restore(self, line_no: int, entry: dict) -> None:
        kind = entry.get("kind")
        if kind not in ("result", "quarantine"):
            raise CheckpointError(
                "{}:{}: unknown entry kind {!r}".format(self.path, line_no, kind)
            )
        index = self._require(entry, "index", line_no)
        if kind == "result":
            self.completed[index] = self._require(entry, "analysis", line_no)
        else:
            self.quarantined[index] = entry

    def _require(self, entry: dict, key: str, line_no: int):
        if key not in entry:
            raise CheckpointError(
                "{}:{}: {} entry is missing required field {!r}".format(
                    self.path, line_no, entry.get("kind"), key
                )
            )
        return entry[key]

    def append_result(self, result: AppResult) -> None:
        self._log.append(
            {
                "kind": "result",
                "index": result.index,
                "package": result.package,
                "retries": result.retries,
                "build_s": result.build_s,
                "analyze_s": result.analyze_s,
                "analysis": result.analysis,
            }
        )

    def append_quarantine(self, record: QuarantineRecord) -> None:
        self._log.append(
            {
                "kind": "quarantine",
                "index": record.index,
                "package": record.package,
                "error": record.error,
                "attempts": record.attempts,
            }
        )

    def settled_indices(self) -> Set[int]:
        """Indices a resumed run must not re-analyze."""
        return set(self.completed) | set(self.quarantined)
