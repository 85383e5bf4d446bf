"""Sqlite sidecar index for a keyed append-only log (:mod:`repro.store.log`).

The JSONL file stays the single source of truth.  The derived
``<log>.idx`` database next to it maps each ``(kind, digest)`` to the
byte offset of its first line, up to a ``watermark``, so warm opens and
point lookups skip the linear scan.  It is a cache, never an authority:
a validation failure (schema drift, another log's fingerprint, a
watermark past EOF) resets it, a file sqlite cannot read as a database
is replaced, and losing it costs one full scan.  The
watermark only advances in the transaction that inserts every entry
below it, and only holders of the log's exclusive ``flock`` write here.
The schema is in ``docs/architecture.md`` §18.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

try:  # stdlib, but allow degraded operation if the build lacks it.
    import sqlite3
except ImportError:  # pragma: no cover - sqlite3 ships with CPython
    sqlite3 = None

__all__ = [
    "INDEX_SCHEMA_VERSION",
    "SQLITE_ERRORS",
    "StoreIndex",
    "index_path",
    "sqlite_available",
]

INDEX_SCHEMA_VERSION = 1

#: exception types meaning "the sidecar is unavailable, fall back to scans".
SQLITE_ERRORS = (sqlite3.Error,) if sqlite3 is not None else ()

#: rows are (kind, digest, byte offset of the line in the JSONL).
IndexRow = Tuple[str, str, int]


def sqlite_available() -> bool:
    return sqlite3 is not None


def index_path(store_path: Union[str, Path]) -> Path:
    """Sidecar path for a log file: ``verdicts.jsonl`` -> ``verdicts.jsonl.idx``."""
    store_path = Path(store_path)
    return store_path.with_name(store_path.name + ".idx")


class StoreIndex:
    """Offset index over one append-only JSONL file.

    ``fingerprint`` identifies the log the sidecar was built for; one
    written for another fingerprint (the JSONL was replaced) is reset.
    ``store_size`` is the JSONL's byte size at open, used to detect a
    stale watermark after an external truncate or swap.

    The database is opened and validated on first use, so every sqlite
    failure -- opening included -- surfaces from a method call as
    :class:`sqlite3.Error`, which callers treat as "index unavailable".
    """

    def __init__(self, path: Union[str, Path], fingerprint: str, store_size: int) -> None:
        if sqlite3 is None:  # pragma: no cover - sqlite3 ships with CPython
            raise RuntimeError("sqlite3 is unavailable")
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._store_size = store_size
        self._db = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def _conn(self):
        if self._db is None:
            try:
                self._db = self._connect()
            except sqlite3.OperationalError:
                raise  # locked or busy: the caller drops the sidecar
            except sqlite3.DatabaseError:
                # Not a database, or corrupt.  The first use is the log's
                # open, under its exclusive lock: start over, once.
                self.path.unlink(missing_ok=True)
                self._db = self._connect()
        return self._db

    def _connect(self):
        db = sqlite3.connect(str(self.path), timeout=5.0, check_same_thread=False)
        db.isolation_level = None  # explicit transactions only
        try:
            self._ensure_schema(db, self._store_size)
        except BaseException:
            db.close()
            raise
        return db

    def _ensure_schema(self, cur, store_size: int) -> None:
        cur.execute("BEGIN IMMEDIATE")
        try:
            cur.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            cur.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " kind TEXT NOT NULL, digest TEXT NOT NULL, offset INTEGER NOT NULL,"
                " PRIMARY KEY (kind, digest)) WITHOUT ROWID"
            )
            version = self._meta(cur, "schema_version")
            fingerprint = self._meta(cur, "fingerprint")
            watermark = self._meta(cur, "watermark")
            stale = (
                version != str(INDEX_SCHEMA_VERSION)
                or fingerprint != self.fingerprint
                or watermark is None
                or not watermark.isdigit()
                or int(watermark) > store_size
            )
            if stale:
                cur.execute("DELETE FROM entries")
                cur.execute("DELETE FROM meta")
                rows = [
                    ("schema_version", str(INDEX_SCHEMA_VERSION)),
                    ("fingerprint", self.fingerprint),
                    ("watermark", "0"),
                ]
                cur.executemany("INSERT INTO meta (key, value) VALUES (?, ?)", rows)
            cur.execute("COMMIT")
        except BaseException:
            cur.execute("ROLLBACK")
            raise

    @staticmethod
    def _meta(conn, key: str) -> Optional[str]:
        row = conn.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return None if row is None else str(row[0])

    def close(self) -> None:
        if self._db is not None:
            self._db.close()

    # -- reads -------------------------------------------------------------------

    def watermark(self) -> int:
        value = self._meta(self._conn, "watermark")
        return int(value) if value is not None and value.isdigit() else 0

    def probe(self, kind: str, digest: str) -> Tuple[Optional[int], int]:
        """``(offset of the key or None, watermark)``, read in one statement."""
        offset, watermark = self._conn.execute(
            "SELECT (SELECT offset FROM entries WHERE kind = ? AND digest = ?),"
            " (SELECT value FROM meta WHERE key = 'watermark')",
            (kind, digest),
        ).fetchone()
        mark = int(watermark) if watermark is not None and str(watermark).isdigit() else 0
        return (None if offset is None else int(offset)), mark

    def counts(self) -> Dict[str, int]:
        """Indexed keys per kind."""
        rows = self._conn.execute("SELECT kind, COUNT(*) FROM entries GROUP BY kind")
        return {str(kind): int(count) for kind, count in rows}

    def entries(self) -> List[IndexRow]:
        """Every indexed ``(kind, digest, offset)``, for whole-log listings."""
        return [
            (str(kind), str(digest), int(offset))
            for kind, digest, offset in self._conn.execute(
                "SELECT kind, digest, offset FROM entries"
            )
        ]

    # -- writes ------------------------------------------------------------------

    def advance(self, rows: Iterable[IndexRow], new_watermark: int) -> None:
        """Index one appended range: insert ``rows``, raise the watermark.

        First write wins (``INSERT OR IGNORE``) and the watermark only
        moves forward.  Entries and watermark move in one transaction:
        the watermark never claims coverage the entries table lacks.
        """
        self._write(rows, new_watermark, clear=False)

    def rebuild(self, rows: Iterable[IndexRow], watermark: int) -> None:
        """Replace the whole index (the JSONL was rewritten)."""
        self._write(rows, watermark, clear=True)

    def _write(self, rows: Iterable[IndexRow], watermark: int, clear: bool) -> None:
        cur = self._conn
        cur.execute("BEGIN IMMEDIATE")
        try:
            if clear:
                cur.execute("DELETE FROM entries")
                cur.execute("UPDATE meta SET value = '0' WHERE key = 'watermark'")
            cur.executemany(
                "INSERT OR IGNORE INTO entries (kind, digest, offset)"
                " VALUES (?, ?, ?)",
                list(rows),
            )
            cur.execute(
                "UPDATE meta SET value = ? WHERE key = 'watermark'"
                " AND CAST(value AS INTEGER) < ?",
                (str(int(watermark)), int(watermark)),
            )
            cur.execute("COMMIT")
        except BaseException:
            cur.execute("ROLLBACK")
            raise
