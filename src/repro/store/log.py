"""The append-only log under the verdict store, the warehouse and both journals.

Each of those files is one JSONL log: a header line, then one record per
line, only ever appended to.  :class:`AppendLog` does everything their
owners share -- the header write and check, the ``flock``, torn-tail
repair, complete-line scans, appends, the sqlite sidecar
(:mod:`repro.store.index`) and compaction -- and each owner keeps only
its record schema, header fields, error class and queries.  The rules
(torn tail, lock modes, corrupt lines, sidecar, compaction) are stated
in ``docs/architecture.md`` §18; each is enforced in one place here.

Headerless logs (the triage harvest, the event sink) follow the same
torn-tail rule through :func:`repair_and_append` and :func:`complete_lines`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import Counter
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Type, Union

from repro.store.index import SQLITE_ERRORS, StoreIndex, index_path, sqlite_available

try:  # POSIX only; elsewhere the logs degrade to in-process thread safety.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["AppendLog", "Key", "LogBacked", "complete_lines", "repair_and_append"]

Entry = Dict[str, object]
#: a keyed record's identity: (kind, digest).
Key = Tuple[str, str]


@contextmanager
def _flock(fd: int, exclusive: bool) -> Iterator[None]:
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
    try:
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)


def _parse(raw: bytes) -> Optional[Entry]:
    try:
        entry = json.loads(raw)
    except ValueError:
        return None
    return entry if isinstance(entry, dict) else None


def _encode(entry: Entry) -> bytes:
    return json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n"


def _read(fd: int, offset: int, size: int) -> bytes:
    """``size`` bytes from ``offset``, fewer only at EOF.  One ``pread`` may
    return less (on Linux at most 2 GiB), so this loops."""
    data = os.pread(fd, size, offset)
    while 0 < len(data) < size:
        more = os.pread(fd, size - len(data), offset + len(data))
        if not more:
            break
        data += more
    return data


def _write(fd: int, data: bytes, offset: Optional[int] = None) -> None:
    """Write all of ``data`` at ``offset`` (default: the end); one call may
    write less, as :func:`_read` may read less."""
    view = memoryview(data)
    while view:
        if offset is None:
            done = os.write(fd, view)
        else:
            done = os.pwrite(fd, view, offset)
            offset += done
        view = view[done:]


def _repair(fd: int) -> int:
    """Truncate a torn last line (exclusive lock held); returns the new size."""
    size = end = os.fstat(fd).st_size
    chunk = 1  # usually the last byte already is the newline
    while end > 0:
        start = max(0, end - chunk)
        cut = _read(fd, start, end - start).rfind(b"\n")
        if cut >= 0:
            end = start + cut + 1
            break
        end, chunk = start, 1 << 16
    if end < size:
        os.ftruncate(fd, end)
    return end


def _append(fd: int, data: bytes) -> int:
    """Repair the tail, then append ``data``; returns where it landed."""
    offset = _repair(fd)
    _write(fd, data)
    return offset


def repair_and_append(path: Union[str, Path], data: bytes = b"") -> None:
    """Append complete lines to a headerless log, repairing a torn tail first.

    Same lock and torn-tail rule as :class:`AppendLog`; with no ``data``
    it only repairs, which is what an appender does when it opens.
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        with _flock(fd, exclusive=True):
            _append(fd, data)
    finally:
        os.close(fd)


def complete_lines(path: Union[str, Path]) -> List[bytes]:
    """The lines of a headerless log, never reading past the last newline."""
    with open(path, "rb") as handle:
        data = handle.read()
    return data[: data.rfind(b"\n") + 1].splitlines()


class AppendLog:
    """One JSONL log open for appends.

    ``header`` is written when the log is empty; with ``None`` an empty or
    missing log is refused.  ``check_header`` receives line 1 parsed
    (``None`` if there is none) and raises the owner's error.

    An *owner* log passes ``owner``, the message a second opener gets, and
    ``load``, which receives ``(line_no, record)`` for every record at
    open; ``fresh`` empties it first.  A *keyed* log passes ``key``, which
    names a record's ``(kind, digest)`` or returns ``None`` for a line that
    is not one; lines of a ``legacy`` kind are skipped, not counted as
    corrupt.
    """

    def __init__(
        self,
        path: Union[str, Path],
        header: Optional[Entry],
        check_header: Callable[[Optional[Entry]], None],
        error: Type[Exception],
        *,
        owner: str = "",
        load: Optional[Callable[[int, Entry], None]] = None,
        fresh: bool = False,
        key: Optional[Callable[[Entry], Optional[Key]]] = None,
        legacy: Tuple[str, ...] = (),
    ) -> None:
        self.path = Path(path)
        self._owned = bool(owner)
        self._key = key
        self._skip = ("header",) + tuple(legacy)
        self._mutex = threading.Lock()
        #: key -> offset of its first record, for every key this handle met.
        self._offsets: Dict[Key, int] = {}
        #: every complete line before this offset is in _offsets or indexed.
        self._horizon = 0
        self._index: Optional[StoreIndex] = None
        self.corrupt_lines = self.full_scans = self.index_hits = self.index_misses = 0
        flags = os.O_RDWR | os.O_APPEND
        if header is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            flags |= os.O_CREAT
        self._fd = os.open(self.path, flags, 0o644)
        try:
            if self._owned and fcntl is not None:
                try:
                    fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    raise error(owner.format(self.path)) from None
            with self._locked(exclusive=True):
                self._open(header, check_header, error, load, fresh)
        except BaseException:
            self.close()
            raise

    def _open(self, header, check_header, error, load, fresh) -> None:
        if fresh:
            os.ftruncate(self._fd, 0)
        if header is not None and os.fstat(self._fd).st_size == 0:
            first = _encode(header)
            _write(self._fd, first)
            size = self._horizon = len(first)
        else:
            # a file that is not this log -- no complete header line
            # included -- is refused before any repair touches it
            first = self._line(0)
            check_header(_parse(first))
            size = _repair(self._fd)
        if load is not None:
            for line_no, (_, entry) in enumerate(self._lines(len(first), size), 2):
                if entry is None:
                    raise error("{}:{}: corrupt journal line".format(self.path, line_no))
                load(line_no, entry)
        if self._key is not None:
            if sqlite_available():
                fingerprint = hashlib.sha256(first).hexdigest()[:16]
                self._index = StoreIndex(index_path(self.path), fingerprint, size)
            self._catch_up(self._horizon)

    # -- reading -----------------------------------------------------------------

    @contextmanager
    def _locked(self, exclusive: bool) -> Iterator[None]:
        """A shared log's lock; an owner log holds its own for good."""
        if self._owned:
            yield
        else:
            with _flock(self._fd, exclusive):
                yield

    def _line(self, offset: int) -> bytes:
        """The complete line starting at ``offset`` (``b""`` if none ends)."""
        size = 4096
        while True:
            data = _read(self._fd, offset, size)
            cut = data.find(b"\n")
            if cut >= 0 or len(data) < size:
                return data[: cut + 1]
            size *= 8

    def _lines(self, start: int, end: int) -> Iterator[Tuple[int, Optional[Entry]]]:
        """``(offset, record or None)`` per complete line in [start, end)."""
        data = _read(self._fd, start, end - start) if end > start else b""
        for raw in data.split(b"\n")[:-1]:
            yield start, _parse(raw)
            start += len(raw) + 1
            self._horizon = max(self._horizon, start)

    def _scan(self, start: int, end: int) -> List[Tuple[str, str, int]]:
        """Fold the keyed records in [start, end) into the offset map (lock
        held); returns them as sidecar rows."""
        if start == 0:
            self.full_scans += 1
        rows = []
        for offset, entry in self._lines(start, end):
            key = None if entry is None else self._key(entry)
            if key is not None:
                self._offsets.setdefault(key, offset)
                rows.append(key + (offset,))
            elif entry is None or entry.get("kind") not in self._skip:
                self.corrupt_lines += 1
        return rows

    def _refresh(self, watermark: int) -> None:
        """Fold the complete lines past both the horizon and ``watermark``."""
        start = self._horizon if self._index is None else max(self._horizon, watermark)
        if os.fstat(self._fd).st_size > start:  # else no bytes to read, no lock to wait on
            with self._locked(exclusive=False):
                self._scan(start, os.fstat(self._fd).st_size)

    # -- the sidecar -------------------------------------------------------------

    def _sidecar(self, call: Callable[[StoreIndex], object]):
        """Run ``call`` on the sidecar: the one place sqlite may fail.

        On any sqlite error the sidecar is dropped for this handle and the
        horizon rewinds to byte 0, so the next scan folds the whole log.
        """
        if self._index is None:
            return None
        try:
            return call(self._index)
        except SQLITE_ERRORS:
            index, self._index = self._index, None
            self._horizon = 0
            with suppress(*SQLITE_ERRORS):
                index.close()
            return None

    def _indexed(self) -> int:
        """Where the unindexed tail starts (without a sidecar: the horizon)."""
        watermark = self._sidecar(lambda index: index.watermark())
        return self._horizon if watermark is None else watermark

    def _catch_up(self, floor: int = 0) -> None:
        """Index the unindexed tail in one commit (exclusive lock held).

        Lines this handle folded without indexing lie between the watermark
        and the horizon, so only an open, whose horizon at most skips the
        header it wrote, passes the horizon as ``floor``.
        """
        watermark = self._indexed()
        size = os.fstat(self._fd).st_size
        rows = self._scan(max(watermark, floor), size)
        if rows or watermark < size:
            self._sidecar(lambda index: index.advance(rows, size))

    def _probe(self, key: Key) -> Tuple[Optional[int], int]:
        """Sidecar offset of ``key`` (or ``None``) and watermark, in one read."""
        found = self._sidecar(lambda index: index.probe(*key))
        if found is None:  # no sidecar
            return None, self._horizon
        offset, watermark = found
        if offset is None:
            self.index_misses += 1
        else:
            self.index_hits += 1
            self._offsets[key] = offset
        return offset, watermark

    # -- the API -----------------------------------------------------------------

    def append(self, entry: Entry) -> Optional[int]:
        """Append one record; returns its offset, or ``None`` when a record
        with its key is already in the log (first write wins)."""
        data = _encode(entry)
        key = self._key(entry) if self._key else None
        with self._mutex:
            if key in self._offsets:
                return None
            with self._locked(exclusive=True):
                rows = []
                if key is not None:
                    # under the exclusive lock the sidecar cannot move
                    indexed, watermark = self._probe(key)
                    rows = self._scan(watermark, os.fstat(self._fd).st_size)
                    if indexed is not None or key in self._offsets:
                        return None
                offset = _append(self._fd, data)
                end = offset + len(data)
                if key is not None:
                    self._offsets[key] = offset
                    rows.append(key + (offset,))
                    self._sidecar(lambda index: index.advance(rows, end))
                if self._horizon == offset:
                    self._horizon = end
                return offset

    def get(self, key: Key) -> Optional[Entry]:
        """The first record stored under ``key``, or ``None``."""
        with self._mutex:
            for _ in range(2):
                offset = self._offsets.get(key)
                if offset is None:
                    offset, watermark = self._probe(key)
                    if offset is None:
                        self._refresh(watermark)
                        offset = self._offsets.get(key)
                if offset is None:
                    return None
                entry = _parse(self._line(offset))
                if entry is not None and self._key(entry) == key:
                    return entry
                # The log was rewritten under the offsets: rebuild from byte 0.
                self._sidecar(lambda index: index.rebuild([], 0))
                self._offsets.clear()
                self._horizon = 0
            return None

    def keys(self) -> List[Key]:
        """Every key in the log: the sidecar's plus the unindexed tail's."""
        with self._mutex:
            watermark = self._indexed()
            for kind, digest, offset in self._sidecar(lambda index: index.entries()) or ():
                self._offsets.setdefault((kind, digest), offset)
            self._refresh(watermark)
            return list(self._offsets)

    def known(self) -> List[Key]:
        """The keys this handle has met: its last :meth:`keys`, its own
        appends and its lookups; reads nothing."""
        with self._mutex:
            return list(self._offsets)

    def __contains__(self, key: Key) -> bool:
        """Whether this handle has met ``key`` (see :meth:`known`)."""
        with self._mutex:
            return key in self._offsets

    def counts(self) -> Dict[str, int]:
        """Records per kind, counted by the sidecar once it is caught up
        (at most one commit), without loading its keys."""
        with self._mutex, self._locked(exclusive=True):
            self._catch_up()
            counted = self._sidecar(lambda index: index.counts())
            if counted is None:  # no sidecar: the offset map holds every key
                self._scan(self._horizon, os.fstat(self._fd).st_size)
                counted = Counter(kind for kind, _ in self._offsets)
            return dict(counted)

    def close(self) -> None:
        """Release the file -- and with it an owner's lock -- and the sidecar."""
        with self._mutex:
            self._sidecar(lambda index: index.close())
            self._index = None
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1

    @classmethod
    def compact(cls, path, check_header, error, *, key, legacy=()) -> Dict[str, int]:
        """Rewrite a keyed log keeping the first record of every key.

        Duplicates, corrupt and ``legacy`` lines and a torn tail are
        dropped; survivors stay byte-identical, so every lookup answers as
        before.  The rewrite is ``pwrite`` + ``ftruncate`` under the
        exclusive lock, never a rename, so sibling handles keep the inode,
        but it moves records: run it offline.  Reopening rebuilds the
        sidecar.  The arguments are the constructor's; returns ``kept``,
        the ``dropped_*`` counts and ``bytes_before``/``bytes_after``.
        """
        path = Path(path)
        try:
            fd = os.open(path, os.O_RDWR)
        except FileNotFoundError:
            check_header(None)
            raise
        try:
            with _flock(fd, exclusive=True):
                data = _read(fd, 0, os.fstat(fd).st_size)
                lines = data.split(b"\n")
                torn = lines.pop()
                check_header(_parse(lines[0]) if lines else None)
                stats = {
                    "dropped_duplicates": 0,
                    "dropped_corrupt": int(bool(torn)),
                    "dropped_legacy": 0,
                }
                kept, seen = [lines[0]], set()
                for raw in lines[1:]:
                    entry = _parse(raw)
                    name = None if entry is None else key(entry)
                    if name in seen:
                        stats["dropped_duplicates"] += 1
                    elif name is not None:
                        seen.add(name)
                        kept.append(raw)
                    elif entry is not None and entry.get("kind") in legacy:
                        stats["dropped_legacy"] += 1
                    else:
                        stats["dropped_corrupt"] += 1
                compacted = b"".join(line + b"\n" for line in kept)
                if compacted != data:
                    _write(fd, compacted, 0)
                    os.ftruncate(fd, len(compacted))
                    index_path(path).unlink(missing_ok=True)
        finally:
            os.close(fd)
        cls(path, None, check_header, error, key=key, legacy=legacy).close()
        stats.update(kept=len(seen), bytes_before=len(data), bytes_after=len(compacted))
        return stats


class LogBacked:
    """What every owner of an :class:`AppendLog`, kept as ``_log``, shares."""

    corrupt_lines = property(lambda self: self._log.corrupt_lines)
    full_scans = property(lambda self: self._log.full_scans)
    index_hits = property(lambda self: self._log.index_hits)
    index_misses = property(lambda self: self._log.index_misses)

    def index_stats(self) -> Dict[str, object]:
        """Sidecar health counters (for stats endpoints and benchmarks)."""
        counters = ("full_scans", "index_hits", "index_misses")
        stats = {name: getattr(self._log, name) for name in counters}
        return dict(stats, enabled=self._log._index is not None)

    def close(self) -> None:
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
