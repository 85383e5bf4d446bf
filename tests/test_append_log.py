"""Fault-injection harness for every append-only log (``repro.store.log``).

One set of crash scenarios, parametrized over the four log kinds -- the
verdict store, the snapshot warehouse, the farm checkpoint and the
service result journal -- plus the two headerless appenders, the triage
harvest and the event sink:

- a writer killed at every byte of its last record;
- a sibling process SIGKILLed mid-append while a survivor keeps going;
- a corrupt interior line;
- a second owner of a journal;
- files written before the log took over (trailing warehouse index
  lines, newline-sealed store debris).

It also pins the store's work budget: what a get and a put may commit to
the sqlite sidecar, that no handle re-reads its own appends, and that a
warm open of a 10k-record store does no full scan.
"""

import json
import multiprocessing
import os
import random
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.store.log as log_module
from repro.core.config import DyDroidConfig
from repro.evolution import SnapshotWarehouse, WarehouseError, compact_warehouse
from repro.farm import CheckpointError, CheckpointJournal
from repro.farm.jobs import AppResult
from repro.observe.events import EventLog, load_events
from repro.service import ResultJournal, ServicePersistError
from repro.static_analysis.malware.droidnative import Detection
from repro.store import (
    StoreError,
    VerdictStore,
    compact_store,
    index_path,
    verdict_fingerprint,
)
from repro.store.log import AppendLog
from repro.triage.fingerprint import TriageFingerprint
from repro.triage.tier import TriageDecision, TriageGate, load_harvest

CONFIG = DyDroidConfig(train_samples_per_family=2, run_replays=False)
DETECTION = Detection(
    family="DroidKungFu",
    score=0.97,
    matched_sample_id="DroidKungFu-003",
    matched_functions=9,
    total_functions=10,
)
#: record ids the store adapter probes for (ids are small ints everywhere).
ID_UNIVERSE = range(300)


def _unparseable(path: Path) -> int:
    """Complete lines of a headerless log that are not JSON."""
    count = 0
    for raw in path.read_bytes().split(b"\n")[:-1]:
        try:
            json.loads(raw)
        except ValueError:
            count += 1
    return count


# -- one adapter per log kind -------------------------------------------------------


class Kind:
    """How the harness drives one kind of log through its public API."""

    name = ""
    error = ValueError
    #: one writer at a time: siblings are successive, never concurrent.
    single_writer = False
    #: opening a handle cuts a torn tail (the harvest has no open).
    repairs_on_open = True

    def open(self, path: Path):
        raise NotImplementedError

    def append(self, handle, i: int) -> None:
        raise NotImplementedError

    def close(self, handle) -> None:
        handle.close()

    def read(self, path: Path):
        """``[(id, record as read back)]`` sorted by id, via a fresh reader."""
        raise NotImplementedError

    def corrupt(self, path: Path) -> int:
        """Corrupt lines a fresh reader of the whole file reports."""
        self.close(self.open(path))  # owner logs raise on any
        return 0

    def ids(self, path: Path):
        return [i for i, _ in self.read(path)]

    def __repr__(self) -> str:
        return self.name


class StoreKind(Kind):
    name, error = "store", StoreError

    def open(self, path):
        return VerdictStore(path, CONFIG)

    def append(self, store, i):
        store.put_detection("d{}".format(i), DETECTION if i % 2 else None)

    def read(self, path):
        with VerdictStore(path, CONFIG) as store:
            found = [(i, store.get_detection("d{}".format(i))) for i in ID_UNIVERSE]
        return [(i, verdict) for i, verdict in found if verdict[0]]

    def corrupt(self, path):
        index_path(path).unlink(missing_ok=True)  # force a scan of every line
        with VerdictStore(path, CONFIG) as store:
            return store.corrupt_lines

    def found(self, store, i):
        return store.get_detection("d{}".format(i))[0]


class WarehouseKind(Kind):
    name, error = "warehouse", WarehouseError

    def open(self, path):
        return SnapshotWarehouse(path)

    def append(self, warehouse, i):
        warehouse.append({"package": "p{}".format(i), "metadata": {"version_code": 1}})

    def read(self, path):
        with SnapshotWarehouse(path) as warehouse:
            records = [(int(p[1:]), warehouse.get(p, 1)) for p in warehouse.packages()]
        return sorted(records)

    def corrupt(self, path):
        index_path(path).unlink(missing_ok=True)
        with SnapshotWarehouse(path) as warehouse:
            return warehouse.corrupt_lines

    def found(self, warehouse, i):
        return warehouse.get("p{}".format(i), 1) is not None


class CheckpointKind(Kind):
    name, error, single_writer = "checkpoint", CheckpointError, True

    def open(self, path):
        return CheckpointJournal(path, 7, 64, CONFIG, resume=path.exists())

    def append(self, journal, i):
        journal.append_result(AppResult(index=i, package="p{}".format(i), analysis={"i": i}))

    def read(self, path):
        with self.open(path) as journal:
            return sorted(journal.completed.items())


class ResultJournalKind(Kind):
    name, error, single_writer = "result-journal", ServicePersistError, True

    def open(self, path):
        return ResultJournal(path, CONFIG)

    def append(self, journal, i):
        journal.append_result("k{}".format(i), "d{}".format(i), "p{}".format(i), 0.5, {"i": i})

    def read(self, path):
        with self.open(path) as journal:
            return sorted((int(e["digest"][1:]), e) for e in journal.restored)


class HarvestKind(Kind):
    name, repairs_on_open = "harvest", False

    def open(self, path):
        return TriageGate(None, harvest_path=str(path))

    def append(self, gate, i):
        package = "p{}".format(i)
        fingerprint = TriageFingerprint(package, {"f{}".format(i): 1.0}, digest="h{}".format(i))
        gate.harvest(TriageDecision(package, fingerprint, 0.5, 0.9), label=i)

    def close(self, gate):
        pass

    def read(self, path):
        return sorted((label, vector) for vector, label in load_harvest(str(path)))

    def corrupt(self, path):
        return _unparseable(path)


class EventSinkKind(Kind):
    name, single_writer = "event-sink", True

    def open(self, path):
        return EventLog(capacity=8, sink=str(path))

    def append(self, events, i):
        events.emit("test.record", i=i)

    def read(self, path):
        return sorted((event["fields"]["i"], event) for event in load_events(str(path)))

    def corrupt(self, path):
        return _unparseable(path)


KINDS = [
    StoreKind(),
    WarehouseKind(),
    CheckpointKind(),
    ResultJournalKind(),
    HarvestKind(),
    EventSinkKind(),
]
OWNER_KINDS = [kind for kind in KINDS if kind.name in ("checkpoint", "result-journal")]


def write_records(kind, path, ids):
    handle = kind.open(path)
    for i in ids:
        kind.append(handle, i)
    kind.close(handle)


# -- kill mid-record ----------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS, ids=repr)
def test_kill_at_every_byte_of_the_last_record(kind, tmp_path):
    path = tmp_path / "log.jsonl"
    write_records(kind, path, range(3))
    reference = kind.read(path)
    base = path.read_bytes()
    write_records(kind, path, [3])
    last = path.read_bytes()[len(base):]
    assert last.endswith(b"\n") and last.count(b"\n") == 1

    for cut in range(len(last)):  # every proper prefix, the empty one too
        path.write_bytes(base + last[:cut])
        index_path(path).unlink(missing_ok=True)
        assert kind.read(path) == reference, cut
        handle = kind.open(path)
        if kind.repairs_on_open:
            assert path.read_bytes() == base, cut
        kind.append(handle, 4)
        kind.close(handle)
        # the file is the valid prefix plus exactly one new, complete line
        tail = path.read_bytes()[len(base):]
        assert path.read_bytes().startswith(base), cut
        assert tail.endswith(b"\n") and tail.count(b"\n") == 1, cut
        records = kind.read(path)
        assert records[:-1] == reference, cut
        assert [i for i, _ in records] == [0, 1, 2, 4], cut
        assert kind.corrupt(path) == 0, cut


# -- a sibling SIGKILLed mid-append -------------------------------------------------


def _die_mid_append(kind, path, ids, fraction):
    """Child process: append ``ids``, then die ``fraction`` into one more."""

    def torn_write(fd, data):
        os.write(fd, data[: max(1, int(len(data) * fraction))])
        os.kill(os.getpid(), signal.SIGKILL)

    handle = kind.open(path)
    for i in ids:
        kind.append(handle, i)
    if isinstance(kind, EventSinkKind):
        sink = handle._handle

        class Torn:
            def write(self, text):
                torn_write(sink.fileno(), text.encode("utf-8"))

        sink.flush()
        handle._handle = Torn()
    else:
        log_module._write = torn_write
    kind.append(handle, 999)


@pytest.mark.parametrize("kind", KINDS, ids=repr)
def test_sibling_killed_mid_append(kind, tmp_path):
    rng = random.Random("sibling-" + kind.name)
    path = tmp_path / "log.jsonl"
    sibling_ids = list(range(250, 250 + rng.randrange(1, 6)))
    child = multiprocessing.get_context("spawn").Process(
        target=_die_mid_append, args=(kind, path, sibling_ids, rng.uniform(0.05, 0.95))
    )
    survivor = kind.open(path)
    kind.append(survivor, 0)
    survivor_ids = [0]
    if kind.single_writer:
        kind.close(survivor)
        child.start()
        child.join(timeout=60)
        survivor = kind.open(path)
    else:
        child.start()
        while child.is_alive() and len(survivor_ids) < 200:
            # keep appending while the sibling starts, appends and dies
            survivor_ids.append(len(survivor_ids))
            kind.append(survivor, survivor_ids[-1])
            time.sleep(0.002)
        child.join(timeout=60)
    assert not child.is_alive()
    for _ in range(20):
        survivor_ids.append(len(survivor_ids))
        kind.append(survivor, survivor_ids[-1])
    kind.close(survivor)
    assert child.exitcode == -signal.SIGKILL
    # every record a live writer finished appears exactly once; the torn
    # one never does
    assert kind.ids(path) == sorted(survivor_ids + sibling_ids)
    assert kind.corrupt(path) == 0


@pytest.mark.parametrize("kind", KINDS[:2], ids=repr)
def test_next_appender_indexes_a_dead_writers_gap(kind, tmp_path):
    """A writer died after its JSONL append but before its sidecar commit."""
    path = tmp_path / "log.jsonl"
    write_records(kind, path, [0, 1])
    gap = path.read_bytes().splitlines(keepends=True)[-1]
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))
    index_path(path).unlink()
    write_records(kind, path, [0])  # rebuilds the sidecar without record 1
    survivor = kind.open(path)
    with path.open("ab") as handle:
        handle.write(gap)
    kind.append(survivor, 2)  # must index the gap along with its own line
    kind.close(survivor)
    assert kind.ids(path) == [0, 1, 2]


@pytest.mark.parametrize("kind", KINDS[:2], ids=repr)
def test_unreadable_sidecar_is_rebuilt(kind, tmp_path):
    """A sidecar sqlite cannot read as a database is derived data: the next
    open replaces it, and the open after that scans nothing."""
    path = tmp_path / "log.jsonl"
    write_records(kind, path, range(50))
    index_path(path).write_bytes(b"not a database\n" * 64)
    with kind.open(path) as handle:
        assert handle.index_stats()["enabled"]
        assert all(kind.found(handle, i) for i in range(50))
    with kind.open(path) as handle:
        assert handle.index_stats()["full_scans"] == 0


# -- corrupt interior lines ---------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS, ids=repr)
def test_corrupt_interior_line(kind, tmp_path):
    path = tmp_path / "log.jsonl"
    write_records(kind, path, [0, 1])
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1] + [b"not json at all\n"] + lines[-1:]))
    if kind in OWNER_KINDS:
        # the journals are the record: corruption is an error naming the line
        with pytest.raises(kind.error, match=r"log\.jsonl:3: corrupt journal line"):
            kind.read(path)
    elif isinstance(kind, EventSinkKind):
        with pytest.raises(ValueError, match="unparseable event record"):
            kind.read(path)
    else:
        # caches skip and count it
        assert kind.ids(path) == [0, 1]
        assert kind.corrupt(path) == 1


# -- owner mode ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", OWNER_KINDS, ids=repr)
def test_second_owner_fails_fast_before_reading(kind, tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    first = kind.open(path)
    kind.append(first, 0)

    def no_reads(*args, **kwargs):
        raise AssertionError("the file was read before the owner lock")

    monkeypatch.setattr(log_module, "_read", no_reads)
    started = time.monotonic()
    with pytest.raises(kind.error, match="already owned"):
        kind.open(path)
    assert time.monotonic() - started < 1.0  # non-blocking
    monkeypatch.undo()
    kind.close(first)
    assert kind.ids(path) == [0]


# -- files that are not the log ----------------------------------------------------


@pytest.mark.parametrize(
    "data",
    [
        b'{"json": "dumped without a newline"}',
        b'{"kind": "note"}\n{"kind": "note"}\na torn tail',
        b"plain text\n",
    ],
    ids=["no-newline", "foreign-header", "text"],
)
@pytest.mark.parametrize("kind", KINDS[:4], ids=repr)
def test_foreign_file_is_refused_untouched(kind, data, tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(data)
    with pytest.raises(kind.error):
        kind.open(path)
    assert path.read_bytes() == data
    assert not index_path(path).exists()


# -- short reads --------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS[:4], ids=repr)
def test_short_reads_lose_no_record(kind, tmp_path, monkeypatch):
    """One ``pread`` may return less than asked (on Linux at most 2 GiB)."""
    path = tmp_path / "log.jsonl"
    write_records(kind, path, range(8))
    reference = kind.read(path)
    # every line fits in one read, the whole log does not
    cap = max(map(len, path.read_bytes().splitlines(keepends=True)))
    assert path.stat().st_size > 3 * cap
    pread = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, size, offset: pread(fd, min(size, cap), offset))
    index_path(path).unlink(missing_ok=True)  # a cold open scans every line
    assert kind.read(path) == reference
    if kind in KINDS[:2]:
        assert kind.corrupt(path) == 0
        data = path.read_bytes()
        path.write_bytes(data + data.splitlines(keepends=True)[-1])  # one duplicate
        compact = compact_store if isinstance(kind, StoreKind) else compact_warehouse
        stats = compact(path)
        assert (stats["dropped_duplicates"], stats["dropped_corrupt"]) == (1, 0)
        assert path.read_bytes() == data
        assert kind.read(path) == reference


# -- files written before the log took over -----------------------------------------


def _jsonl(*entries) -> bytes:
    return b"".join(json.dumps(e, sort_keys=True).encode() + b"\n" for e in entries)


def test_parent_format_warehouse_with_index_lines(tmp_path):
    path = tmp_path / "w.jsonl"
    snapshot = lambda p: {  # noqa: E731
        "kind": "snapshot", "package": p, "version_code": 1,
        "analysis": {"package": p, "metadata": {"version_code": 1}},
    }
    header = {"kind": "header", "version": 1, "serialization": 1}
    data = _jsonl(header, snapshot("com.a"))
    interior = {"kind": "index", "entries": {"com.a@1": len(_jsonl(header))}}
    data += _jsonl(interior, snapshot("com.b"))
    data += _jsonl({"kind": "index", "entries": {"com.a@1": 1, "com.b@1": 2}})
    path.write_bytes(data)
    for _ in range(2):  # cold (scans), then warm (sidecar)
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.packages() == ["com.a", "com.b"]
            assert warehouse.get("com.a", 1)["package"] == "com.a"
            assert warehouse.get("com.b", 1)["package"] == "com.b"
            assert warehouse.counts() == {"com.a": 1, "com.b": 1}
            assert warehouse.corrupt_lines == 0
    assert path.read_bytes() == data  # reading never rewrites
    stats = compact_warehouse(path)
    assert (stats["snapshots"], stats["dropped_index_lines"]) == (2, 2)
    with SnapshotWarehouse(path) as warehouse:
        assert warehouse.get("com.b", 1)["package"] == "com.b"


def test_parent_format_store_with_sealed_debris(tmp_path):
    path = tmp_path / "s.jsonl"
    header = {"kind": "header", "version": 1, "fingerprint": verdict_fingerprint(CONFIG)}
    data = _jsonl(header, {"kind": "detection", "digest": "d1", "verdict": None})
    data += b'{"kind": "detection", "digest": "dX"\n'  # a torn tail, sealed
    data += _jsonl(
        {"kind": "detection", "digest": "d2", "verdict": None},
        {"kind": "privacy", "digest": "d1", "leaks": []},
    )
    path.write_bytes(data)
    for _ in range(2):
        with VerdictStore(path, CONFIG) as store:
            assert store.get_detection("d1") == (True, None)
            assert store.get_detection("d2") == (True, None)
            assert store.get_detection("dX") == (False, None)
            assert store.get_privacy("d1") == (True, ())
            assert store.counts() == {"detection": 2, "privacy": 1}
    assert StoreKind().corrupt(path) == 1


# -- the store's work budget --------------------------------------------------------


@pytest.fixture
def commits(monkeypatch):
    """Every sqlite COMMIT issued while the test runs, in order."""
    seen = []
    connect = sqlite3.connect

    def traced(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(lambda sql: sql == "COMMIT" and seen.append(sql))
        return conn

    monkeypatch.setattr(sqlite3, "connect", traced)
    return seen


def test_get_commits_nothing_and_put_at_most_once(tmp_path, commits):
    path = tmp_path / "s.jsonl"
    with VerdictStore(path, CONFIG) as store, VerdictStore(path, CONFIG) as sibling:
        for i in range(12):
            digest = "d{}".format(i)
            before = len(commits)
            assert store.get_detection(digest) == (False, None)
            assert store.get_privacy(digest) == (False, ())
            assert len(commits) == before, "a miss committed"
            store.put_detection(digest, DETECTION)
            store.put_privacy(digest, ())
            assert len(commits) - before <= 2, "a put committed twice"
            before = len(commits)
            assert store.get_detection(digest) == (True, DETECTION)
            assert sibling.get_detection(digest) == (True, DETECTION)
            sibling.put_detection(digest, DETECTION)  # already there: no-op
            assert len(commits) == before


def test_sidecar_connection_does_not_fsync(tmp_path, monkeypatch):
    """The sidecar is derived data: its commits skip sqlite's fsyncs."""
    opened = []
    connect = sqlite3.connect

    def traced(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sqlite3, "connect", traced)
    with VerdictStore(tmp_path / "s.jsonl", CONFIG) as store:
        store.put_detection("d0", DETECTION)
        assert opened
        for conn in opened:
            assert conn.execute("PRAGMA synchronous").fetchone() == (0,)


def test_no_handle_rereads_its_own_appends(tmp_path, monkeypatch):
    reads, own = {}, {}
    line, scan, append = AppendLog._line, AppendLog._scan, AppendLog.append

    def traced_line(self, offset):
        raw = line(self, offset)
        reads.setdefault(id(self), []).append((offset, offset + len(raw)))
        return raw

    def traced_scan(self, start, end):
        reads.setdefault(id(self), []).append((start, end))
        return scan(self, start, end)

    def traced_append(self, entry):
        offset = append(self, entry)
        if offset is not None:
            size = len(log_module._encode(entry))
            own.setdefault(id(self), []).append((offset, offset + size))
        return offset

    monkeypatch.setattr(AppendLog, "_line", traced_line)
    monkeypatch.setattr(AppendLog, "_scan", traced_scan)
    monkeypatch.setattr(AppendLog, "append", traced_append)
    path = tmp_path / "s.jsonl"
    VerdictStore(path, CONFIG).close()
    stores = [VerdictStore(path, CONFIG), VerdictStore(path, CONFIG)]
    for i in range(16):
        writer, reader = stores[i % 2], stores[1 - i % 2]
        digest = "d{}".format(i)
        assert writer.get_detection(digest) == (False, None)
        writer.put_detection(digest, DETECTION)
        assert writer.get_detection(digest) == (True, DETECTION)
        assert reader.get_detection(digest) == (True, DETECTION)
    for store in stores:
        handle = id(store._log)
        assert own[handle], "every handle appended"
        for start, end in reads.get(handle, []):
            for own_start, own_end in own[handle]:
                assert end <= own_start or start >= own_end, "re-read its own append"
        store.close()


def test_counts_come_from_a_caught_up_sidecar(tmp_path, commits, monkeypatch):
    path = tmp_path / "s.jsonl"
    with VerdictStore(path, CONFIG) as writer:
        for i in range(40):
            writer.put_detection("d{}".format(i), None)
        writer.put_privacy("d0", ())
    with VerdictStore(path, CONFIG) as store:
        before = len(commits)
        assert store.counts() == {"detection": 40, "privacy": 1}
        assert len(commits) == before  # caught up already: nothing to commit
        assert store._log.known() == []  # and no key was loaded
        with path.open("ab") as handle:  # a writer died before its sidecar commit
            handle.write(_jsonl({"kind": "privacy", "digest": "d1", "leaks": []}))
        assert store.counts() == {"detection": 40, "privacy": 2}
        assert len(commits) == before + 1
        assert store._log.known() == [("privacy", "d1")]
        assert store.full_scans == 0

        def broken(index):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(log_module.StoreIndex, "counts", broken)
        assert store.counts() == {"detection": 40, "privacy": 2}  # by scanning
        assert not store.index_stats()["enabled"]


def test_warm_open_of_10k_records_scans_nothing(tmp_path):
    """A warm open does 0 full scans; point lookups hit the sidecar."""
    path = tmp_path / "verdicts.jsonl"
    verdict = {"family": "DroidKungFu", "score": 0.97, "matched_sample_id": "x",
               "matched_functions": 9, "total_functions": 10}
    entries = [{"kind": "header", "version": 1, "fingerprint": verdict_fingerprint(CONFIG)}]
    for i in range(6000):
        digest = "sha256-{:05d}".format(i)
        entries.append({"kind": "detection", "digest": digest, "verdict": verdict})
        entries.append({"kind": "privacy", "digest": digest, "leaks": []})
    path.write_bytes(_jsonl(*entries))
    with VerdictStore(path, CONFIG) as cold:
        assert cold.full_scans == 1  # builds the sidecar
    with VerdictStore(path, CONFIG) as store:
        assert store.get_detection("sha256-00000")[1] == Detection(**verdict)
        assert store.get_privacy("sha256-05999") == (True, ())
        stats = store.index_stats()
    assert stats == {"enabled": True, "full_scans": 0, "index_hits": 2, "index_misses": 0}


# -- the headerless appenders -------------------------------------------------------


def test_harvest_after_a_siblings_torn_line_keeps_every_record(tmp_path):
    path = tmp_path / "m.json.harvest.jsonl"
    kind = HarvestKind()
    write_records(kind, path, [0])
    with path.open("ab") as handle:
        handle.write(b'{"digest":"h9","features":{"f9"')  # a sibling died here
    write_records(kind, path, [1])
    write_records(kind, path, [2])
    assert [label for _, label in load_harvest(str(path))] == [0, 1, 2]


def test_restarted_event_sink_stays_readable(tmp_path):
    path = tmp_path / "events.jsonl"
    events = EventLog(capacity=8, sink=str(path))
    events.emit("first")
    events.close()
    with path.open("a") as handle:
        handle.write('{"fields": {}, "level": "info", "na')  # SIGKILL mid-write
    events = EventLog(capacity=8, sink=str(path))
    events.emit("second")
    events.emit("third")
    events.close()
    assert [e["name"] for e in load_events(str(path))] == ["first", "second", "third"]


# -- imports ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "module", ["repro.store", "repro.store.log", "repro.evolution", "repro.farm", "repro.service"]
)
def test_imports_as_the_first_import(module):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", "import " + module], check=True, env=env, timeout=60)
