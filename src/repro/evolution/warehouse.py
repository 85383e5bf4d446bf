"""The snapshot warehouse: per-version analyses, durable and diffable.

An evolution run produces one :class:`~repro.core.report.AppAnalysis` per
``(package, version_code)``; the warehouse is their append-only home, a
shared :class:`~repro.store.log.AppendLog` keyed by
``"<package>@<version_code>"``::

    {"kind": "header", "version": 1, "serialization": 1}
    {"kind": "snapshot", "package": "...", "version_code": 7, "analysis": {...}}

Snapshots are immutable: appending a key that already exists is a no-op
(first write wins), which makes warm re-runs idempotent -- the file, and
therefore ``repro evolve diff`` output, is byte-stable across repeats.
Memory holds keys only; ``get`` reads one line.  Warehouses written
before the sqlite sidecar took over may still carry ``{"kind": "index"}``
lines (a former in-file index); reads skip them and ``repro store
compact`` drops them.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.report import SERIALIZATION_VERSION, AppAnalysis
from repro.store.log import AppendLog, Key, LogBacked

__all__ = [
    "WAREHOUSE_VERSION",
    "SnapshotWarehouse",
    "WarehouseError",
    "compact_warehouse",
]

WAREHOUSE_VERSION = 1


class WarehouseError(ValueError):
    """The warehouse file is unusable or from an incompatible writer."""


def _snapshot_key(package: str, version_code: int) -> str:
    return "{}@{}".format(package, version_code)


def _key(entry: Dict[str, object]) -> Optional[Key]:
    if entry.get("kind") == "snapshot" and "package" in entry and "version_code" in entry:
        return "snapshot", _snapshot_key(entry["package"], entry["version_code"])
    return None


def _check_header(path: Path, entry: Optional[Dict[str, object]]) -> None:
    if entry is None or entry.get("kind") != "header":
        raise WarehouseError("{}: no warehouse header found".format(path))
    if entry.get("version") != WAREHOUSE_VERSION:
        raise WarehouseError(
            "{}: unsupported warehouse version {}".format(path, entry.get("version"))
        )
    if entry.get("serialization") != SERIALIZATION_VERSION:
        raise WarehouseError(
            "{}: snapshots use report serialization {}, this build "
            "reads {}".format(path, entry.get("serialization"), SERIALIZATION_VERSION)
        )


class SnapshotWarehouse(LogBacked):
    """Append-only store of per-version analyses keyed by (package, version)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._log = AppendLog(
            self.path,
            {
                "kind": "header",
                "version": WAREHOUSE_VERSION,
                "serialization": SERIALIZATION_VERSION,
            },
            partial(_check_header, self.path),
            WarehouseError,
            key=_key,
            legacy=("index",),
        )
        self._log.keys()  # the key map holds every snapshot as of open

    def append(self, analysis: Union[AppAnalysis, Dict[str, object]]) -> bool:
        """Store one snapshot; returns False if its key already exists."""
        if isinstance(analysis, AppAnalysis):
            analysis = analysis.to_dict()
        package = analysis["package"]
        version_code = int(analysis.get("metadata", {}).get("version_code", 1))
        entry = {
            "kind": "snapshot",
            "package": package,
            "version_code": version_code,
            "analysis": analysis,
        }
        return self._log.append(entry) is not None

    def get(self, package: str, version_code: int) -> Dict[str, object]:
        """The serialized analysis dict stored for one snapshot key."""
        key = _snapshot_key(package, version_code)
        entry = self._log.get(("snapshot", key))
        if entry is None:
            raise KeyError(key)
        return entry["analysis"]

    def get_analysis(self, package: str, version_code: int) -> AppAnalysis:
        return AppAnalysis.from_dict(self.get(package, version_code))

    def _keys(self) -> List[str]:
        """Snapshot keys this handle has met: all as of open (or of its last
        :meth:`counts`), plus its appends and lookups."""
        return [key for _, key in self._log.known()]

    def __contains__(self, key: Tuple[str, int]) -> bool:
        package, version_code = key
        return ("snapshot", _snapshot_key(package, version_code)) in self._log

    def __len__(self) -> int:
        return len(self._log.known())

    def packages(self) -> List[str]:
        return sorted({key.rsplit("@", 1)[0] for key in self._keys()})

    def versions(self, package: str) -> List[int]:
        """Stored version codes for one package, ascending."""
        prefix = package + "@"
        return sorted(int(key.rsplit("@", 1)[1]) for key in self._keys() if key.startswith(prefix))

    def counts(self) -> Dict[str, int]:
        """Stored versions per package, read afresh from the sidecar.

        This sees snapshots a sibling appended after this handle opened,
        still without scanning the log.
        """
        table: Dict[str, int] = {}
        for _, key in self._log.keys():
            package = key.rsplit("@", 1)[0]
            table[package] = table.get(package, 0) + 1
        return table


def compact_warehouse(path: Union[str, Path]) -> Dict[str, int]:
    """Garbage-collect a warehouse file in place (:meth:`AppendLog.compact`).

    Returns ``{"snapshots", "dropped_duplicates", "dropped_corrupt",
    "dropped_index_lines", "bytes_before", "bytes_after"}``.
    """
    stats = AppendLog.compact(
        path,
        partial(_check_header, Path(path)),
        WarehouseError,
        key=_key,
        legacy=("index",),
    )
    stats["snapshots"] = stats.pop("kept")
    stats["dropped_index_lines"] = stats.pop("dropped_legacy")
    return stats
