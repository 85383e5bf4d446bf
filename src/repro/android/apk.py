"""The APK installation package.

An :class:`Apk` is a zip-like archive of named entries, mirroring a real
installation package:

- ``AndroidManifest.xml`` -- serialized :class:`AndroidManifest`;
- ``classes.dex``, ``classes2.dex``, ... -- serialized DEX files;
- ``lib/<arch>/<name>.so`` -- serialized native libraries;
- ``assets/...`` -- arbitrary resources, including packed (encrypted) DEX
  payloads for hardened apps;
- ``META-INF/...`` -- signing/integrity data.

Two in-the-wild defenses are represented *inside* the archive, so the
analysis tooling discovers them the way apktool does -- by choking on them:

- :data:`ANTI_DECOMPILATION_ENTRY`: a resource crafted to crash the
  decompiler (apps using decompiler implementation bugs);
- :data:`ANTI_REPACKAGING_ENTRY`: integrity data the rewriter cannot
  regenerate, so rewrite/repack fails ("Rewriting failure" in Table II).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.android.dex import DexFile, is_dex_bytes, is_encrypted_dex_bytes
from repro.android.manifest import AndroidManifest
from repro.android.nativelib import NativeLibrary, is_native_bytes

MANIFEST_ENTRY = "AndroidManifest.xml"
PRIMARY_DEX_ENTRY = "classes.dex"
ANTI_DECOMPILATION_ENTRY = "res/raw/odd.arsc"
ANTI_REPACKAGING_ENTRY = "META-INF/INTEGRITY.SF"


class ApkFormatError(ValueError):
    """Raised on malformed APK payloads."""


@dataclass(frozen=True)
class ApkEntry:
    """A named member of the archive."""

    path: str
    data: bytes


@dataclass
class Apk:
    """An installation package: ordered mapping of entry path -> bytes."""

    entries: Dict[str, bytes] = field(default_factory=dict)

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        manifest: AndroidManifest,
        dex_files: Optional[List[DexFile]] = None,
        native_libs: Optional[List[NativeLibrary]] = None,
        assets: Optional[Dict[str, bytes]] = None,
    ) -> "Apk":
        """Assemble an APK from parsed artifacts."""
        apk = cls()
        apk.put_manifest(manifest)
        for index, dex in enumerate(dex_files or []):
            name = PRIMARY_DEX_ENTRY if index == 0 else "classes{}.dex".format(index + 1)
            apk.entries[name] = dex.to_bytes()
        for lib in native_libs or []:
            apk.entries["lib/{}/{}".format(lib.arch, lib.name)] = lib.to_bytes()
        for path, data in (assets or {}).items():
            apk.entries[path] = data
        return apk

    def put_manifest(self, manifest: AndroidManifest) -> None:
        self.entries[MANIFEST_ENTRY] = manifest.to_bytes()

    def add_asset(self, path: str, data: bytes) -> None:
        self.entries[path] = data

    def enable_anti_decompilation(self) -> None:
        """Plant the resource that crashes the decompiler."""
        self.entries[ANTI_DECOMPILATION_ENTRY] = b"\x00\x03garbled-resource-table"

    def enable_anti_repackaging(self) -> None:
        """Plant integrity data the rewriter cannot regenerate."""
        digest = hashlib.sha256(self.to_bytes()).hexdigest().encode("ascii")
        self.entries[ANTI_REPACKAGING_ENTRY] = b"SHA-256:" + digest

    # -- accessors -------------------------------------------------------------

    @property
    def manifest(self) -> AndroidManifest:
        raw = self.entries.get(MANIFEST_ENTRY)
        if raw is None:
            raise ApkFormatError("APK has no AndroidManifest.xml")
        return AndroidManifest.from_bytes(raw)

    @property
    def package(self) -> str:
        return self.manifest.package

    def dex_entries(self) -> List[Tuple[str, bytes]]:
        """(path, bytes) for every valid DEX member, primary first."""
        found = [
            (path, data)
            for path, data in self.entries.items()
            if path.endswith(".dex") and "/" not in path and is_dex_bytes(data)
        ]
        return sorted(found, key=lambda item: item[0])

    def dex_files(self) -> List[DexFile]:
        return [DexFile.from_bytes(data) for _, data in self.dex_entries()]

    def native_lib_entries(self) -> List[Tuple[str, bytes]]:
        found = [
            (path, data)
            for path, data in self.entries.items()
            if path.startswith("lib/") and is_native_bytes(data)
        ]
        return sorted(found, key=lambda item: item[0])

    def native_libs(self) -> List[NativeLibrary]:
        return [NativeLibrary.from_bytes(data) for _, data in self.native_lib_entries()]

    def asset_entries(self) -> List[Tuple[str, bytes]]:
        found = [
            (path, data)
            for path, data in self.entries.items()
            if path.startswith("assets/")
        ]
        return sorted(found, key=lambda item: item[0])

    def packed_payload_entries(self) -> List[Tuple[str, bytes]]:
        """Assets that are encrypted DEX payloads (hardened apps)."""
        return [
            (path, data)
            for path, data in self.asset_entries()
            if is_encrypted_dex_bytes(data)
        ]

    def has_local_bytecode_store(self) -> bool:
        """Whether any entry *could* store loadable bytecode.

        The paper's packer rule requires "a file in a format that supports
        bytecode storage found locally" -- JAR/ZIP/DEX/APK-ish assets or
        encrypted payloads.
        """
        loadable_suffixes = (".jar", ".zip", ".dex", ".apk", ".bin", ".dat")
        for path, data in self.asset_entries():
            if path.endswith(loadable_suffixes) or is_encrypted_dex_bytes(data):
                return True
        return False

    @property
    def is_anti_decompilation(self) -> bool:
        return ANTI_DECOMPILATION_ENTRY in self.entries

    @property
    def is_anti_repackaging(self) -> bool:
        return ANTI_REPACKAGING_ENTRY in self.entries

    # -- serialization ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        payload = {
            path: data.hex() for path, data in sorted(self.entries.items())
        }
        return b"PK\x03\x04" + json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Apk":
        if not data.startswith(b"PK\x03\x04"):
            raise ApkFormatError("bad magic; not an APK")
        try:
            payload = json.loads(data[4:].decode("utf-8"))
            return cls(entries={p: bytes.fromhex(h) for p, h in payload.items()})
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
            raise ApkFormatError("corrupt APK body") from exc

    def sha256(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def clone(self) -> "Apk":
        """Deep copy, used by the rewriter before repacking."""
        return Apk(entries=dict(self.entries))
