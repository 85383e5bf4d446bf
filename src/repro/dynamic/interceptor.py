"""Code interception: dump every dynamically loaded binary.

Loaded files may be temporary (ad libraries delete payloads after merging),
so interception is racy by nature.  The instrumentation queue already blocks
delete/rename for loaded paths; this component reads the payload bytes the
moment the load event fires and keeps a host-side copy for static analysis
(the paper dumps to the device's external storage; ``mirror_to_sdcard``
reproduces that for realism and for the storage-exhaustion handling path).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.android.dex import (
    DexFile,
    DexFormatError,
    is_dex_bytes,
    is_encrypted_dex_bytes,
)
from repro.android.nativelib import NativeFormatError, NativeLibrary, is_native_bytes
from repro.runtime.device import Device
from repro.runtime.instrumentation import (
    DexLoadEvent,
    Instrumentation,
    NativeLoadEvent,
)


class PayloadKind(enum.Enum):
    DEX = "dex"
    NATIVE = "native"
    ENCRYPTED = "encrypted"
    #: an APK/ZIP container (plugin pack, feature/config split) whose dex
    #: members are the loadable code.
    APK = "apk"
    UNKNOWN = "unknown"


def classify_payload(data: bytes) -> PayloadKind:
    if is_dex_bytes(data):
        return PayloadKind.DEX
    if is_native_bytes(data):
        return PayloadKind.NATIVE
    if is_encrypted_dex_bytes(data):
        return PayloadKind.ENCRYPTED
    if data.startswith(b"PK\x03\x04"):
        return PayloadKind.APK
    return PayloadKind.UNKNOWN


@dataclass
class InterceptedPayload:
    """One dumped binary with its load context."""

    path: str
    data: bytes
    kind: PayloadKind
    app_package: str
    call_site: Optional[str]
    loader: str                      # loader kind or JNI api name
    timestamp_ms: int

    def as_dex(self) -> Optional[DexFile]:
        if self.kind is PayloadKind.APK:
            # Containers analyze as the merge of their dex members, the
            # same view the classloader defines from them.
            from repro.android.apk import Apk, ApkFormatError

            try:
                container = Apk.from_bytes(self.data)
            except ApkFormatError:
                return None
            merged = DexFile(source_name=self.path.rsplit("/", 1)[-1])
            for dex in container.dex_files():
                merged.merge(dex)
            return merged if merged.classes else None
        if self.kind is not PayloadKind.DEX:
            return None
        try:
            return DexFile.from_bytes(self.data)
        except DexFormatError:
            return None

    def as_native(self) -> Optional[NativeLibrary]:
        if self.kind is not PayloadKind.NATIVE:
            return None
        try:
            return NativeLibrary.from_bytes(self.data)
        except NativeFormatError:
            return None


@dataclass
class CodeInterceptor:
    """Subscribes to load events and dumps the referenced files."""

    device: Device
    mirror_to_sdcard: bool = False
    payloads: List[InterceptedPayload] = field(default_factory=list)
    _by_path: Dict[str, InterceptedPayload] = field(default_factory=dict)
    _dump_counter: int = 0

    def attach(self, instrumentation: Instrumentation) -> "CodeInterceptor":
        self._instrumentation = instrumentation
        instrumentation.on_dex_load(self._on_dex)
        instrumentation.on_native_load(self._on_native)
        return self

    # -- event handlers ---------------------------------------------------------

    def _on_dex(self, event: DexLoadEvent) -> None:
        for path in event.dex_paths:
            self._dump(
                path,
                app_package=event.app_package,
                call_site=event.call_site,
                loader=event.loader_kind,
                timestamp_ms=event.timestamp_ms,
            )

    def _on_native(self, event: NativeLoadEvent) -> None:
        self._dump(
            event.lib_path,
            app_package=event.app_package,
            call_site=event.call_site,
            loader=event.api,
            timestamp_ms=event.timestamp_ms,
        )

    def _dump(
        self,
        path: str,
        app_package: str,
        call_site: Optional[str],
        loader: str,
        timestamp_ms: int,
    ) -> None:
        if path in self._by_path:
            return
        try:
            data = self.device.vfs.read(path)
        except FileNotFoundError:
            return  # load itself will fail; nothing to intercept
        payload = InterceptedPayload(
            path=path,
            data=data,
            kind=classify_payload(data),
            app_package=app_package,
            call_site=call_site,
            loader=loader,
            timestamp_ms=timestamp_ms,
        )
        self.payloads.append(payload)
        self._by_path[path] = payload
        if self.mirror_to_sdcard:
            self._mirror(payload)

    def _mirror(self, payload: InterceptedPayload) -> None:
        self._dump_counter += 1
        dump_path = "/mnt/sdcard/dydroid/dump_{:04d}".format(self._dump_counter)
        try:
            self.device.vfs.write(dump_path, payload.data, owner=payload.app_package)
        except OSError:
            # Storage exhaustion is handled by the engine's cleanup cycle;
            # the host-side copy in `payloads` is already safe.
            pass
