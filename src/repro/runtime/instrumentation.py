"""The instrumentation hook bus.

The paper modifies the Android framework at a small, complete set of
mediation points; this module is that modification.  Framework API
implementations call into :class:`Instrumentation` when:

- a ``DexClassLoader`` / ``PathClassLoader`` is constructed (DCL logger);
- JNI ``load()`` / ``loadLibrary()`` / ``load0()`` runs (DCL logger);
- ``java.io.File.delete()`` / ``renameTo()`` is invoked -- blocked silently
  for paths queued by the code interceptor (mutual exclusion so temporary
  payloads survive for analysis);
- URL / stream / file IO happens (the download tracker's Table I flow rules:
  URL -> InputStream -> Buffer -> OutputStream -> File, File -> File).

The dynamic-analysis components subscribe to these events; the runtime knows
nothing about them, mirroring how framework hooks only *log* while DyDroid's
host-side tooling interprets the logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from repro.runtime.stacktrace import StackTraceElement


@dataclass(frozen=True)
class DexLoadEvent:
    """One bytecode DCL event as logged by the hooked constructors."""

    dex_paths: Tuple[str, ...]
    odex_dir: Optional[str]
    loader_kind: str                  # "DexClassLoader" | "PathClassLoader"
    call_site: Optional[str]
    stack: Tuple[StackTraceElement, ...]
    app_package: str
    timestamp_ms: int


@dataclass(frozen=True)
class NativeLoadEvent:
    """One native DCL event as logged by the hooked JNI entry points."""

    lib_path: str
    api: str                          # "loadLibrary" | "load" | "load0"
    call_site: Optional[str]
    stack: Tuple[StackTraceElement, ...]
    app_package: str
    timestamp_ms: int


@dataclass(frozen=True)
class CodeOriginEvent:
    """One class defined into the VM and the file it was defined from.

    Emitted per defined class by the hooked loader constructors; the
    download tracker uses it to chain provenance across staged loads --
    when code defined from file A later downloads file B, B inherits A's
    remote ancestry.
    """

    class_name: str
    path: str
    app_package: str


@dataclass(frozen=True)
class LoadRejectedEvent:
    """A developer-side secure-loader refusal (digest/signature mismatch).

    Emitted by :class:`repro.defense.secure_loader.SecureDexClassLoader`
    when verification fails, so measurement counts the saves the defense
    produced -- loads that never happened are otherwise invisible to the
    DCL log.
    """

    path: str
    payload_name: str
    reason: str
    app_package: str
    timestamp_ms: int


@dataclass(frozen=True)
class FlowNode:
    """A node in the download-tracker flow graph: type @ hash code."""

    key: str
    kind: str                         # "URL" | "InputStream" | "Buffer" | ...
    detail: str = ""                  # URL spec or file path where applicable


@dataclass(frozen=True)
class FlowEdge:
    """A directed flow observed by the instrumented IO methods."""

    src: FlowNode
    dst: FlowNode
    rule: str                         # which Table I rule produced the edge


@dataclass(frozen=True)
class BlockedFileOp:
    """A delete/rename the instrumentation silently suppressed."""

    op: str                           # "delete" | "rename"
    path: str
    app_package: str


class Instrumentation:
    """Hook bus wiring framework mediation points to analysis listeners."""

    def __init__(self, block_file_ops: bool = True) -> None:
        #: paths of dynamically loaded binaries; delete/rename on these is
        #: silently dropped while interception is pending.
        self.protected_paths: Set[str] = set()
        #: ablation switch: with blocking disabled, temp payloads vanish.
        self.block_file_ops = block_file_ops
        self.blocked_ops: List[BlockedFileOp] = []
        self._dex_listeners: List[Callable[[DexLoadEvent], None]] = []
        self._native_listeners: List[Callable[[NativeLoadEvent], None]] = []
        self._flow_listeners: List[Callable[[FlowEdge], None]] = []
        self._rejection_listeners: List[Callable[[LoadRejectedEvent], None]] = []
        self._origin_listeners: List[Callable[[CodeOriginEvent], None]] = []

    # -- subscription -----------------------------------------------------------

    def on_dex_load(self, callback: Callable[[DexLoadEvent], None]) -> None:
        self._dex_listeners.append(callback)

    def on_native_load(self, callback: Callable[[NativeLoadEvent], None]) -> None:
        self._native_listeners.append(callback)

    def on_flow_edge(self, callback: Callable[[FlowEdge], None]) -> None:
        self._flow_listeners.append(callback)

    def on_load_rejected(self, callback: Callable[[LoadRejectedEvent], None]) -> None:
        self._rejection_listeners.append(callback)

    def on_code_origin(self, callback: Callable[[CodeOriginEvent], None]) -> None:
        self._origin_listeners.append(callback)

    # -- emission (called by the framework implementations) -----------------------

    def emit_dex_load(self, event: DexLoadEvent) -> None:
        if self.block_file_ops:
            self.protected_paths.update(event.dex_paths)
        for callback in self._dex_listeners:
            callback(event)

    def emit_native_load(self, event: NativeLoadEvent) -> None:
        if self.block_file_ops:
            self.protected_paths.add(event.lib_path)
        for callback in self._native_listeners:
            callback(event)

    def emit_flow(self, src: FlowNode, dst: FlowNode, rule: str) -> None:
        edge = FlowEdge(src=src, dst=dst, rule=rule)
        for callback in self._flow_listeners:
            callback(edge)

    def emit_load_rejected(self, event: LoadRejectedEvent) -> None:
        for callback in self._rejection_listeners:
            callback(event)

    def emit_code_origin(self, event: CodeOriginEvent) -> None:
        for callback in self._origin_listeners:
            callback(event)

    # -- file-op mediation ----------------------------------------------------------

    def intercept_file_op(self, op: str, path: str, app_package: str) -> bool:
        """True when the operation must be silently suppressed."""
        if self.block_file_ops and path in self.protected_paths:
            self.blocked_ops.append(BlockedFileOp(op=op, path=path, app_package=app_package))
            return True
        return False
