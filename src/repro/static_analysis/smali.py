"""The decompiled intermediate representation (smali-like).

A :class:`SmaliProgram` is what the decompiler hands every downstream static
analysis: the manifest, the disassembled classes, the non-code entries, and
rendering into textual smali for humans.  It deliberately mirrors what
baksmali recovers from a real APK -- in particular, bytecode hidden in
encrypted assets is *not* here, which is exactly the mismatch DyDroid's
packer rule keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple

from repro.android.apk import Apk
from repro.android.bytecode import MethodRef, Op
from repro.android.dex import DexClass, DexFile, DexMethod
from repro.android.manifest import AndroidManifest


@dataclass
class SmaliProgram:
    """Decompilation output for one APK."""

    apk: Apk
    manifest: AndroidManifest
    dex_files: List[DexFile]
    #: entry paths that were present but not decompilable as code.
    opaque_entries: List[str] = field(default_factory=list)

    # -- code queries -----------------------------------------------------------

    def classes(self) -> Iterator[DexClass]:
        for dex in self.dex_files:
            yield from dex.classes

    def class_names(self) -> Set[str]:
        return {cls.name for cls in self.classes()}

    def methods(self) -> Iterator[DexMethod]:
        for cls in self.classes():
            yield from cls.methods

    def invoked_refs(self) -> Iterator[MethodRef]:
        for method in self.methods():
            yield from method.invoked_refs()

    def class_named(self, name: str) -> Optional[DexClass]:
        for cls in self.classes():
            if cls.name == name:
                return cls
        return None

    def identifiers(self) -> Iterator[Tuple[str, str]]:
        """(kind, identifier) pairs for the lexical-obfuscation scanner.

        Kinds: ``class`` (simple class name), ``method``, ``field``.
        Compiler-reserved names (``<init>``...) are skipped.
        """
        for cls in self.classes():
            yield "class", cls.simple_name
            for method in cls.methods:
                if not method.name.startswith("<"):
                    yield "method", method.name
            for fld in cls.fields:
                yield "field", fld.name

    # -- rendering ---------------------------------------------------------------

    def render_smali(self, class_name: Optional[str] = None) -> str:
        """Textual smali, for documentation/debugging parity with baksmali."""
        chunks = []
        for cls in self.classes():
            if class_name is not None and cls.name != class_name:
                continue
            chunks.append(_render_class(cls))
        return "\n\n".join(chunks)


def _dot_to_smali(name: str) -> str:
    return "L{};".format(name.replace(".", "/"))


def _render_class(cls: DexClass) -> str:
    lines = [
        ".class public {}".format(_dot_to_smali(cls.name)),
        ".super {}".format(_dot_to_smali(cls.superclass)),
        "",
    ]
    for fld in cls.fields:
        keyword = ".field public static" if fld.is_static else ".field public"
        lines.append("{} {}:{}".format(keyword, fld.name, _dot_to_smali(fld.type_name)))
    if cls.fields:
        lines.append("")
    for method in cls.methods:
        lines.extend(_render_method(method))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _render_method(method: DexMethod) -> List[str]:
    flags = "public"
    if method.is_static:
        flags += " static"
    lines = [
        ".method {} {}({})V".format(flags, method.name, "I" * method.arity),
        "    .registers {}".format(method.registers),
    ]
    for insn in method.instructions:
        if insn.op is Op.LABEL:
            lines.append("    :{}".format(insn.args[0]))
        else:
            lines.append("    {}".format(insn))
    lines.append(".end method")
    return lines
