"""Device state: clock, settings, radios, identity, installs.

One :class:`Device` corresponds to the paper's measurement handset (a
Samsung Galaxy Nexus running instrumented Android 4.3.1).  The App Execution
Engine typically provisions a fresh device per analyzed app, then replays
flagged apps under alternative :class:`EnvironmentConfig` settings to probe
the logical conditions malware uses to hide (Table VIII: system time,
airplane mode with/without WiFi, location service).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.android.apk import Apk
from repro.runtime.network import Network
from repro.runtime.vfs import (
    SYSTEM_LIB_DIR,
    SYSTEM_OWNER,
    VirtualFilesystem,
    apk_install_path,
    internal_dir,
)

#: Android 4.3.1, the paper's measurement image.
JELLY_BEAN_MR2 = 18

#: A fixed reference "now" for the simulated clock: 2016-11-15, the month the
#: paper's corpus was collected.
DEFAULT_TIME_MS = 1479168000000

MS_PER_DAY = 86400000


@dataclass
class DeviceConfig:
    """Tunable device identity and radio/location/clock state."""

    api_level: int = JELLY_BEAN_MR2
    system_time_ms: int = DEFAULT_TIME_MS
    airplane_mode: bool = False
    wifi_enabled: bool = True
    location_enabled: bool = True
    imei: str = "355458061234567"
    imsi: str = "310260000000000"
    iccid: str = "8901260000000000000"
    line1_number: str = "+15555215554"
    accounts: List[str] = field(default_factory=lambda: ["user@example.com"])
    storage_quota_bytes: int = 256 * 1024 * 1024


@dataclass(frozen=True)
class EnvironmentConfig:
    """One Table VIII replay configuration."""

    name: str
    time_shift_days: int = 0          # negative = before the app's release date
    airplane_mode: bool = False
    wifi_enabled: bool = True
    location_enabled: bool = True


#: The four replay configurations from Table VIII, plus the baseline.
BASELINE_CONFIG = EnvironmentConfig(name="baseline")
TABLE_VIII_CONFIGS = (
    EnvironmentConfig(name="system-time-before-release", time_shift_days=-365),
    EnvironmentConfig(name="airplane-wifi-on", airplane_mode=True, wifi_enabled=True),
    EnvironmentConfig(name="airplane-wifi-off", airplane_mode=True, wifi_enabled=False),
    EnvironmentConfig(name="location-off", location_enabled=False),
)


@dataclass
class InstalledApp:
    """Bookkeeping for one installed package."""

    package: str
    apk: Apk
    apk_path: str
    version_code: int


class Device:
    """A simulated handset: filesystem + network + identity + package state."""

    def __init__(
        self,
        config: Optional[DeviceConfig] = None,
        network: Optional[Network] = None,
    ) -> None:
        self.config = config or DeviceConfig()
        self.vfs = VirtualFilesystem(quota_bytes=self.config.storage_quota_bytes)
        self.network = network or Network()
        self.installed: Dict[str, InstalledApp] = {}
        #: the Settings content provider (what the Google Ads library reads).
        self.settings: Dict[str, str] = {
            "android_id": "9774d56d682e549c",
            "adb_enabled": "0",
            "screen_brightness": "128",
            "airplane_mode_on": "1" if self.config.airplane_mode else "0",
        }
        #: content-provider tables: authority -> rows.
        self.provider_data: Dict[str, List[str]] = {
            "contacts": ["Alice;+15550100", "Bob;+15550101"],
            "calendar": ["2016-11-20 dentist"],
            "call_log": ["+15550100;out;60s"],
            "browser": ["http://news.example.com;bookmark"],
            "media.audio": ["/mnt/sdcard/Music/track01.mp3"],
            "media.images": ["/mnt/sdcard/DCIM/img001.jpg"],
            "media.video": ["/mnt/sdcard/DCIM/vid001.mp4"],
            "mms": ["+15550102;photo"],
            "sms": ["+15550102;see you at 8"],
        }
        from repro.runtime.broadcasts import BroadcastManager

        #: ordered-broadcast registrations and delivery history.
        self.broadcasts = BroadcastManager()
        #: android.util.Log output.
        self.logcat: List[str] = []
        #: SMS messages apps attempted to send: (destination, body).
        self.sms_sent: List[tuple] = []
        self._seed_system_files()

    # -- system image ------------------------------------------------------------

    def _seed_system_files(self) -> None:
        """A few vendor libraries, so "skip /system/lib" paths exist."""
        for lib_name in ("libc.so", "libm.so", "libwebviewchromium.so"):
            self.vfs.write(
                "{}/{}".format(SYSTEM_LIB_DIR, lib_name),
                b"\x7fELF\x02\x01\x01\x00<system>",
                owner=SYSTEM_OWNER,
            )

    # -- clock / radios ------------------------------------------------------------

    def now_ms(self) -> int:
        return self.config.system_time_ms

    def is_online(self) -> bool:
        """Connectivity: airplane mode kills everything unless WiFi is re-enabled."""
        if self.config.airplane_mode:
            return self.config.wifi_enabled
        return True

    def apply_environment(self, env: EnvironmentConfig, release_time_ms: Optional[int] = None) -> None:
        """Reconfigure for a Table VIII replay.

        ``time_shift_days`` is applied relative to the app release date when
        given (the paper sets the clock *before the app's release date*),
        otherwise relative to the current clock.
        """
        base = release_time_ms if release_time_ms is not None else self.config.system_time_ms
        if env.time_shift_days:
            self.config.system_time_ms = base + env.time_shift_days * MS_PER_DAY
        self.config.airplane_mode = env.airplane_mode
        self.config.wifi_enabled = env.wifi_enabled
        self.config.location_enabled = env.location_enabled
        self.settings["airplane_mode_on"] = "1" if env.airplane_mode else "0"

    # -- package management -----------------------------------------------------------

    def install(self, apk: Apk) -> InstalledApp:
        """Install an APK: write the package file, extract native libraries."""
        manifest = apk.manifest
        package = manifest.package
        apk_path = apk_install_path(package)
        self.vfs.write(apk_path, apk.to_bytes(), owner=SYSTEM_OWNER)
        lib_dir = "{}/lib".format(internal_dir(package))
        for entry_path, data in apk.native_lib_entries():
            lib_name = entry_path.rsplit("/", 1)[-1]
            self.vfs.write(
                "{}/{}".format(lib_dir, lib_name),
                data,
                owner=package,
                created_at_ms=self.now_ms(),
            )
        for component in manifest.components:
            if component.kind.value == "receiver" and component.intent_action:
                self.broadcasts.register(
                    package=package,
                    class_name=component.name,
                    action=component.intent_action,
                    priority=component.priority,
                )
        record = InstalledApp(
            package=package,
            apk=apk,
            apk_path=apk_path,
            version_code=manifest.version_code,
        )
        self.installed[package] = record
        return record

    def uninstall(self, package: str) -> bool:
        if package not in self.installed:
            return False
        del self.installed[package]
        self.vfs.delete(apk_install_path(package))
        self.vfs.wipe_owner(package)
        return True

    def installed_packages(self) -> List[str]:
        return sorted(self.installed)

    def app(self, package: str) -> Optional[InstalledApp]:
        return self.installed.get(package)

    # -- incoming events -----------------------------------------------------------

    def receive_sms(self, vm, sender: str, body: str):
        """Deliver an incoming SMS as an ordered broadcast.

        High-priority receivers (SMS-blocker malware) can abort the chain,
        in which case the message never reaches the user's inbox -- the
        trick the Swiss-code-monkeys family plays with carrier replies.
        """
        from repro.runtime.broadcasts import SMS_RECEIVED_ACTION

        record = self.broadcasts.deliver(
            vm, SMS_RECEIVED_ACTION, extras={"sender": sender, "body": body}
        )
        if not record.aborted:
            self.provider_data["sms"].append("{};{}".format(sender, body))
        return record
