"""Provenance (local/remote) and responsible-entity attribution.

Two of the paper's three "critical questions" are answered here:

- **Where does the loaded code come from?**  Remote when the download
  tracker shows a URL -> File path for the loaded file; local otherwise
  (packaged in the APK or synthesized on device without network input).

- **Who invoked it?**  The call-site class captured from the Java stack
  trace at load time is compared against the application package: same
  namespace means the developer's own code, anything else is a third-party
  SDK/library (Fig. 2).
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from repro.dynamic.download_tracker import DownloadTracker
from repro.runtime.instrumentation import DexLoadEvent, NativeLoadEvent
from repro.runtime.stacktrace import shares_app_package

LoadEvent = Union[DexLoadEvent, NativeLoadEvent]


class Provenance(enum.Enum):
    LOCAL = "local"
    REMOTE = "remote"


class Entity(enum.Enum):
    OWN = "own"
    THIRD_PARTY = "third-party"
    UNKNOWN = "unknown"


def provenance_of(path: str, tracker: DownloadTracker) -> Provenance:
    """Local vs remote for one loaded file path."""
    return Provenance.REMOTE if tracker.is_remote(path) else Provenance.LOCAL


def entity_of(event: LoadEvent, app_package: Optional[str] = None) -> Entity:
    """Own vs third-party attribution for one DCL event."""
    package = app_package if app_package is not None else event.app_package
    if not event.call_site:
        return Entity.UNKNOWN
    if shares_app_package(event.call_site, package):
        return Entity.OWN
    return Entity.THIRD_PARTY
