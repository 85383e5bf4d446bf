"""Every generator rate, calibrated against the paper's published numbers.

The paper's corpus: 58,739 apps; 40,849 with DEX-DCL code; 25,287 with
native-DCL code (union 46K); 16,768 / 13,748 apps whose DCL actually fired
and was intercepted.  All rates below derive from the tables; each field
documents its source.  Scaling a profile down keeps the proportions and
*plants* the paper's small absolute counts (27 remote-fetch apps, 87
malware carriers, 14 vulnerable apps, 140 packed apps...) via
``planted_count`` so no table goes empty at bench scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

PAPER_TOTAL_APPS = 58_739

#: Table X per-data-type app counts (over the 16,768 intercepted-DEX apps),
#: excluding Settings which is modeled through the ad SDKs.
TABLE_X_COUNTS: Dict[str, int] = {
    "Location": 254,
    "IMEI": 581,
    "IMSI": 27,
    "ICCID": 8,
    "Phone number": 12,
    "Account": 23,
    "Installed applications": 32,
    "Installed packages": 235,
    "Contact": 1,
    "Calendar": 76,
    "CallLog": 32,
    "Browser": 1,
    "Audio": 5,
    "Image": 74,
    "Video": 31,
    "MMS": 1,
    "SMS": 1,
}

#: Figure 3 category mix for the 140 DEX-encryption apps (Entertainment,
#: Tools and Shopping "play a dominant role"; the exact bars are read off
#: the figure, remainder spread thinly).
FIG3_CATEGORY_WEIGHTS: Dict[str, float] = {
    "Entertainment": 0.26,
    "Tools": 0.21,
    "Shopping": 0.15,
    "Finance": 0.07,
    "Games": 0.07,
    "Communication": 0.05,
    "Productivity": 0.05,
    "Video Players": 0.04,
    "Social": 0.04,
    "Photography": 0.03,
    "Music & Audio": 0.03,
}


@dataclass
class CorpusProfile:
    """All knobs of the synthetic market, defaulting to paper calibration."""

    # -- static DCL code presence (Section V-A) -------------------------------
    #: 40,849 / 58,739 apps initialize class loaders in their code.
    p_dex_dcl_code: float = 40_849 / PAPER_TOTAL_APPS
    #: conditional native-code rates chosen so P(native)=25,287/58,739 and
    #: P(dex or native)=46,000/58,739 (the "46K apps" union).
    p_native_code_given_dex: float = 0.4932
    p_native_code_given_no_dex: float = 0.2874

    # -- Table II dynamic outcomes --------------------------------------------
    #: anti-repackaging (rewriting failure): 454/40,849 on the DEX side.
    p_anti_repackaging: float = 454 / 40_849
    #: apps with no Activity component: 8/40,849.
    p_no_activity: float = 8 / 40_849
    #: developer faults crashing at runtime: 33/40,849 (DEX side; the native
    #: side's higher 0.73% emerges from native-only apps, see generator).
    p_crash: float = 33 / 40_849
    p_crash_native_only: float = 184 / 25_287

    # -- DCL reachability (intercepted / exercised, Table II) ------------------
    #: 16,768 / 40,354 exercised DEX-DCL apps actually load at runtime.
    p_dex_dcl_reachable: float = 16_768 / 40_354
    #: 13,748 / 24,957 for native.
    p_native_dcl_reachable: float = 13_748 / 24_957

    #: most DCL fires at app launch (the paper's MAdScope-matching
    #: observation); a minority only triggers from a UI handler, which is
    #: what the Monkey event budget buys (ablation bench).
    p_dcl_on_ui_event: float = 0.15

    # -- Table IV responsible entity -------------------------------------------
    #: of intercepted DEX apps: third-party-only / own-only / both.
    dex_entity_mix: Dict[str, float] = field(
        default_factory=lambda: {
            "third": (16_755 - 37) / 16_768,
            "own": (50 - 37) / 16_768,
            "both": 37 / 16_768,
        }
    )
    native_entity_mix: Dict[str, float] = field(
        default_factory=lambda: {
            "third": (11_834 - 366) / 13_748,
            "own": (2_280 - 366) / 13_748,
            "both": 366 / 13_748,
        }
    )

    # -- Table V remote fetch -----------------------------------------------------
    #: 27 of the 16,768 intercepted-DEX apps load remotely (Baidu ads).
    n_remote_fetch_apps: int = 27

    # -- Table VI obfuscation -------------------------------------------------------
    p_lexical_obfuscation: float = 52_836 / PAPER_TOTAL_APPS
    p_reflection: float = 30_664 / PAPER_TOTAL_APPS
    n_dex_encryption_apps: int = 140
    n_anti_decompilation_apps: int = 54

    # -- Table VII malware -------------------------------------------------------------
    n_swiss_code_monkeys_apps: int = 1
    n_airpush_apps: int = 2
    n_chathook_apps: int = 84
    #: 91 malicious files across 87 apps: 4 chathook carriers load 2 libs.
    n_chathook_double_loaders: int = 4

    # -- Table VIII environment gates (per malicious file, out of 91) --------------------
    p_gate_system_time: float = (91 - 72) / 91
    p_gate_airplane_flag: float = (91 - 56) / 91
    #: additional files requiring *any* connectivity (56 - 53 = 3 of 91).
    p_gate_connectivity: float = (56 - 53) / 91
    p_gate_location: float = (91 - 70) / 91

    # -- Table IX vulnerabilities ----------------------------------------------------------
    n_vuln_dex_external: int = 7
    n_vuln_native_other_app: int = 7

    # -- modern DCL ecosystems (scenario pack, not in the paper) -----------------------
    #: all four knobs default to zero so paper-calibrated corpora are
    #: byte-identical with or without this section; enable them through
    #: :func:`repro.ecosystems.ecosystems_profile` (``--ecosystems``).
    n_plugin_host_apps: int = 0
    n_split_apk_apps: int = 0
    n_staged_downloader_apps: int = 0
    #: hops in a staged-downloader chain (payload fetches payload).
    staged_downloader_depth: int = 3
    n_self_debloating_apps: int = 0

    # -- Table X privacy ----------------------------------------------------------------------
    #: 15,012 of 16,768 intercepted-DEX apps load the (Google) ad library
    #: that only tracks Settings.
    p_google_ads_sdk: float = 15_012 / 16_768
    #: 16,482 apps track Settings; the surplus over the ad-SDK apps comes
    #: from other SDK payloads: (16,482-15,012)/(16,768-15,012).
    p_other_payload_tracks_settings: float = (16_482 - 15_012) / (16_768 - 15_012)
    #: Table X counts for non-Settings types, over the 16,768.
    table_x_counts: Dict[str, int] = field(default_factory=lambda: dict(TABLE_X_COUNTS))
    #: per-type "exclusively third party" shares (Table X right column) are
    #: emergent: loads by own code vs SDK code carry the attribution.

    # -- Table III popularity (means to hit per group) ----------------------------------------------
    mean_downloads_dex: float = 60_010.0
    mean_downloads_no_dex: float = 52_848.0
    mean_downloads_native: float = 288_995.0
    mean_downloads_no_native: float = 75_127.0
    mean_ratings_dex: float = 2_448.0
    mean_ratings_no_dex: float = 2_318.0
    mean_ratings_native: float = 8_668.0
    mean_ratings_no_native: float = 1_119.0
    avg_rating_dex: float = 3.91
    avg_rating_no_dex: float = 3.77
    avg_rating_native: float = 3.82
    avg_rating_no_native: float = 3.79

    def scale(self, n_apps: int) -> float:
        """The down-scaling factor from the paper's corpus size."""
        return n_apps / PAPER_TOTAL_APPS

    def planted_count(self, paper_count: int, n_apps: int) -> int:
        """Scaled count of a rare planted feature, never dropping to zero."""
        if paper_count <= 0:
            return 0
        return max(1, round(paper_count * self.scale(n_apps)))

    def planted_apps(self, n_apps: int) -> int:
        """Distinct apps the generator claims for planted roles in an
        ``n_apps`` market: one per planted app of every rare role and
        ecosystem (Chathook's double loaders reuse their carriers)."""
        counts = (
            self.n_anti_decompilation_apps,
            self.n_dex_encryption_apps,
            self.n_remote_fetch_apps,
            self.n_swiss_code_monkeys_apps,
            self.n_airpush_apps,
            self.n_chathook_apps,
            self.n_vuln_dex_external,
            self.n_vuln_native_other_app,
            self.n_plugin_host_apps,
            self.n_split_apk_apps,
            self.n_staged_downloader_apps,
            self.n_self_debloating_apps,
        )
        return sum(self.planted_count(count, n_apps) for count in counts)
