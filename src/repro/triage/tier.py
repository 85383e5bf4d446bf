"""The tier-0 gate: score a session's fingerprint, maybe skip tier 1.

The gate sits *between* the verdict-store probe and the full analyzers:
per payload the pipeline still consults the per-process LRU and the
cross-process :class:`~repro.store.verdicts.VerdictStore` first (a stored
tier-1 verdict always beats a prediction), and only on a store miss does a
confident triage decision stand in for DroidNative/FlowDroid.

Two invariants keep triage safe:

- **no store poisoning** -- triage-synthesized verdicts are never written
  to the LRU caches or published to the verdict store; only tier-1
  results are, so a misclassification can't outlive the app it happened
  on.
- **hard-example harvesting** -- every undecided (fall-through) app runs
  the full pipeline anyway, and its tier-1 label is appended to a
  ``<model>.harvest.jsonl`` sidecar (appended through
  :func:`~repro.store.log.repair_and_append`, so it is multi-process safe
  and survives a sibling killed mid-line) that the next ``repro triage
  train --harvest`` folds back in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.static_analysis.malware.droidnative import Detection
from repro.store.log import complete_lines, repair_and_append
from repro.triage.fingerprint import TriageFingerprint, fingerprint_session
from repro.triage.model import TriageError, TriageModel

#: default confidence bar: decide only when max(p, 1-p) clears this.
DEFAULT_THRESHOLD = 0.9

#: the synthetic family stamped on triage-suspected detections.
SUSPECTED_FAMILY = "triage.suspected"


@dataclass
class TriageDecision:
    """One app's tier-0 outcome."""

    package: str
    fingerprint: TriageFingerprint
    probability: float          # P(hazard)
    threshold: float

    @property
    def confidence(self) -> float:
        return max(self.probability, 1.0 - self.probability)

    @property
    def decided(self) -> bool:
        return self.confidence >= self.threshold

    @property
    def label(self) -> str:
        """"hazard" | "benign" when decided, "" on fall-through."""
        if not self.decided:
            return ""
        return "hazard" if self.probability >= 0.5 else "benign"

    def to_dict(self) -> Dict[str, object]:
        return {
            "package": self.package,
            "digest": self.fingerprint.digest,
            "probability": round(self.probability, 6),
            "confidence": round(self.confidence, 6),
            "threshold": self.threshold,
            "decided": self.decided,
            "label": self.label,
        }


def full_pipeline_label(analysis) -> int:
    """Tier-1 ground-truth label (1 = hazard) for a finished analysis.

    Mirrors the hazard classes of
    :func:`repro.defense.evaluation.hazard_kind`: a flagged-malicious
    payload (known-malware), a code-injection vulnerability finding, or a
    remotely fetched payload (remote-code).
    """
    if any(p.is_malicious for p in analysis.payloads):
        return 1
    if analysis.vulnerabilities:
        return 1
    if any(p.remote_sources for p in analysis.payloads):
        return 1
    return 0


class TriageGate:
    """Scores sessions against a loaded model and harvests hard examples."""

    def __init__(
        self,
        model: TriageModel,
        threshold: float = DEFAULT_THRESHOLD,
        harvest_path: str = "",
    ) -> None:
        if not 0.5 <= threshold <= 1.0:
            raise TriageError(
                "triage threshold must be in [0.5, 1.0], got {}".format(threshold)
            )
        self.model = model
        self.threshold = threshold
        self.harvest_path = harvest_path
        self.harvested = 0

    @classmethod
    def from_config(cls, config) -> Optional["TriageGate"]:
        """Build the gate a :class:`DyDroidConfig` asks for (or ``None``)."""
        if not config.triage_model:
            return None
        model = TriageModel.load(config.triage_model)
        return cls(
            model,
            threshold=config.triage_threshold or DEFAULT_THRESHOLD,
            harvest_path=config.triage_model + ".harvest.jsonl",
        )

    # -- scoring ---------------------------------------------------------------

    def assess(self, package: str, dynamic) -> TriageDecision:
        fingerprint = fingerprint_session(package, dynamic)
        return TriageDecision(
            package=package,
            fingerprint=fingerprint,
            probability=self.model.predict_proba(fingerprint.vector),
            threshold=self.threshold,
        )

    def suspected_detection(self, decision: TriageDecision) -> Detection:
        """The synthetic detection a confident "hazard" verdict carries."""
        return Detection(
            family=SUSPECTED_FAMILY,
            score=decision.probability,
            matched_sample_id="triage",
            matched_functions=0,
            total_functions=0,
        )

    # -- online hard-example harvesting ---------------------------------------

    def harvest(self, decision: TriageDecision, label: int) -> None:
        """Record a fall-through's tier-1 label as new training data."""
        self.harvested += 1
        if not self.harvest_path:
            return
        record = {
            "package": decision.package,
            "digest": decision.fingerprint.digest,
            "probability": round(decision.probability, 6),
            "label": int(label),
            "features": {
                k: decision.fingerprint.features[k]
                for k in sorted(decision.fingerprint.features)
            },
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        repair_and_append(self.harvest_path, line.encode("utf-8"))


def load_harvest(path: str):
    """Yield ``(vector, label)`` pairs from a harvest sidecar (torn-tail
    tolerant: a partial final line from a killed writer is skipped)."""
    from repro.triage.fingerprint import vectorize

    try:
        lines = complete_lines(path)
    except OSError:
        return []
    samples = []
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue  # blank or corrupt: harvested data is only a hint
        samples.append((vectorize(record["features"]), int(record["label"])))
    return samples
