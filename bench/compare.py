"""Compare two sets of benchmark runs (``python -m bench compare A.json B.json``).

For every workload and every metric both sets report, a row gives each
side's median and quartiles, the change of B against A, the metric's bound
from ``BENCHMARK.json`` and a status:

- ``regressed``: B's median is worse than A's by more than the bound;
- ``unresolved``: the runs' spread (interquartile range over median, the
  wider of the two sides) exceeds the bound, so the medians cannot settle
  it -- unless every B run beats every A run;
- ``ok`` otherwise.  Per-layer metrics have no bound and are shown as
  ``info``.

``setup_s`` also gets an absolute floor: a change smaller than
``SETUP_FLOOR_S`` never counts against it.  Each workload also gets its
failed-operation share (failed/attempted, with its base) and whether the
output digests of the seeds both sets ran are identical.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from bench.stats import quartiles

SETUP_FLOOR_S = 0.3


def _by_workload(doc) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = defaultdict(list)
    for run in doc["runs"]:
        if run.get("result"):
            runs[run["workload"]].append(run)
    return runs


def status(
    a: Sequence[float], b: Sequence[float], better: str, bound: Optional[float],
    floor: float = 0.0,
) -> Tuple[str, float]:
    """(status, change of B's median against A's as a share of A's)."""
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if bound is None:
        return "info", change
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a)
    tolerance = max(bound * abs(med_a), floor)
    spread = max(_iqr(a), _iqr(b))
    b_beats_all = all(sign * (x - y) < 0 for x in b for y in a)
    b_loses_all = all(sign * (x - y) > 0 for x in b for y in a)
    if worse > tolerance and (spread <= tolerance or b_loses_all):
        return "regressed", change
    if spread > tolerance and not b_beats_all:
        return "unresolved", change
    return "ok", change


def _iqr(values: Sequence[float]) -> float:
    q1, _, q3 = quartiles(values)
    return q3 - q1


def _cell(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return "{:.4g} [{:.4g}, {:.4g}]".format(median, q1, q3)


def compare(doc_a, doc_b, spec) -> Tuple[List[str], bool]:
    """Report lines, and whether B is acceptable against A."""
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs_a, runs_b = _by_workload(doc_a), _by_workload(doc_b)
    lines: List[str] = []
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        if not runs_a.get(workload) or not runs_b.get(workload):
            continue
        a, b = runs_a[workload], runs_b[workload]
        lines.append("{} ({} vs {} runs)".format(workload, len(a), len(b)))
        lines.append("  {:<42}{:>28}{:>28}{:>9}{:>7}  {}".format(
            "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "status"))
        names = [n for n in metric_spec if all(n in r["result"]["metrics"] for r in a + b)]
        for name in names:
            values_a = [r["result"]["metrics"][name]["value"] for r in a]
            values_b = [r["result"]["metrics"][name]["value"] for r in b]
            metric = metric_spec[name]
            bound = metric.get("bound")
            floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
            verdict, change = status(values_a, values_b, metric["better"], bound, floor)
            ok &= verdict != "regressed"
            lines.append("  {:<42}{:>28}{:>28}{:>+8.1f}%{:>7}  {}".format(
                name + " (" + metric["unit"] + ")", _cell(values_a), _cell(values_b),
                100 * change, "{:.0%}".format(bound) if bound is not None else "-", verdict))

        failed = [(sum(r["result"]["failed"] for r in side),
                   sum(r["result"]["attempted"] for r in side)) for side in (a, b)]
        rising = failed[1][0] * failed[0][1] > failed[0][0] * failed[1][1]
        ok &= not rising
        lines.append("  failed_frac: {}/{} -> {}/{}  {}".format(
            failed[0][0], failed[0][1], failed[1][0], failed[1][1],
            "INCREASED" if rising else "ok"))

        digests_a = {r["seed"]: r["detail"]["output_digest"] for r in a}
        digests_b = {r["seed"]: r["detail"]["output_digest"] for r in b}
        common = sorted(set(digests_a) & set(digests_b))
        if not common:
            lines.append("  outputs: n/a (no seed in common)")
        elif all(digests_a[s] == digests_b[s] for s in common):
            lines.append("  outputs: identical ({} common seeds)".format(len(common)))
        else:
            ok = False
            lines.append("  outputs: DIFFERENT on seeds {}".format(
                [s for s in common if digests_a[s] != digests_b[s]]))
    return lines, ok
