"""Self-test of the benchmark: ``PYTHONPATH=src python -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from bench import ROOT
from bench.compare import compare
from bench.spans import WRAPS, Span, SpanRecorder, _owner_and_name, layer_stats, self_times, tracing
from bench.workloads import sample_indices, sample_mismatches

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=str(cwd),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_workload(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
        "--trace", str(trace), "--scale", "0.05",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in listed]
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = run_bench(tmp_path, "--workload", "market-cold", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracing_restores_every_patched_attribute():
    originals = {}
    for wrap in WRAPS:
        owner, name = _owner_and_name(wrap)
        originals[(id(owner), name)] = (owner, name, owner.__dict__[name])
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with tracing(recorder):
            for owner, name, raw in originals.values():
                assert owner.__dict__[name] is not raw
            raise RuntimeError("body failed")
    for owner, name, raw in originals.values():
        assert owner.__dict__[name] is raw, (owner, name)


def test_wrappers_record_nested_spans():
    from repro.android.apk import Apk
    from repro.corpus.generator import generate_corpus

    record = generate_corpus(12, seed=3)[0]
    recorder = SpanRecorder()
    with tracing(recorder):
        record.apk.manifest  # property wrapper
        record.apk.dex_files()  # classmethod wrapper, called per dex
    names = [span.name for span in recorder.spans]
    assert names.count("android.manifest_parse") == 1
    assert names.count("android.dex_decode") == len(record.apk.dex_entries()) >= 1
    assert isinstance(Apk.__dict__["manifest"], property)


def span(sid, name, start, end, parent=None, thread=1):
    return Span(sid, name, start, end, parent, thread, None)


def test_self_time_on_a_two_thread_span_tree():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "child", 1.0, 4.0, parent=0),
        span(2, "grandchild", 2.0, 3.0, parent=1),
        # a child run on another thread overlaps its sibling: the union counts once
        span(3, "child", 3.0, 6.0, parent=0, thread=2),
        # an unrelated tree on the second thread
        span(4, "root", 20.0, 25.0, thread=2),
        span(5, "leaf", 21.0, 22.5, parent=4, thread=2),
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.5, 5: 1.5}
    stats = layer_stats(spans)
    assert stats["root"].calls == 2 and stats["root"].self_s == 8.5
    assert stats["child"].calls == 2 and stats["child"].self_s == 5.0
    assert stats["root"].total_s == 15.0


def test_tampered_report_entry_fails_the_sample_check():
    from repro.core.pipeline import DyDroid
    from repro.corpus.generator import generate_corpus
    from bench.workloads import pipeline_config

    n, seed, k = 24, 5, 3
    report = DyDroid(pipeline_config()).measure(generate_corpus(n, seed=seed))
    assert sample_mismatches(report, seed, n, k) == []
    victim = sample_indices(seed, n, k)[1]
    report.apps[victim].decompile_failed = not report.apps[victim].decompile_failed
    assert sample_mismatches(report, seed, n, k) == [victim]


def _doc(values, seed0=1, digest="d"):
    return {"runs": [
        {"workload": "market-cold", "seed": seed0 + i, "trace": 0,
         "detail": {"output_digest": digest},
         "result": {"correct": True, "attempted": 100, "failed": 0,
                    "metrics": {"apps_per_s": {"value": v, "unit": "apps/s"}}}}
        for i, v in enumerate(values)
    ]}


#: a one-metric spec with a 10% bound, independent of the calibrated bounds.
COMPARE_SPEC = {
    "workloads": [{"name": "market-cold"}],
    "end_to_end": [{"name": "apps_per_s", "unit": "apps/s", "better": "higher", "bound": 0.1}],
    "per_layer": [],
}


def _row(lines, metric):
    return next(line for line in lines if line.strip().startswith(metric))


def test_compare_flags_a_20_percent_regression():
    base = [100, 101, 99, 100, 102]
    lines, ok = compare(_doc(base), _doc([80, 81, 79, 80, 82]), COMPARE_SPEC)
    assert _row(lines, "apps_per_s").endswith("regressed")
    assert not ok
    lines, ok = compare(_doc(base), _doc([99, 101, 100, 98, 100]), COMPARE_SPEC)
    assert _row(lines, "apps_per_s").endswith("ok") and ok
    assert "outputs: identical (5 common seeds)" in "\n".join(lines)


def test_compare_reports_unresolved_when_spread_exceeds_the_bound():
    wide_a = [100, 60, 140, 100, 90]
    wide_b = [95, 55, 150, 100, 85]
    lines, ok = compare(_doc(wide_a), _doc(wide_b), COMPARE_SPEC)
    assert _row(lines, "apps_per_s").endswith("unresolved")
    # every B run beating every A run settles it despite the spread
    lines, _ = compare(_doc(wide_a), _doc([v + 100 for v in wide_b]), COMPARE_SPEC)
    assert _row(lines, "apps_per_s").endswith("ok")


def test_compare_flags_different_outputs():
    lines, ok = compare(_doc([100] * 3), _doc([100] * 3, digest="other"), COMPARE_SPEC)
    assert "outputs: DIFFERENT" in "\n".join(lines) and not ok
