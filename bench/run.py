"""Run one benchmark workload and print its result.

    python3 bench/run.py --workload market-cold --seed 42 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every
``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``.  The line before it,
``detail: {...}``, carries the output digest and every correctness
check.  The exit status is 0 only for a correct run.

Scratch files live in ``.bench_tmp/`` under the checkout and are removed
afterwards; ``TMPDIR`` points there for every process the run starts.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def workload_table():
    """name -> (workload function, modules its set-up time includes importing)."""
    from bench import service, workloads

    return {
        "market-cold": (workloads.market_cold, ("repro.farm",)),
        "market-warm": (workloads.market_warm, ("repro.farm",)),
        "ecosystem-mix": (workloads.ecosystem_mix, ("repro.core.pipeline", "repro.ecosystems")),
        "evolve-lineage": (workloads.evolve_lineage, ("repro.evolution",)),
        "service-open": (service.service_open, ()),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def end_to_end_values(outcome, import_s: float):
    from bench.stats import percentile

    return {
        "setup_s": import_s + outcome.setup_s,
        "apps_per_s": outcome.apps_per_s,
        "latency_p50_ms": percentile(outcome.latencies_ms, 50),
        "latency_p90_ms": percentile(outcome.latencies_ms, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def metrics_for(spec, values):
    """``{name: {value, unit}}`` for exactly the metrics ``spec`` lists."""
    unknown = set(values) - {metric["name"] for metric in spec}
    if unknown:
        raise ValueError("metrics missing from BENCHMARK.json: {}".format(sorted(unknown)))
    return {
        metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in spec
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (self-test smoke runs)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: no program under {}".format(ROOT / "src"), file=sys.stderr)
        return 2
    # The script's own directory would shadow modules by file name; the
    # package is imported as ``bench`` from the checkout root instead.
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != ROOT / "bench"
    ]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = workload_table()
    if args.workload not in table:
        print("run.py: unknown workload {!r} (known: {})".format(
            args.workload, ", ".join(table)), file=sys.stderr)
        return 2
    workload, modules = table[args.workload]

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-"))
    try:
        for module in modules:
            importlib.import_module(module)
        import_s = time.perf_counter() - STARTED

        from bench.workloads import Context

        outcome = workload(
            Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                    workdir=workdir, scale=args.scale)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = metrics_for(spec["per_layer"], outcome.layer)
    else:
        metrics = metrics_for(spec["end_to_end"], end_to_end_values(outcome, import_s))
    correct = all(outcome.checks.values())
    print("{} seed={} trace={}".format(args.workload, args.seed, args.trace))
    for name, metric in metrics.items():
        print("  {:<40} {:>14.6g} {}".format(name, metric["value"], metric["unit"]))
    print("  ops: {} attempted, {} failed".format(outcome.attempted, outcome.failed))
    for name, passed in outcome.checks.items():
        print("  check {:<38} {}".format(name, "ok" if passed else "FAILED"))
    for name, raised in outcome.flags.items():
        print("  flag  {:<38} {}".format(name, "RAISED" if raised else "no"))
    print("  output_digest: {}".format(outcome.digest))
    print("detail: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "output_digest": outcome.digest, "checks": outcome.checks,
        "flags": outcome.flags, "samples": outcome.samples,
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
