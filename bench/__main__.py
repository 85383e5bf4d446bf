"""Sets of benchmark runs, and the comparison of two sets.

    PYTHONPATH=src python -m bench run [--seed 42] [--workloads a,b] [--repeat 5]
                                       [--traced] [--out FILE]
    python -m bench compare A.json B.json

``run`` starts ``bench/run.py`` once per workload and repeat (repeat ``r``
uses seed ``seed + r``), prints each run's metrics and checks, writes every
result to ``--out``, and exits non-zero if any run failed a check.
``--traced`` makes every run a traced one (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from typing import List, Optional

from bench import DEFAULT_SEED, ROOT
from bench.compare import compare


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-2]))
    ends_well = len(lines) >= 2 and lines[-2].startswith("detail: ")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "exit_code": proc.returncode,
        "wall_s": time.perf_counter() - started,
        "detail": json.loads(lines[-2][len("detail: "):]) if ends_well else None,
        "result": json.loads(lines[-1]) if ends_well else None,
    }


def cmd_run(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        raise SystemExit("bench run: unknown workloads {} (known: {})".format(unknown, names))
    seconds = args.seconds or spec["run_seconds"]
    runs = [
        run_one(workload, args.seed + repeat, seconds, args.traced)
        for repeat in range(args.repeat)
        for workload in workloads
    ]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seconds": seconds, "runs": runs}, handle, indent=1, sort_keys=True)
    bad = [run for run in runs if run["exit_code"] != 0]
    for run in runs:
        print("{:<16} seed={:<6} {:>6.1f}s  {}".format(
            run["workload"], run["seed"], run["wall_s"],
            "ok" if run["exit_code"] == 0 else "FAILED (exit {})".format(run["exit_code"])))
    return 1 if bad else 0


def cmd_compare(args) -> int:
    docs = []
    for path in (args.a, args.b):
        with open(path) as handle:
            docs.append(json.load(handle))
    lines, ok = compare(docs[0], docs[1], load_spec())
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and collect their results")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--workloads", default="", help="comma-separated (default: all)")
    run.add_argument("--repeat", type=int, default=1, help="runs per workload")
    run.add_argument("--seconds", type=float, default=0.0,
                     help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    run.add_argument("--traced", action="store_true", help="per-layer (traced) runs")
    run.add_argument("--out", help="write every run's result here (JSON)")
    cmp_ = sub.add_parser("compare", help="compare two result files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
