"""Command-line interface: ``python -m repro <command>`` (or ``dydroid``).

Commands:

- ``measure``  -- generate a market, run the full pipeline, print tables;
- ``farm run`` -- the same measurement through the sharded, fault-tolerant
  analysis farm (checkpoint/resume, worker pool, metrics);
- ``serve``    -- run the analysis daemon (job queue, admission control,
  content-addressed result cache; drains cleanly on SIGTERM);
- ``submit``   -- send one job to a running daemon, optionally wait for it;
- ``status``   -- daemon stats, or one job's lifecycle record;
- ``evolve``   -- longitudinal measurement: ``run`` analyzes every version
  of a seeded lineage fleet (shared verdict store dedups unchanged
  payloads), ``diff`` prints behavior drift between adjacent snapshots,
  ``report`` prints fleet evolution timelines;
- ``defend``   -- active defense: ``eval`` scores the enforced DCL firewall
  on a seeded corpus (blocked-hazard rate vs. benign breakage), ``replay``
  re-detonates quarantined payloads in a sandbox VM, ``debloat`` shelves
  statically unreachable DCL call sites, ``policies`` lists the named
  enforcement policies;
- ``triage``   -- tier-0 behavioral prefilter: ``train`` fits the stdlib
  classifier on the train half of a seeded corpus split, ``eval`` scores
  it against the full pipeline on the held-out half, ``inspect`` prints a
  model file's provenance and heaviest weights;
- ``top``      -- live dashboard over a running daemon (``/v1/stats`` +
  ``/metrics?format=prom``) or a farm's ``status.json``; ``--once`` emits
  one machine-readable JSON snapshot;
- ``metrics``  -- ``export`` converts a ``--metrics-out`` JSON registry to
  Prometheus text exposition;
- ``corpus``   -- generate blueprints only and print ground-truth statistics;
- ``ecosystems`` -- list/describe the modern-DCL scenario pack (plugin
  hosts, split APKs, staged downloaders, self-debloating apps) that
  ``--ecosystems`` plants into generated corpora;
- ``analyze``  -- deep-dive one generated app (static + dynamic + verdicts);
- ``families`` -- list the malware family corpus DroidNative trains on;
- ``trace``    -- inspect a trace file written with ``--trace-out``.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from typing import List, Optional

from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import CorpusGenerator, CorpusTooSmallError, generate_corpus
from repro.triage.harness import DEFAULT_AUX_CORPORA, DEFAULT_SPLIT_RATIO
from repro.triage.model import DEFAULT_EPOCHS, DEFAULT_L2, DEFAULT_LEARNING_RATE
from repro.triage.tier import DEFAULT_THRESHOLD

TABLE_RENDERERS = {
    "2": "render_dynamic_summary",
    "3": "render_popularity",
    "4": "render_entity_table",
    "5": "render_remote_fetch",
    "6": "render_obfuscation_table",
    "fig3": "render_fig3",
    "7": "render_malware_table",
    "8": "render_runtime_config_table",
    "9": "render_vulnerability_table",
    "10": "render_privacy_table",
    "11": "render_ecosystems_table",
}


def _corpus_profile(args: argparse.Namespace):
    """The corpus profile a command's knobs select (None = paper profile)."""
    if not getattr(args, "ecosystems", False):
        return None
    from repro.ecosystems import ecosystems_profile

    return ecosystems_profile(staged_depth=getattr(args, "staged_depth", 3))


def _add_ecosystem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ecosystems", action="store_true",
        help="plant the modern-DCL scenario pack (plugin hosts, split APKs, "
             "staged downloaders, self-debloating apps) at its calibrated "
             "rates; see `ecosystems list`",
    )
    parser.add_argument(
        "--staged-depth", type=int, default=3, metavar="N",
        help="hops in each staged-downloader delivery chain (default: 3)",
    )


def _add_observe_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write the stage-level span trace here",
    )
    parser.add_argument(
        "--trace-format", default="jsonl", choices=["jsonl", "chrome"],
        help="trace format: jsonl (grep-able) or chrome "
             "(chrome://tracing / Perfetto loadable)",
    )


def _add_farm_run_flags(parser: argparse.ArgumentParser) -> None:
    """What one farm run is: the flags ``farm run`` and ``farm serve`` share."""
    parser.add_argument("--apps", type=int, default=600, help="corpus size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default: 4x workers; 8 for serve)")
    parser.add_argument("--shard-strategy", default="contiguous",
                        choices=["contiguous", "round-robin"])
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-app analysis deadline in seconds")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="per-app retries before quarantine")
    parser.add_argument("--checkpoint", metavar="FILE",
                        help="append-only JSONL journal of settled apps "
                             "(coordinator-owned; workers never touch it)")
    parser.add_argument("--resume", action="store_true",
                        help="skip apps already settled in --checkpoint")
    parser.add_argument("--verdict-store", metavar="FILE",
                        help="shared verdict store: each distinct payload "
                             "digest is analyzed once fleet-wide")
    parser.add_argument("--triage-model", metavar="FILE", default="",
                        help="enable the tier-0 triage gate with this "
                             "trained model (see `triage train`)")
    parser.add_argument("--triage-threshold", type=float, default=0.0,
                        help="confidence bar for tier-0 short-circuits "
                             "(default: {})".format(DEFAULT_THRESHOLD))
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write the JSON metrics summary here")
    parser.add_argument("--train", type=int, default=3,
                        help="DroidNative samples per family")
    parser.add_argument("--no-replays", action="store_true",
                        help="skip Table VIII replays")
    parser.add_argument(
        "--table",
        default="all",
        choices=["all"] + sorted(TABLE_RENDERERS),
        help="which table to print",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit the full serialized report as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dydroid",
        description="DyDroid reproduction: measure dynamic code loading in a simulated app market.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="run the full pipeline and print tables")
    measure.add_argument("--apps", type=int, default=600, help="corpus size (paper: 58,739)")
    measure.add_argument("--seed", type=int, default=7)
    measure.add_argument(
        "--table",
        default="all",
        choices=["all"] + sorted(TABLE_RENDERERS),
        help="which table to print",
    )
    measure.add_argument("--train", type=int, default=3, help="DroidNative samples per family")
    measure.add_argument("--no-replays", action="store_true", help="skip Table VIII replays")
    measure.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    measure.add_argument(
        "--corpus-dir",
        help="measure a corpus previously saved with `corpus --export` instead of generating one",
    )
    _add_observe_flags(measure)
    measure.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the JSON metrics registry (stage histograms, cache counters) here",
    )
    measure.add_argument(
        "--verdict-store", metavar="FILE",
        help="shared verdict store: payload verdicts are reused from (and "
             "published to) this file across runs, farms, and services",
    )
    measure.add_argument(
        "--triage-model", metavar="FILE", default="",
        help="enable the tier-0 triage gate with this trained model "
             "(see `triage train`)",
    )
    measure.add_argument(
        "--triage-threshold", type=float, default=0.0,
        help="confidence bar for tier-0 short-circuits "
             "(default: {})".format(DEFAULT_THRESHOLD),
    )
    _add_ecosystem_flags(measure)

    farm = sub.add_parser("farm", help="sharded, fault-tolerant analysis farm")
    farm_sub = farm.add_subparsers(dest="farm_command", required=True)
    farm_run = farm_sub.add_parser(
        "run", help="measure a seeded corpus across a worker pool"
    )
    farm_run.add_argument("--workers", type=int, default=2,
                          help="worker processes; 1 runs in-process")
    _add_farm_run_flags(farm_run)
    farm_run.add_argument("--telemetry-dir", metavar="DIR",
                          help="live telemetry directory: per-shard flight "
                               "recordings, heartbeats, and status.json "
                               "(default: the --checkpoint directory)")
    _add_observe_flags(farm_run)

    farm_serve = farm_sub.add_parser(
        "serve",
        help="coordinate the same run over HTTP: `farm join` nodes lease "
             "shards, renew from heartbeats, and ship results back",
    )
    farm_serve.add_argument("--host", default="127.0.0.1")
    farm_serve.add_argument("--port", type=int, default=8788,
                            help="listen port (0 picks an ephemeral port)")
    farm_serve.add_argument("--lease", type=float, default=15.0,
                            help="shard lease seconds; a worker that stops "
                                 "renewing for this long loses its shard")
    _add_farm_run_flags(farm_serve)
    _add_observe_flags(farm_serve)

    farm_join = farm_sub.add_parser(
        "join",
        help="lease and analyze shards from a `farm serve` coordinator "
             "until its run drains",
    )
    farm_join.add_argument("--host", default="127.0.0.1")
    farm_join.add_argument("--port", type=int, default=8788)
    farm_join.add_argument("--workers", type=int, default=1,
                           help="local worker processes (= concurrent leases); "
                                "1 runs in-process")
    farm_join.add_argument("--name", default=None,
                           help="worker id shown in the coordinator's status "
                                "(default: hostname:pid)")
    farm_join.add_argument("--telemetry-dir", metavar="DIR",
                           help="node-local flight recordings and heartbeats; "
                                "renewals report per-app progress from here")
    farm_join.add_argument("--poll", type=float, default=0.5,
                           help="seconds between lease attempts while the "
                                "queue is empty")
    farm_join.add_argument("--json", action="store_true",
                           help="emit the join summary as JSON")

    evolve = sub.add_parser("evolve", help="longitudinal (multi-version) measurement")
    evolve_sub = evolve.add_subparsers(dest="evolve_command", required=True)
    evolve_run = evolve_sub.add_parser(
        "run", help="analyze every version of a seeded lineage fleet"
    )
    evolve_run.add_argument("--apps", type=int, default=120, help="lineages (packages)")
    evolve_run.add_argument("--versions", type=int, default=3,
                            help="versions per lineage")
    evolve_run.add_argument("--seed", type=int, default=7)
    evolve_run.add_argument("--workers", type=int, default=2,
                            help="worker processes; 1 runs in-process")
    evolve_run.add_argument("--shards", type=int, default=None,
                            help="shards per version (default: 4x workers)")
    evolve_run.add_argument("--hazard", type=float, default=0.05,
                            help="per-version probability a benign app turns malicious")
    evolve_run.add_argument("--warehouse", metavar="FILE",
                            help="append-only snapshot warehouse; evolve "
                                 "diff/report read from it")
    evolve_run.add_argument("--verdict-store", metavar="FILE",
                            help="shared verdict store: each distinct payload "
                                 "digest is analyzed once across all versions")
    evolve_run.add_argument("--metrics-out", metavar="FILE",
                            help="write the JSON metrics summary here")
    evolve_run.add_argument("--train", type=int, default=3,
                            help="DroidNative samples per family")
    evolve_run.add_argument("--no-replays", action="store_true",
                            help="skip Table VIII replays")
    evolve_run.add_argument("--json", action="store_true",
                            help="emit diffs + timeline as JSON")
    _add_observe_flags(evolve_run)
    evolve_diff = evolve_sub.add_parser(
        "diff", help="print behavior drift between adjacent warehouse snapshots"
    )
    evolve_diff.add_argument("--warehouse", metavar="FILE", required=True)
    evolve_diff.add_argument("--package", default=None,
                             help="restrict to one package")
    evolve_diff.add_argument("--json", action="store_true",
                             help="emit structured diffs as JSON")
    evolve_report = evolve_sub.add_parser(
        "report", help="print fleet evolution timelines from a warehouse"
    )
    evolve_report.add_argument("--warehouse", metavar="FILE", required=True)
    evolve_report.add_argument("--json", action="store_true",
                               help="emit the timeline as JSON")

    defend = sub.add_parser("defend", help="active defense: firewall, quarantine, debloat")
    defend_sub = defend.add_subparsers(dest="defend_command", required=True)
    defend_eval = defend_sub.add_parser(
        "eval", help="score enforcement on a seeded corpus (baseline vs. defended)"
    )
    defend_eval.add_argument("--apps", type=int, default=120, help="corpus size")
    defend_eval.add_argument("--seed", type=int, default=7)
    defend_eval.add_argument("--policy", default="default",
                             help="enforcement policy (see `defend policies`)")
    defend_eval.add_argument("--verdict-store", metavar="FILE",
                             help="shared verdict store; the baseline phase warms "
                                  "it and the known-malware rule reads it")
    defend_eval.add_argument("--quarantine-dir", metavar="DIR",
                             help="preserve quarantined payload bytes here")
    defend_eval.add_argument("--workers", type=int, default=1,
                             help="worker processes; >1 runs both phases on the farm")
    defend_eval.add_argument("--train", type=int, default=3,
                             help="DroidNative samples per family")
    defend_eval.add_argument("--json", action="store_true",
                             help="emit the full scorecard as JSON")
    _add_ecosystem_flags(defend_eval)
    defend_replay = defend_sub.add_parser(
        "replay", help="re-detonate quarantined payloads in a sandbox VM"
    )
    defend_replay.add_argument("--quarantine-dir", metavar="DIR", required=True)
    defend_replay.add_argument("--digest", default=None,
                               help="replay only this payload (default: all)")
    defend_replay.add_argument("--json", action="store_true")
    defend_debloat = defend_sub.add_parser(
        "debloat", help="shelve statically unreachable DCL call sites"
    )
    defend_debloat.add_argument("--apps", type=int, default=120, help="corpus size")
    defend_debloat.add_argument("--seed", type=int, default=7)
    defend_debloat.add_argument("--index", type=int, default=None,
                                help="debloat only this corpus index")
    defend_debloat.add_argument("--json", action="store_true")
    defend_sub.add_parser("policies", help="list the named enforcement policies")

    triage = sub.add_parser(
        "triage", help="tier-0 behavioral prefilter: train, evaluate, inspect"
    )
    triage_sub = triage.add_subparsers(dest="triage_command", required=True)
    triage_train = triage_sub.add_parser(
        "train", help="train a model on the train half of a seeded corpus split"
    )
    triage_train.add_argument("--apps", type=int, default=120, help="corpus size")
    triage_train.add_argument("--seed", type=int, default=7)
    triage_train.add_argument("--out", metavar="FILE", required=True,
                              help="write the versioned JSON model here")
    triage_train.add_argument("--ratio", type=float, default=DEFAULT_SPLIT_RATIO,
                              help="train fraction of the seeded split")
    triage_train.add_argument("--split-seed", type=int, default=0,
                              help="split shuffle seed (shared with `triage eval`)")
    triage_train.add_argument("--aux-corpora", type=int, default=DEFAULT_AUX_CORPORA,
                              help="extra whole training corpora from derived "
                                   "seeds (rare hazard roles are planted ~once "
                                   "per corpus)")
    triage_train.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    triage_train.add_argument("--learning-rate", type=float,
                              default=DEFAULT_LEARNING_RATE)
    triage_train.add_argument("--l2", type=float, default=DEFAULT_L2)
    triage_train.add_argument("--train-seed", type=int, default=0,
                              help="SGD shuffle seed")
    triage_train.add_argument("--harvest", metavar="FILE", default="",
                              help="fold in hard examples a gated run harvested "
                                   "to <model>.harvest.jsonl")
    triage_train.add_argument("--json", action="store_true",
                              help="emit the training summary as JSON")
    triage_eval = triage_sub.add_parser(
        "eval", help="score a model on the held-out half (full pipeline = truth)"
    )
    triage_eval.add_argument("--model", metavar="FILE", required=True)
    triage_eval.add_argument("--apps", type=int, default=120, help="corpus size")
    triage_eval.add_argument("--seed", type=int, default=7)
    triage_eval.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                             help="confidence bar for would-be short-circuits")
    triage_eval.add_argument("--ratio", type=float, default=DEFAULT_SPLIT_RATIO,
                             help="train fraction used when the model was trained")
    triage_eval.add_argument("--split-seed", type=int, default=0)
    triage_eval.add_argument("--train", type=int, default=3,
                             help="DroidNative samples per family "
                                  "(ground-truth pipeline)")
    triage_eval.add_argument("--json", action="store_true",
                             help="emit the scorecard as JSON")
    triage_inspect = triage_sub.add_parser(
        "inspect", help="print a model file's provenance and heaviest weights"
    )
    triage_inspect.add_argument("--model", metavar="FILE", required=True)
    triage_inspect.add_argument("--json", action="store_true",
                                help="emit the full model document as JSON")

    serve = sub.add_parser("serve", help="run the analysis-as-a-service daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="background scheduler threads")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="max queued jobs before 429 + Retry-After")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="per-client submissions/s (0 disables rate limiting)")
    serve.add_argument("--burst", type=int, default=10,
                       help="per-client token-bucket burst")
    serve.add_argument("--persist", metavar="FILE",
                       help="JSONL result journal; reloaded on restart")
    serve.add_argument("--verdict-store", metavar="FILE",
                       help="shared verdict store for payload verdicts, "
                            "reusable across daemon restarts and farm runs")
    serve.add_argument("--cache-capacity", type=int, default=65536,
                       help="distinct APK digests held in the result cache")
    serve.add_argument("--train", type=int, default=3,
                       help="DroidNative samples per family")
    serve.add_argument("--no-replays", action="store_true",
                       help="skip Table VIII replays")
    serve.add_argument("--policy", default="",
                       help="default firewall policy for jobs that do not "
                            "name one (see `defend policies`)")
    serve.add_argument("--quarantine-dir", metavar="DIR", default="",
                       help="preserve payloads the firewall quarantines here")
    serve.add_argument("--triage-model", metavar="FILE", default="",
                       help="enable the tier-0 triage gate for all jobs "
                            "(tenants opt out with triage: \"off\")")
    serve.add_argument("--triage-threshold", type=float, default=0.0,
                       help="daemon-default confidence bar for tier-0 "
                            "short-circuits (default: {})".format(DEFAULT_THRESHOLD))
    serve.add_argument("--slo", metavar="SPEC", default="",
                       help="per-tenant SLO objectives, e.g. "
                            "'p95=30s,error_rate=1%%' (reported in "
                            "/v1/stats and as slo.* gauges)")
    serve.add_argument("--slo-window", type=int, default=256,
                       help="jobs per client considered by the rolling "
                            "error budgets")
    serve.add_argument("--event-log", metavar="FILE",
                       help="append structured JSONL events (job lifecycle, "
                            "firewall enforcement, store publishes) here")
    _add_observe_flags(serve)
    serve.add_argument("--metrics-out", metavar="FILE",
                       help="write the final metrics registry here on drain")

    submit = sub.add_parser("submit", help="submit one job to a running daemon")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8787)
    submit.add_argument("--seed", type=int, default=7, help="corpus seed")
    submit.add_argument("--apps", type=int, default=600, help="corpus size")
    submit.add_argument("--index", type=int, required=True,
                        help="app index in the (seed, apps) corpus")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher dequeues earlier")
    submit.add_argument("--client", default=None,
                        help="client id for rate limiting (default: peer address)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job settles and print the final job")
    submit.add_argument("--result", action="store_true",
                        help="with --wait: also print the full analysis JSON")
    submit.add_argument("--timeout", type=float, default=120.0,
                        help="--wait deadline in seconds")
    submit.add_argument("--policy", default="",
                        help="analyze under this firewall policy "
                             "(per-tenant submit-time setting)")
    submit.add_argument("--triage", default="", choices=["on", "off"],
                        help="per-tenant tier-0 override: 'on' requires the "
                             "daemon's gate, 'off' forces full analyzers")
    submit.add_argument("--triage-threshold", type=float, default=0.0,
                        help="per-tenant confidence bar (requires --triage on)")

    status = sub.add_parser("status", help="daemon stats, or one job's record")
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=8787)
    status.add_argument("--job", metavar="ID", help="show this job instead of stats")

    top = sub.add_parser("top", help="live dashboard over a daemon or farm run")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8787)
    top.add_argument("--status", metavar="FILE", default=None,
                     help="watch a farm's status.json instead of a daemon")
    top.add_argument("--once", action="store_true",
                     help="print one JSON snapshot and exit (for scripts/CI)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh interval in seconds")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after N refreshes (0: until interrupted)")

    metrics = sub.add_parser("metrics", help="metrics tooling")
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    metrics_export = metrics_sub.add_parser(
        "export", help="convert a --metrics-out JSON registry to Prometheus text"
    )
    metrics_export.add_argument("metrics_file",
                                help="JSON written by --metrics-out (plain "
                                     "registry or farm summary)")
    metrics_export.add_argument("--out", metavar="FILE", default=None,
                                help="write here instead of stdout")

    store = sub.add_parser("store", help="verdict-store / warehouse tooling")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_compact = store_sub.add_parser(
        "compact",
        help="garbage-collect a verdict store or snapshot warehouse in "
             "place (drop duplicates, corrupt debris, stale index lines) "
             "and rebuild its sqlite sidecar index",
    )
    store_compact.add_argument("store_file",
                               help="verdict store or warehouse JSONL "
                                    "(auto-detected from the header)")
    store_compact.add_argument("--json", action="store_true",
                               help="emit the compaction stats as JSON")

    corpus = sub.add_parser("corpus", help="print ground-truth corpus statistics")
    corpus.add_argument("--apps", type=int, default=1000)
    corpus.add_argument("--seed", type=int, default=7)
    corpus.add_argument("--export", metavar="DIR", help="also save the built corpus to DIR")
    _add_ecosystem_flags(corpus)

    ecosystems = sub.add_parser(
        "ecosystems",
        help="the modern-DCL scenario pack: list or describe its ecosystems",
    )
    ecosystems_sub = ecosystems.add_subparsers(dest="ecosystems_command", required=True)
    ecosystems_sub.add_parser("list", help="one line per ecosystem")
    ecosystems_describe = ecosystems_sub.add_parser(
        "describe", help="full detail for one ecosystem"
    )
    ecosystems_describe.add_argument(
        "key", help="ecosystem key (see `ecosystems list`)"
    )

    analyze = sub.add_parser("analyze", help="deep-dive one generated app")
    analyze.add_argument("--apps", type=int, default=600)
    analyze.add_argument("--seed", type=int, default=7)
    group = analyze.add_mutually_exclusive_group(required=True)
    group.add_argument("--index", type=int, help="app index in the corpus")
    group.add_argument(
        "--role",
        choices=["baidu", "malware", "packed", "vuln", "ads"],
        help="pick the first app with this planted role",
    )

    sub.add_parser("families", help="list the trained malware families")

    trace = sub.add_parser("trace", help="inspect a trace written with --trace-out")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary", help="per-stage count/total/p50/p95/max table"
    )
    trace_summary.add_argument("trace_file", help="jsonl or chrome trace file")
    return parser


def _print_report(report, args: argparse.Namespace) -> None:
    if args.json:
        print(report.to_json(include_apps=True))
    elif args.table == "all":
        print(report.render_all())
    else:
        print(getattr(report, TABLE_RENDERERS[args.table])())


def _write_json(path: str, payload) -> None:
    import json as json_module

    with open(path, "w", encoding="utf-8") as handle:
        json_module.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def cmd_measure(args: argparse.Namespace) -> int:
    from repro.observe import MetricsRegistry, Tracer, digest_line, write_trace

    started = time.perf_counter()
    if args.corpus_dir:
        from repro.corpus.storage import load_corpus

        corpus = load_corpus(args.corpus_dir)
    else:
        corpus = generate_corpus(
            args.apps, seed=args.seed, profile=_corpus_profile(args)
        )
    config = DyDroidConfig(
        train_samples_per_family=args.train, run_replays=not args.no_replays,
        triage_model=args.triage_model, triage_threshold=args.triage_threshold,
    )
    # Observability is on by default: the trace powers the one-line
    # digest below even when no --trace-out was requested.
    tracer, registry = Tracer(), MetricsRegistry()
    from repro.store import StoreError
    from repro.triage import TriageError

    try:
        pipeline = DyDroid(
            config, tracer=tracer, metrics=registry,
            verdict_store=args.verdict_store,
        )
    except (StoreError, TriageError) as exc:
        raise SystemExit("measure: {}".format(exc))
    try:
        report = pipeline.measure(corpus)
    finally:
        pipeline.close()
    _print_report(report, args)
    spans = tracer.to_dicts()
    if args.trace_out:
        write_trace(spans, args.trace_out, fmt=args.trace_format)
    if args.metrics_out:
        _write_json(args.metrics_out, registry.to_dict())
    print()
    print(
        "[{} apps measured in {:.1f}s]".format(
            report.n_total, time.perf_counter() - started
        ),
        file=sys.stderr,
    )
    print(digest_line(spans, registry), file=sys.stderr)
    return 0


def _print_farm_result(result, args: argparse.Namespace, label: str) -> None:
    """The shared tail of ``farm run`` and ``farm serve``: tables, quarantine
    lines, metrics/trace files, one summary line."""
    _print_report(result.report, args)
    for record in result.quarantined:
        print(
            "[quarantined: {} (index {}) after {} attempt(s): {}]".format(
                record.package, record.index, record.attempts, record.error
            ),
            file=sys.stderr,
        )
    if args.metrics_out:
        _write_json(args.metrics_out, result.metrics)
    if args.trace_out:
        from repro.observe import write_trace

        write_trace(result.spans, args.trace_out, fmt=args.trace_format)
    print()
    print(
        "[{}: {} apps ({} resumed) in {:.1f}s ({:.1f} apps/s), "
        "{} retries, {} quarantined]".format(
            label,
            result.report.n_total,
            result.resumed_apps,
            result.metrics["wall_s"],
            result.metrics["apps_per_second"],
            result.metrics["retries"],
            result.metrics["apps_quarantined"],
        ),
        file=sys.stderr,
    )


def _farm_config(args: argparse.Namespace, verb: str, **extra):
    """The :class:`FarmConfig` of the flags ``farm run`` and ``farm serve``
    share.  A broken ``--triage-model`` fails fast here rather than
    quarantining every app when each worker process discovers it."""
    from repro.farm import FarmConfig

    if args.triage_model:
        from repro.triage import TriageError, TriageModel

        try:
            TriageModel.load(args.triage_model)
        except TriageError as exc:
            raise SystemExit("{}: {}".format(verb, exc))
    return FarmConfig(
        n_apps=args.apps,
        corpus_seed=args.seed,
        n_shards=args.shards,
        shard_strategy=args.shard_strategy,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        checkpoint=args.checkpoint,
        resume=args.resume,
        pipeline=DyDroidConfig(
            train_samples_per_family=args.train, run_replays=not args.no_replays,
            triage_model=args.triage_model, triage_threshold=args.triage_threshold,
        ),
        trace=bool(args.trace_out),
        verdict_store=args.verdict_store,
        **extra,
    )


def _cmd_farm_run(args: argparse.Namespace) -> int:
    from repro.farm import CheckpointError, run_farm
    from repro.store import StoreError

    config = _farm_config(
        args, "farm run", workers=args.workers, telemetry_dir=args.telemetry_dir
    )
    try:
        result = run_farm(config)
    except (CheckpointError, StoreError, ValueError) as exc:
        raise SystemExit("farm run: {}".format(exc))
    _print_farm_result(result, args, "farm")
    return 0


def _cmd_farm_serve(args: argparse.Namespace) -> int:
    from repro.farm import CheckpointError, FarmCoordinator
    from repro.store import StoreError

    config = _farm_config(args, "farm serve")
    try:
        coordinator = FarmCoordinator(
            config, host=args.host, port=args.port, lease_s=args.lease
        ).start()
    except (CheckpointError, StoreError, ValueError, OSError) as exc:
        raise SystemExit("farm serve: {}".format(exc))
    snapshot = coordinator.ledger.snapshot()
    print(
        "[farm coordinator on {}:{}: {} apps, {} shards pending "
        "({} resumed apps), lease {:.1f}s]".format(
            coordinator.host,
            coordinator.port,
            args.apps,
            snapshot["pending"],
            coordinator.run.resumed_apps,
            args.lease,
        ),
        file=sys.stderr,
        flush=True,
    )
    try:
        result = coordinator.wait()
    finally:
        coordinator.stop()
    _print_farm_result(result, args, "farm serve")
    leases = result.metrics.get("leases", {})
    print(
        "[leases: {} granted, {} renewed, {} expired, {} stolen, "
        "{} stale; workers: {}]".format(
            leases.get("granted", 0),
            leases.get("renewed", 0),
            leases.get("expired", 0),
            leases.get("stolen", 0),
            leases.get("stale", 0),
            result.metrics.get("workers", 0),
        ),
        file=sys.stderr,
    )
    return 0


def _cmd_farm_join(args: argparse.Namespace) -> int:
    from repro.farm import FarmJoinError, join_farm

    try:
        summary = join_farm(
            args.host,
            args.port,
            workers=args.workers,
            worker_id=args.name,
            telemetry_dir=args.telemetry_dir,
            poll_s=args.poll,
        )
    except FarmJoinError as exc:
        raise SystemExit("farm join: {}".format(exc))
    if args.json:
        import json as json_module
        from dataclasses import asdict

        print(json_module.dumps(asdict(summary), indent=1, sort_keys=True))
    else:
        print(
            "[{}: {} shards completed ({} stale, {} failed), {} apps "
            "analyzed, {} quarantined, {} leases lost, {:.1f}s]".format(
                summary.worker,
                summary.shards_completed,
                summary.shards_stale,
                summary.shards_failed,
                summary.apps_analyzed,
                summary.apps_quarantined,
                summary.lost_leases,
                summary.wall_s,
            )
        )
        for error in summary.errors:
            print("[shard failed: {}]".format(error), file=sys.stderr)
    return 0


def cmd_farm(args: argparse.Namespace) -> int:
    if args.farm_command == "serve":
        return _cmd_farm_serve(args)
    if args.farm_command == "join":
        return _cmd_farm_join(args)
    return _cmd_farm_run(args)


def cmd_store(args: argparse.Namespace) -> int:
    import json as json_module

    try:
        with open(args.store_file, "rb") as handle:
            first = handle.readline()
    except OSError as exc:
        raise SystemExit("store compact: {}".format(exc))
    try:
        header = json_module.loads(first.decode("utf-8", "replace") or "{}")
    except ValueError:
        header = {}
    # Both files start with a {"kind": "header", ...} line; the warehouse's
    # carries "serialization", the verdict store's a config "fingerprint".
    is_warehouse = isinstance(header, dict) and "serialization" in header
    if is_warehouse:
        from repro.evolution import WarehouseError, compact_warehouse

        try:
            stats = compact_warehouse(args.store_file)
        except (WarehouseError, OSError) as exc:
            raise SystemExit("store compact: {}".format(exc))
        kept, flavor = stats["snapshots"], "warehouse"
    else:
        from repro.store import StoreError, compact_store

        try:
            stats = compact_store(args.store_file)
        except (StoreError, OSError) as exc:
            raise SystemExit("store compact: {}".format(exc))
        kept, flavor = stats["entries"], "verdict store"
    if args.json:
        payload = dict(stats)
        payload["kind"] = flavor
        print(json_module.dumps(payload, indent=1, sort_keys=True))
    else:
        print(
            "[compacted {} {}: {} kept, {} duplicates + {} corrupt{} "
            "dropped, {} -> {} bytes]".format(
                flavor,
                args.store_file,
                kept,
                stats["dropped_duplicates"],
                stats["dropped_corrupt"],
                " + {} stale index lines".format(stats["dropped_index_lines"])
                if "dropped_index_lines" in stats
                else "",
                stats["bytes_before"],
                stats["bytes_after"],
            )
        )
    return 0


def _warehouse_diffs(warehouse, package: Optional[str] = None):
    """Adjacent-version diffs from a warehouse, deterministic order."""
    from repro.evolution import diff_analyses

    packages = [package] if package else warehouse.packages()
    diffs = []
    for name in packages:
        versions = warehouse.versions(name)
        if not versions and package:
            raise SystemExit("evolve diff: no snapshots for {!r}".format(package))
        snapshots = [warehouse.get_analysis(name, code) for code in versions]
        for old, new in zip(snapshots, snapshots[1:]):
            diff = diff_analyses(old, new)
            if not diff.is_empty:
                diffs.append(diff)
    return diffs


def cmd_evolve(args: argparse.Namespace) -> int:
    from repro.evolution import (
        EvolveConfig,
        LineageSpec,
        SnapshotWarehouse,
        WarehouseError,
        diff_digest,
        load_warehouse_timeline,
        run_evolution,
    )

    if args.evolve_command == "run":
        from repro.observe import write_trace
        from repro.store import StoreError

        config = EvolveConfig(
            n_apps=args.apps,
            n_versions=args.versions,
            seed=args.seed,
            workers=args.workers,
            n_shards=args.shards,
            spec=LineageSpec(malicious_hazard=args.hazard),
            pipeline=DyDroidConfig(
                train_samples_per_family=args.train,
                run_replays=not args.no_replays,
            ),
            warehouse=args.warehouse,
            verdict_store=args.verdict_store,
            trace=bool(args.trace_out),
        )
        try:
            result = run_evolution(config)
        except (StoreError, WarehouseError, ValueError) as exc:
            raise SystemExit("evolve run: {}".format(exc))
        if args.json:
            _print_json(
                {
                    "diffs": [diff.to_dict() for diff in result.diffs],
                    "diff_digest": result.diff_fingerprint,
                    "timeline": result.timeline.to_dict(),
                }
            )
        else:
            for diff in result.diffs:
                print(diff.render())
            print(result.timeline.render())
            print("[diff digest: {}]".format(result.diff_fingerprint))
        if args.metrics_out:
            _write_json(args.metrics_out, result.metrics)
        if args.trace_out:
            write_trace(result.spans, args.trace_out, fmt=args.trace_format)
        print(
            "[evolve: {} snapshots ({} apps x {} versions) in {:.1f}s, "
            "{} drifted]".format(
                result.metrics["snapshots_analyzed"],
                config.n_apps,
                config.n_versions,
                result.metrics["wall_s"],
                len(result.diffs),
            ),
            file=sys.stderr,
        )
        return 0

    import os

    if not os.path.exists(args.warehouse):
        # read verbs must not conjure an empty warehouse into existence
        raise SystemExit(
            "evolve {}: no warehouse at {}".format(args.evolve_command, args.warehouse)
        )
    try:
        warehouse = SnapshotWarehouse(args.warehouse)
    except WarehouseError as exc:
        raise SystemExit("evolve {}: {}".format(args.evolve_command, exc))
    try:
        if args.evolve_command == "diff":
            diffs = _warehouse_diffs(warehouse, args.package)
            if args.json:
                _print_json(
                    {
                        "diffs": [diff.to_dict() for diff in diffs],
                        "diff_digest": diff_digest(diffs),
                    }
                )
            else:
                for diff in diffs:
                    print(diff.render())
                print("[diff digest: {}]".format(diff_digest(diffs)))
        else:  # report
            timeline = load_warehouse_timeline(warehouse)
            if args.json:
                _print_json(timeline.to_dict())
            else:
                print(timeline.render())
    finally:
        warehouse.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.observe import write_trace
    from repro.service import AnalysisService, ServiceConfig, make_server
    from repro.service.persist import ServicePersistError
    from repro.service.slo import SloError, parse_slo
    from repro.store import StoreError

    try:
        slo = parse_slo(args.slo) if args.slo else None
    except SloError as exc:
        raise SystemExit("serve: {}".format(exc))
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        rate_per_s=args.rate,
        rate_burst=args.burst,
        persist=args.persist,
        verdict_store=args.verdict_store,
        cache_capacity=args.cache_capacity,
        slo=slo,
        slo_window=args.slo_window,
        event_log=args.event_log,
        pipeline=DyDroidConfig(
            train_samples_per_family=args.train,
            run_replays=not args.no_replays,
            firewall_policy=args.policy,
            quarantine_dir=args.quarantine_dir,
            triage_model=args.triage_model,
            triage_threshold=args.triage_threshold,
        ),
    )
    if args.policy:
        from repro.defense.firewall import get_policy

        try:
            get_policy(args.policy)
        except ValueError as exc:
            raise SystemExit("serve: {}".format(exc))
    if args.triage_model:
        # validate now: worker threads build pipelines lazily, so a broken
        # model would otherwise surface as per-job failures.
        from repro.triage import TriageError, TriageModel

        try:
            TriageModel.load(args.triage_model)
        except TriageError as exc:
            raise SystemExit("serve: {}".format(exc))
    service = AnalysisService(config)
    try:
        service.start()
    except (ServicePersistError, StoreError) as exc:
        raise SystemExit("serve: {}".format(exc))
    server = make_server(service)
    print(
        "[serve] listening on {}:{} ({} workers, queue depth {})".format(
            args.host, server.server_port, args.workers, args.queue_depth
        ),
        flush=True,
    )

    def on_signal(signum, frame):
        # shutdown() blocks until serve_forever() exits, and the handler
        # runs on the thread *inside* serve_forever -- hand it off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, on_signal) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    drained = service.drain(timeout=300.0)
    server.server_close()
    if args.metrics_out:
        _write_json(args.metrics_out, service.registry.to_dict())
    if args.trace_out:
        write_trace(service.trace_dicts(), args.trace_out, fmt=args.trace_format)
    print(
        "[serve] drained: {} completed, {} failed, {} cache hits, "
        "{} pipeline runs, {} rejected".format(
            service.counter_value("service.jobs.completed"),
            service.counter_value("service.jobs.failed"),
            service.counter_value("service.cache.hit"),
            service.counter_value("service.pipeline.runs"),
            service.counter_value("service.rejected.queue_full")
            + service.counter_value("service.rejected.rate_limited"),
        ),
        file=sys.stderr,
    )
    return 0 if drained else 1


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(args.host, args.port)


def _print_json(payload) -> None:
    import json as json_module

    print(json_module.dumps(payload, indent=1, sort_keys=True))


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClientError

    client = _service_client(args)
    spec = {
        "kind": "corpus",
        "seed": args.seed,
        "n_apps": args.apps,
        "index": args.index,
    }
    if args.policy:
        spec["policy"] = args.policy
    if args.triage:
        spec["triage"] = args.triage
    if args.triage_threshold:
        spec["triage_threshold"] = args.triage_threshold
    try:
        response = client.submit(spec, client=args.client, priority=args.priority)
        if args.wait and response["state"] != "done":
            response = client.wait(response["job_id"], timeout=args.timeout)
        elif args.wait:
            response = client.job(response["job_id"])
        _print_json(response)
        if args.wait and args.result:
            _print_json(client.result(response["digest"]))
    except ServiceClientError as exc:
        raise SystemExit("submit: {}".format(exc))
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClientError

    client = _service_client(args)
    try:
        _print_json(client.job(args.job) if args.job else client.stats())
    except ServiceClientError as exc:
        raise SystemExit("status: {}".format(exc))
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    generator = CorpusGenerator(profile=_corpus_profile(args), seed=args.seed)
    blueprints = generator.sample_blueprints(args.apps)
    n = len(blueprints)

    def pct(count: int) -> str:
        return "{} ({:.2%})".format(count, count / n)

    print("corpus ground truth: {} apps, seed {}".format(n, args.seed))
    print("  DEX DCL code:        ", pct(sum(b.has_dex_dcl_code for b in blueprints)))
    print("  native code:         ", pct(sum(b.has_native_code for b in blueprints)))
    print("  DEX DCL reachable:   ", pct(sum(b.dex_dcl_reachable for b in blueprints)))
    print("  native reachable:    ", pct(sum(b.native_dcl_reachable for b in blueprints)))
    print("  lexical obfuscation: ", pct(sum(b.lexical_obfuscated for b in blueprints)))
    print("  reflection:          ", pct(sum(b.reflection for b in blueprints)))
    print("  packed (DEX enc.):   ", pct(sum(b.is_packed for b in blueprints)))
    print("  anti-decompilation:  ", pct(sum(b.anti_decompilation for b in blueprints)))
    print("  remote fetch (Baidu):", pct(sum(b.is_baidu_remote for b in blueprints)))
    print("  vulnerable:          ", pct(sum(1 for b in blueprints if b.vuln_kind)))
    families = Counter(b.malware_family for b in blueprints if b.malware_family)
    print("  malware carriers:    ", dict(families))
    entities = Counter(b.dex_entity for b in blueprints if b.dex_entity)
    print("  DEX entity mix:      ", dict(entities))
    if getattr(args, "ecosystems", False):
        print("  plugin hosts:        ", pct(sum(b.is_plugin_host for b in blueprints)))
        print("  split-APK apps:      ", pct(sum(b.is_split_apk for b in blueprints)))
        print("  staged downloaders:  ", pct(sum(b.is_staged_downloader for b in blueprints)))
        print("  self-debloating:     ", pct(sum(b.is_self_debloating for b in blueprints)))
    if args.export:
        from repro.corpus.storage import save_corpus

        records = [generator.build_record(blueprint) for blueprint in blueprints]
        index = save_corpus(records, args.export)
        print("  exported to:         ", index.parent)
    return 0


def _pick_record(args: argparse.Namespace):
    generator = CorpusGenerator(seed=args.seed)
    blueprints = generator.sample_blueprints(args.apps)
    if args.index is not None:
        if not 0 <= args.index < len(blueprints):
            raise SystemExit("index out of range (corpus has {} apps)".format(len(blueprints)))
        return generator.build_record(blueprints[args.index])
    predicates = {
        "baidu": lambda b: b.is_baidu_remote,
        "malware": lambda b: b.malware_family is not None,
        "packed": lambda b: b.is_packed,
        "vuln": lambda b: b.vuln_kind is not None,
        "ads": lambda b: b.uses_google_ads,
    }
    predicate = predicates[args.role]
    for blueprint in blueprints:
        if predicate(blueprint):
            return generator.build_record(blueprint)
    raise SystemExit("no app with role {!r} in this corpus".format(args.role))


def cmd_analyze(args: argparse.Namespace) -> int:
    record = _pick_record(args)
    dydroid = DyDroid(DyDroidConfig(train_samples_per_family=3))
    analysis = dydroid.analyze_app(record)

    print("package:   ", analysis.package)
    print("category:  ", analysis.metadata.category)
    print("downloads: ", "{:,}".format(analysis.metadata.downloads))
    if analysis.decompile_failed:
        print("decompilation FAILED (anti-decompilation sample)")
        return 0
    print("prefilter:  dex={} native={}".format(
        analysis.prefilter.has_dex_dcl, analysis.prefilter.has_native_dcl))
    print("obfuscation:", ", ".join(analysis.obfuscation.techniques()) or "none")
    if analysis.dynamic is None:
        print("dynamic analysis: skipped (no DCL-related code)")
        return 0
    print("dynamic:    outcome={} events_run={}".format(
        analysis.dynamic.outcome.value, analysis.dynamic.events_run))
    for payload in analysis.payloads:
        print("  payload", payload.path)
        print("    kind={} entity={} provenance={}".format(
            payload.kind.value, payload.entity.value, payload.provenance.value))
        if payload.remote_sources:
            print("    remote sources:", ", ".join(payload.remote_sources))
        if payload.detection:
            print("    MALWARE:", payload.detection)
        for leak in payload.leaks:
            print("    leak:", leak)
    for finding in analysis.vulnerabilities:
        print("  VULNERABLE: {} via {} ({})".format(
            finding.category.value, finding.path, finding.code_kind))
    for config, loaded in sorted(analysis.replay_loaded.items()):
        print("  replay[{}]: {} file(s) loaded".format(config, len(loaded)))
    return 0


def cmd_defend(args: argparse.Namespace) -> int:
    from repro.defense.firewall import POLICIES, QuarantineStore, replay_quarantined
    from repro.store import StoreError

    if args.defend_command == "eval":
        from repro.defense.evaluation import evaluate_defense

        started = time.perf_counter()
        try:
            evaluation = evaluate_defense(
                args.apps,
                seed=args.seed,
                policy=args.policy,
                verdict_store=args.verdict_store or "",
                quarantine_dir=args.quarantine_dir or "",
                config=DyDroidConfig(train_samples_per_family=args.train),
                workers=args.workers,
                profile=_corpus_profile(args),
            )
        except (StoreError, ValueError) as exc:
            raise SystemExit("defend eval: {}".format(exc))
        if args.json:
            _print_json(evaluation.to_dict())
        else:
            print(evaluation.render())
            print()
            print(evaluation.defended_report.render_defense_table())
        print(
            "[defend eval: {} apps x2 phases in {:.1f}s; {}/{} hazards blocked, "
            "{} benign broken]".format(
                args.apps,
                time.perf_counter() - started,
                len(evaluation.blocked_hazards),
                len(evaluation.exposed_hazards),
                len(evaluation.broken_benign),
            ),
            file=sys.stderr,
        )
        return 0

    if args.defend_command == "replay":
        import os

        if not os.path.isdir(args.quarantine_dir):
            raise SystemExit(
                "defend replay: no quarantine directory at {}".format(args.quarantine_dir)
            )
        store = QuarantineStore(args.quarantine_dir)
        digests = [args.digest] if args.digest else store.digests()
        if args.digest and args.digest not in store.digests():
            raise SystemExit(
                "defend replay: no quarantined payload {}".format(args.digest)
            )
        results = [replay_quarantined(store, digest) for digest in digests]
        if args.json:
            _print_json(results)
        else:
            for result in results:
                print("payload {} ({}, rule {})".format(
                    result["digest"][:16], result["kind"], result["rule"]))
                print("  original path:", result["source_path"])
                print("  sandbox load: ", "error: " + result["error"]
                      if result["error"] else "ok")
                print("  events:        dex={} native={}".format(
                    result["dex_events"], result["native_events"]))
                for line in result["logcat"]:
                    print("  logcat:", line)
                for exfil in result["exfiltrated"]:
                    print("  EXFIL: {} ({} bytes)".format(exfil["url"], exfil["n_bytes"]))
        return 0

    if args.defend_command == "debloat":
        from repro.defense.debloat import debloat_corpus

        generator = CorpusGenerator(seed=args.seed)
        blueprints = generator.sample_blueprints(args.apps)
        if args.index is not None:
            if not 0 <= args.index < len(blueprints):
                raise SystemExit(
                    "index out of range (corpus has {} apps)".format(len(blueprints))
                )
            blueprints = [blueprints[args.index]]
        records = [generator.build_record(blueprint) for blueprint in blueprints]
        pairs = debloat_corpus(records)
        manifests = [manifest for _, manifest in pairs]
        if args.json:
            _print_json([manifest.to_dict() for manifest in manifests])
        else:
            for manifest in manifests:
                if not manifest.rewritten:
                    continue
                print("{}: shelved {} site(s), kept {} reachable".format(
                    manifest.package, len(manifest.shelved),
                    manifest.reachable_loader_sites))
                for site in manifest.shelved:
                    print("  - {}.{} [{}] in {}".format(
                        site.class_name, site.method_name,
                        site.mechanism, site.dex_entry))
            print("[debloat: {}/{} apps rewritten, {} site(s) shelved]".format(
                sum(1 for m in manifests if m.rewritten), len(manifests),
                sum(len(m.shelved) for m in manifests)))
        return 0

    # policies
    for name in sorted(POLICIES):
        policy = POLICIES[name]
        mode = "enforce" if policy.enforce else "observe"
        print("{:<10} [{}] {}".format(name, mode, policy.description))
    return 0


def cmd_triage(args: argparse.Namespace) -> int:
    from repro.triage import TriageError, TriageModel

    if args.triage_command == "train":
        from repro.triage.harness import train_triage_model

        started = time.perf_counter()
        try:
            model, summary = train_triage_model(
                args.apps,
                seed=args.seed,
                ratio=args.ratio,
                split_seed=args.split_seed,
                epochs=args.epochs,
                learning_rate=args.learning_rate,
                l2=args.l2,
                train_seed=args.train_seed,
                harvest=args.harvest,
                aux_corpora=args.aux_corpora,
            )
        except (TriageError, ValueError) as exc:
            raise SystemExit("triage train: {}".format(exc))
        model.save(args.out)
        if args.json:
            _print_json(dict(summary, model=args.out))
        else:
            print("model:              ", args.out)
            print("config fingerprint: ", summary["config_fingerprint"][:16])
            print("training sessions:  ", "{} ({} hazard)".format(
                summary["n_samples"], summary["n_hazard"]))
            print("  corpus split:     ", "{} sessions".format(
                summary["train_sessions"] - summary["aux_sessions"]))
            print("  aux corpora:      ", "{} sessions from {} corpora".format(
                summary["aux_sessions"], args.aux_corpora))
            print("  harvested:        ", summary["harvested"])
        print(
            "[triage train: {} sessions ({} hazard) in {:.1f}s -> {}]".format(
                summary["n_samples"], summary["n_hazard"],
                time.perf_counter() - started, args.out,
            ),
            file=sys.stderr,
        )
        return 0

    if args.triage_command == "eval":
        from repro.triage.harness import evaluate_triage

        started = time.perf_counter()
        try:
            model = TriageModel.load(args.model)
            evaluation = evaluate_triage(
                model,
                args.apps,
                seed=args.seed,
                threshold=args.threshold,
                ratio=args.ratio,
                split_seed=args.split_seed,
                config=DyDroidConfig(train_samples_per_family=args.train),
            )
        except (TriageError, ValueError) as exc:
            raise SystemExit("triage eval: {}".format(exc))
        if args.json:
            _print_json(evaluation.to_dict())
        else:
            print(evaluation.render())
        print(
            "[triage eval: {} held-out sessions in {:.1f}s; recall {:.1%}, "
            "short-circuit {:.1%}]".format(
                evaluation.n_sessions, time.perf_counter() - started,
                evaluation.recall, evaluation.short_circuit_rate,
            ),
            file=sys.stderr,
        )
        return 0

    # inspect
    try:
        model = TriageModel.load(args.model)
    except TriageError as exc:
        raise SystemExit("triage inspect: {}".format(exc))
    if args.json:
        _print_json(model.to_dict())
        return 0
    nonzero = sum(1 for w in model.weights if w)
    print("model:              ", args.model)
    print("config fingerprint: ", model.config_fingerprint[:16])
    print("fingerprint version:", model.fingerprint_version)
    print("features:           ", "{} ({} nonzero weights)".format(
        model.n_features, nonzero))
    print("bias:               ", round(model.bias, 4))
    for key in sorted(model.train_config):
        print("  {:<18}{}".format(key + ":", model.train_config[key]))
    heaviest = sorted(
        enumerate(model.weights), key=lambda kv: -abs(kv[1])
    )[:8]
    print("heaviest buckets:   ", ", ".join(
        "#{}={:+.3f}".format(index, weight) for index, weight in heaviest))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import os

    from repro.observe import load_spans, render_summary

    # A missing or empty trace is a normal outcome (tracing disabled, run
    # produced nothing), not an error: say so plainly and exit 0 so
    # pipelines like `repro ... && repro trace summary` do not break.
    if not os.path.exists(args.trace_file):
        print("no spans recorded ({} does not exist)".format(args.trace_file))
        return 0
    try:
        spans = load_spans(args.trace_file)
    except (OSError, ValueError) as exc:
        raise SystemExit("trace summary: {}".format(exc))
    if not spans:
        print("no spans recorded ({} is empty)".format(args.trace_file))
        return 0
    print(render_summary(spans))
    return 0


def _top_snapshot(args: argparse.Namespace):
    import json as json_module

    from repro.observe.prom import PromParseError
    from repro.observe.top import build_daemon_snapshot, build_farm_snapshot

    if args.status:
        try:
            with open(args.status, "r", encoding="utf-8") as handle:
                return build_farm_snapshot(json_module.load(handle))
        except (OSError, ValueError) as exc:
            raise SystemExit("top: {}".format(exc))
    from repro.service import ServiceClientError

    client = _service_client(args)
    try:
        return build_daemon_snapshot(client.stats(), client.metrics_prom())
    except ServiceClientError as exc:
        raise SystemExit("top: {}".format(exc))
    except PromParseError as exc:
        raise SystemExit("top: daemon served invalid Prometheus text: {}".format(exc))


def cmd_top(args: argparse.Namespace) -> int:
    from repro.observe.top import render_top

    if args.once:
        _print_json(_top_snapshot(args))
        return 0
    refreshed = 0
    while True:
        snapshot = _top_snapshot(args)
        # clear + home, like watch(1); harmless when piped to a file.
        sys.stdout.write("\x1b[2J\x1b[H")
        print(render_top(snapshot))
        sys.stdout.flush()
        refreshed += 1
        if args.iterations and refreshed >= args.iterations:
            return 0
        time.sleep(max(0.1, args.interval))


def cmd_metrics(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.observe.prom import to_prometheus

    try:
        with open(args.metrics_file, "r", encoding="utf-8") as handle:
            payload = json_module.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit("metrics export: {}".format(exc))
    if not isinstance(payload, dict):
        raise SystemExit("metrics export: {} is not a JSON object".format(args.metrics_file))
    # farm/evolve --metrics-out wraps the registry in a summary document.
    if isinstance(payload.get("registry"), dict):
        payload = payload["registry"]
    text = to_prometheus(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_families(_: argparse.Namespace) -> int:
    from repro.static_analysis.malware.families import TABLE_VII_FAMILIES, all_families

    for family in all_families():
        marker = "  (Table VII)" if family in TABLE_VII_FAMILIES else ""
        print(family + marker)
    return 0


def cmd_ecosystems(args: argparse.Namespace) -> int:
    from repro.ecosystems import ECOSYSTEMS

    if args.ecosystems_command == "list":
        width = max(len(key) for key in ECOSYSTEMS)
        for key in sorted(ECOSYSTEMS):
            spec = ECOSYSTEMS[key]
            print("{:<{w}}  {}".format(key, spec.title, w=width))
        return 0

    spec = ECOSYSTEMS.get(args.key)
    if spec is None:
        raise SystemExit(
            "ecosystems describe: unknown ecosystem {!r} (known: {})".format(
                args.key, ", ".join(sorted(ECOSYSTEMS))
            )
        )
    print("key:             ", spec.key)
    print("title:           ", spec.title)
    print("profile field:   ", spec.profile_field)
    print("calibrated count:", "{:,} of the paper corpus".format(spec.paper_count))
    print("hazard classes:  ", ", ".join(spec.hazard_classes))
    print("lineage mutation:", spec.lineage_mutation)
    print()
    print(spec.description)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "measure": cmd_measure,
        "farm": cmd_farm,
        "evolve": cmd_evolve,
        "defend": cmd_defend,
        "triage": cmd_triage,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "status": cmd_status,
        "top": cmd_top,
        "metrics": cmd_metrics,
        "store": cmd_store,
        "corpus": cmd_corpus,
        "ecosystems": cmd_ecosystems,
        "analyze": cmd_analyze,
        "families": cmd_families,
        "trace": cmd_trace,
    }
    try:
        return handlers[args.command](args)
    except CorpusTooSmallError as exc:
        # every verb that samples a market from --apps ends here
        verb = " ".join(
            filter(None, (args.command, getattr(args, args.command + "_command", None)))
        )
        raise SystemExit("{}: {}".format(verb, exc))
    except KeyboardInterrupt:
        # ctrl-C on a long farm run / serve session: one line, conventional
        # 128+SIGINT exit status, no traceback wall.
        print("\n{}: interrupted".format(args.command), file=sys.stderr)
        return 130
    except BrokenPipeError:
        # output piped into head/less that exited early -- not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
