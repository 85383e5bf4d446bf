"""The four batch workloads (``service-open`` lives in :mod:`bench.service`).

Every workload is a function ``(Context) -> Outcome``.  It sets up (three
times when untraced, so set-up time is a median), then runs *rounds*: one
fixed-size batch call on one of ``INPUTS`` seeded inputs.  Rounds cycle
through the inputs for about ``ctx.seconds`` of round time, so every input
is timed equally often.

Two kinds of noise shape this.  On a shared 2-core host, other tenants
slow every round by 10-40% for seconds to minutes at a time; that only
ever adds time, so each input is timed by its *fastest* round (the median
moved with the host, not the program).  And one seed's corpus costs more
than another's, so throughput is taken over all inputs together::

    apps_per_s = apps per input * INPUTS / sum(fastest round time per input)

A batch API returns every result when the batch ends, so an app's latency
is its batch's time: ``latency_p50_ms``/``latency_p90_ms`` are taken over
every app, each carrying its input's fastest round time.  Every round time
is kept in the run's ``samples``, so a change that slows only some rounds
can still be seen there.

Each round's output is digested outside the timed region, and every round
of one input must agree -- the program is deterministic for a seed, so a
differing round is a correctness failure, not noise.  The run's output
digest is the sha256 of the per-input digests.

With ``ctx.trace`` a workload first runs each input once untraced at its
normal worker count (the digests the traced rounds must reproduce, and the
farm's worker utilisation), then runs its cycles at ``workers=1`` so every
layer call lands in this process, inside :func:`bench.spans.tracing`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from bench.spans import SpanRecorder, analyzer_calls_by_version, layer_metrics, tracing

#: ``farm run``/``serve`` CLI defaults: 3 DroidNative samples per family,
#: Table VIII replays on.
TRAIN_SAMPLES = 3
#: seeded inputs (corpora, lineage fleets) per batch run.
INPUTS = 4
#: apps re-analysed in process to check merged farm reports, spread over
#: the inputs (rounded up to a whole number per input).
SAMPLE_APPS = 25


def pipeline_config():
    from repro.core.config import DyDroidConfig

    return DyDroidConfig(train_samples_per_family=TRAIN_SAMPLES)


def input_seeds(seed: int) -> List[int]:
    """The corpus seeds of one run; distinct runs' seeds never overlap."""
    return [seed * INPUTS + k for k in range(INPUTS)]


@dataclass
class Context:
    """One run's inputs: the seed, the time budget, and a scratch directory."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path
    #: multiplies every input size (the self-test runs at 0.05).
    scale: float = 1.0
    _made: int = 0

    def size(self, full: int, smallest: int) -> int:
        return max(smallest, int(round(full * self.scale)))

    def path(self, stem: str) -> str:
        """A fresh file path in the scratch directory."""
        self._made += 1
        return str(self.workdir / "{:03d}-{}".format(self._made, stem))

    @property
    def setup_reps(self) -> int:
        return 1 if self.trace else 3


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: float
    apps_per_s: float
    latencies_ms: List[float]
    attempted: int
    failed: int
    digest: str
    checks: Dict[str, bool]
    #: span-derived and other ``per_layer`` metrics (traced runs only).
    layer: Dict[str, float] = field(default_factory=dict)
    #: the raw timings behind the metrics (round times by input, burst rates).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: conditions worth a reader's attention that do not invalidate the run.
    flags: Dict[str, bool] = field(default_factory=dict)


class Checks(dict):
    """name -> passed; a check made every round passes only if it always did."""

    def every(self, name: str, passed: bool) -> None:
        self[name] = self.get(name, True) and bool(passed)


@dataclass
class Rounds:
    """Round times and output digests of one batch run, by input seed."""

    walls: Dict[int, List[float]] = field(default_factory=lambda: defaultdict(list))
    digests: Dict[int, Set[str]] = field(default_factory=lambda: defaultdict(set))

    def add(self, seed: int, wall: float, digest: str) -> None:
        self.walls[seed].append(wall)
        self.digests[seed].add(digest)

    @property
    def count(self) -> int:
        return sum(len(walls) for walls in self.walls.values())

    @property
    def cycles(self) -> int:
        return min(len(walls) for walls in self.walls.values())

    def times(self) -> List[float]:
        """Fastest round time per input."""
        return [min(self.walls[seed]) for seed in sorted(self.walls)]

    def output_digest(self) -> str:
        joined = "\n".join(min(self.digests[seed]) for seed in sorted(self.digests))
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


# -- shared helpers --------------------------------------------------------------


def timed_setup(
    ctx: Context, fn: Callable[[], object], reps: Optional[int] = None
) -> Tuple[float, list]:
    """Run ``fn`` ``reps`` times (default ``ctx.setup_reps``): (median
    seconds, every result)."""
    times, results = [], []
    for _ in range(reps or ctx.setup_reps):
        started = time.perf_counter()
        results.append(fn())
        times.append(time.perf_counter() - started)
    return statistics.median(times), results


def timed_call(
    fn: Callable[[], object], recorder: Optional[SpanRecorder] = None
) -> Tuple[float, object]:
    """``(wall_s, fn())``, traced into ``recorder`` when one is given."""
    started = time.perf_counter()
    if recorder is None:
        result = fn()
    else:
        with tracing(recorder):
            result = fn()
    return time.perf_counter() - started, result


def run_cycles(
    ctx: Context,
    seeds: Sequence[int],
    fn: Callable[[int], object],
    passes: Sequence[Optional[SpanRecorder]] = (None,),
) -> Iterator[Tuple[int, float, object, Optional[SpanRecorder]]]:
    """Yield ``(seed, wall_s, result, recorder)`` per round.

    A cycle runs every input once per entry of ``passes`` (``None`` is an
    untraced round).  Cycles repeat while the next one would end closer to
    ``ctx.seconds`` of round time than stopping now would.
    """
    timed = 0.0
    cycles = 0
    while not cycles or timed + timed / cycles / 2 < ctx.seconds:
        for seed in seeds:
            for recorder in passes:
                wall, result = timed_call(lambda: fn(seed), recorder)
                timed += wall
                yield seed, wall, result, recorder
        cycles += 1


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def report_digest(report) -> str:
    """sha256 of the canonical report JSON, every app included."""
    return hashlib.sha256(report.to_json(include_apps=True).encode("utf-8")).hexdigest()


def batch_outcome(
    n: int, rounds: Rounds, setup_s: float, failed: int,
    checks: Checks, layer: Dict[str, float],
) -> Outcome:
    """``n`` apps per round; see the module docstring for the metrics."""
    checks["rounds_identical"] = all(len(found) == 1 for found in rounds.digests.values())
    times = rounds.times()
    return Outcome(
        setup_s=setup_s,
        apps_per_s=n * len(times) / sum(times),
        latencies_ms=[t * 1e3 for t in times for _ in range(n)],
        attempted=n * rounds.count,
        failed=failed,
        digest=rounds.output_digest(),
        checks=checks,
        layer=layer,
        samples={str(seed): walls for seed, walls in sorted(rounds.walls.items())},
    )


def worker_busy_frac(metrics: Dict[str, object]) -> float:
    """Worker build+analyze time over workers x wall, from a run's own metrics."""
    histograms = metrics["registry"]["histograms"]
    busy = sum(
        histograms[name]["total_s"]
        for name in ("stage.build", "stage.analyze")
        if name in histograms
    )
    return busy / (metrics["workers"] * metrics["wall_s"])


def traced_layers(
    recorder: SpanRecorder, traced: Rounds, references: Sequence[Dict[str, object]] = ()
) -> Dict[str, float]:
    """Span metrics per cycle, plus worker utilisation of untraced references."""
    layer = layer_metrics(recorder.spans, sum(map(sum, traced.walls.values())), traced.cycles)
    if references:
        layer["farm.worker_busy_frac"] = statistics.median(map(worker_busy_frac, references))
    return layer


# -- market-cold / market-warm -------------------------------------------------------


def sample_indices(seed: int, n_apps: int, k: int) -> List[int]:
    return sorted(random.Random("sample-{}".format(seed)).sample(range(n_apps), min(k, n_apps)))


def sample_mismatches(report, seed: int, n_apps: int, k: int) -> List[int]:
    """Seed-chosen indices whose merged entry differs from a fresh analysis.

    Each sampled app is rebuilt from the seed and analysed by a new,
    store-less ``DyDroid``; its ``to_dict()`` must equal the report's.
    """
    from repro.core.pipeline import DyDroid
    from repro.corpus.generator import CorpusGenerator

    indices = sample_indices(seed, n_apps, k)
    merged = {app.corpus_index: app for app in report.apps}
    fresh = DyDroid(pipeline_config())
    records = CorpusGenerator(seed=seed).records_at(n_apps, indices)
    return [
        index
        for index, record in zip(indices, records)
        if index not in merged
        or canonical(merged[index].to_dict()) != canonical(fresh.analyze_app(record).to_dict())
    ]


def _analyzer_invocations(metrics: Dict[str, object]) -> int:
    counters = metrics["registry"]["counters"]
    return counters.get("analyzer.droidnative.invocations", 0) + counters.get(
        "analyzer.flowdroid.invocations", 0
    )


def _store_hit_ratio(metrics: Dict[str, object]) -> float:
    tiers = metrics["verdict_store"].values()
    probes = sum(tier["probes"] for tier in tiers)
    return sum(tier["hits"] for tier in tiers) / probes if probes else 0.0


def market(ctx: Context, warm: bool) -> Outcome:
    """``run_farm`` over paper-profile markets; cold or warm verdict store."""
    from repro.farm import FarmConfig, run_farm

    config = pipeline_config()
    n = ctx.size(250, 24)
    seeds = input_seeds(ctx.seed)

    def farm(seed: int, store: str, workers: int = 2):
        return run_farm(
            FarmConfig(
                n_apps=n, corpus_seed=seed, workers=workers,
                pipeline=config, verdict_store=store,
            )
        )

    checks = Checks()
    setup_s = 0.0
    if warm:
        # One store warmed with every input's corpus, as a previous
        # identical run would have left it.  The pass costs as much as a
        # market-cold run, so it is timed once, keeping the run under 30 s.
        def warming_pass():
            store = ctx.path("verdicts.jsonl")
            return store, {seed: farm(seed, store) for seed in seeds}

        setup_s, [(warm_store, warmed)] = timed_setup(ctx, warming_pass, reps=1)
        warm_digests = {seed: report_digest(result.report) for seed, result in warmed.items()}

        def store_for_round() -> str:
            return warm_store
    else:
        def store_for_round() -> str:
            return ctx.path("verdicts.jsonl")

    references = {seed: farm(seed, store_for_round()) for seed in seeds} if ctx.trace else {}
    recorder = SpanRecorder() if ctx.trace else None
    workers = 1 if ctx.trace else 2

    rounds = Rounds()
    quarantined = 0
    last = {}
    for seed, wall, result, _ in run_cycles(
        ctx, seeds, lambda seed: farm(seed, store_for_round(), workers), (recorder,)
    ):
        rounds.add(seed, wall, report_digest(result.report))
        quarantined += len(result.quarantined)
        checks.every("all_apps_settled", result.report.n_total == n and not result.quarantined)
        if warm:
            checks.every("analyzers_idle", _analyzer_invocations(result.metrics) == 0)
            checks.every("store_hit_ratio_is_1", _store_hit_ratio(result.metrics) == 1.0)
        last[seed] = result
    if warm:
        checks["matches_warming_pass"] = all(
            rounds.digests[seed] == {warm_digests[seed]} for seed in seeds
        )
    else:
        per_input = math.ceil(SAMPLE_APPS / len(seeds))
        checks["sample_reanalysis_matches"] = not any(
            sample_mismatches(last[seed].report, seed, n, per_input) for seed in seeds
        )

    layer: Dict[str, float] = {}
    if ctx.trace:
        checks["traced_digest_matches"] = all(
            rounds.digests[seed] == {report_digest(references[seed].report)} for seed in seeds
        )
        layer = traced_layers(
            recorder, rounds, [reference.metrics for reference in references.values()]
        )
    return batch_outcome(n, rounds, setup_s, quarantined, checks, layer)


def market_cold(ctx: Context) -> Outcome:
    return market(ctx, warm=False)


def market_warm(ctx: Context) -> Outcome:
    return market(ctx, warm=True)


# -- ecosystem-mix -----------------------------------------------------------------


def ecosystem_mix(ctx: Context) -> Outcome:
    """In-process ``DyDroid.measure`` over corpora generated during set-up."""
    from repro.core.pipeline import DyDroid
    from repro.corpus.generator import generate_corpus
    from repro.ecosystems import ecosystems_profile
    from repro.ecosystems.hazards import ALL_HAZARD_CLASSES

    config = pipeline_config()
    n = ctx.size(150, 50)
    seeds = input_seeds(ctx.seed)
    profile = ecosystems_profile(staged_depth=3)
    setup_s, builds = timed_setup(
        ctx, lambda: {seed: generate_corpus(n, seed=seed, profile=profile) for seed in seeds}
    )
    corpora = builds[-1]
    checks = Checks()
    checks["setup_deterministic"] = (
        len({
            tuple(record.apk.sha256() for seed in seeds for record in built[seed])
            for built in builds
        }) == 1
    )

    # A traced run alternates untraced and traced rounds, so both see the
    # same machine state; their time ratio is the tracing overhead.
    recorder = SpanRecorder() if ctx.trace else None
    rounds, traced = Rounds(), Rounds()
    hazard_classes: Set[str] = set()
    for seed, wall, report, rec in run_cycles(
        ctx, seeds, lambda seed: DyDroid(config).measure(corpora[seed]),
        (None, recorder) if ctx.trace else (None,),
    ):
        (rounds if rec is None else traced).add(seed, wall, report_digest(report))
        hazard_classes.update(report.ecosystems_table()["classes"])
        checks.every("table11_renders", report.render_ecosystems_table().startswith("TABLE 11"))
    checks["all_hazard_classes_seen"] = hazard_classes >= set(ALL_HAZARD_CLASSES)

    layer: Dict[str, float] = {}
    if ctx.trace:
        checks["traced_digest_matches"] = traced.digests == rounds.digests
        layer = traced_layers(recorder, traced)
        layer["trace.overhead_frac"] = sum(traced.times()) / sum(rounds.times()) - 1.0
    return batch_outcome(n, rounds, setup_s, 0, checks, layer)


# -- evolve-lineage -----------------------------------------------------------------


def new_payloads_by_version(reports) -> List[int]:
    """Payload digests each version introduced (what reaches the analyzers
    once the shared store has every earlier version's verdicts)."""
    seen, counts = set(), []
    for report in reports:
        digests = {payload.digest for app in report.apps for payload in app.payloads}
        counts.append(len(digests - seen))
        seen |= digests
    return counts


def evolve_lineage(ctx: Context) -> Outcome:
    """``run_evolution`` over seeded lineage fleets, fresh store and warehouse."""
    from repro.evolution import EvolveConfig, LineageSpec, run_evolution
    from repro.evolution.warehouse import SnapshotWarehouse

    config = pipeline_config()
    lineages, versions = ctx.size(20, 12), 4
    snapshots = lineages * versions
    seeds = input_seeds(ctx.seed)

    def evolve(seed: int, workers: int = 2):
        warehouse = ctx.path("warehouse.jsonl")
        result = run_evolution(
            EvolveConfig(
                n_apps=lineages, n_versions=versions, seed=seed, workers=workers,
                spec=LineageSpec(malicious_hazard=0.05), pipeline=config,
                warehouse=warehouse, verdict_store=ctx.path("verdicts.jsonl"),
            )
        )
        return warehouse, result

    checks = Checks()
    references = {seed: evolve(seed)[1] for seed in seeds} if ctx.trace else {}
    recorder = SpanRecorder() if ctx.trace else None
    rounds = Rounds()
    missing = 0
    for seed, wall, (warehouse, result), _ in run_cycles(
        ctx, seeds, lambda seed: evolve(seed, 1 if ctx.trace else 2), (recorder,)
    ):
        rounds.add(seed, wall, result.diff_fingerprint)
        missing += snapshots - result.metrics["snapshots_analyzed"]
        reopened = SnapshotWarehouse(warehouse)
        try:
            counts = reopened.counts()
        finally:
            reopened.close()
        checks.every(
            "warehouse_counts_agree",
            len(counts) == lineages and set(counts.values()) == {versions},
        )
        fresh = new_payloads_by_version(result.reports)
        checks.every("later_versions_cheaper", fresh[0] > 0 and max(fresh[1:]) < fresh[0])
    checks["all_snapshots_analyzed"] = missing == 0

    layer: Dict[str, float] = {}
    if ctx.trace:
        checks["traced_digest_matches"] = all(
            rounds.digests[seed] == {references[seed].diff_fingerprint} for seed in seeds
        )
        by_version = analyzer_calls_by_version(recorder.spans)
        first = by_version.get(1, 0)
        later = [by_version.get(v, 0) for v in range(2, versions + 1)]
        checks["later_versions_invoke_fewer_analyzers"] = max(later) < first
        layer = traced_layers(
            recorder, rounds, [reference.metrics for reference in references.values()]
        )
        layer["evolution.later_version_analyzer_frac"] = (
            sum(later) / (len(later) * first) if first else 0.0
        )
    return batch_outcome(snapshots, rounds, 0.0, missing, checks, layer)
