"""service-open: the analysis daemon under an open-loop submission schedule.

``repro serve`` runs in a child process; this process is one generator
thread.  Phase A submits at a fixed rate regardless of how fast the daemon
answers (independent users make an open loop), so a stall shows as
latency on the submissions due after it: each submission is timed from
its *due* time to the job's ``finished_ts``, read back after the phase so
polling cannot quantise it.  Phase B sends bursts of fresh submissions;
the rate at which the daemon settles its fastest burst is its capacity
(as for batch rounds, host interference only ever slows a burst down).

Every fresh job is a ``corpus`` reference into a 5,000-app market, so the
daemon re-samples all 5,000 blueprints per job before it builds the one
app -- that is the work a corpus or scheduler change would move here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from typing import Dict, List, Optional, Tuple

from bench import ROOT
from bench.stats import percentile
from bench.spans import Span, layer_metrics
from bench.workloads import (
    TRAIN_SAMPLES,
    Context,
    Outcome,
    canonical,
    pipeline_config,
    timed_setup,
)

SERVE_ARGV = [
    "serve", "--port", "0", "--workers", "2", "--queue-depth", "4096",
    "--train", str(TRAIN_SAMPLES),
]
MARKET_APPS = 5000
#: phase A submissions per second, and the share that repeat an earlier spec.
RATE_PER_S = 12.0
REPEAT_SHARE = 0.4
#: phase B: this many bursts of this many fresh submissions.
BURSTS = 4
BURST_SIZE = 10
#: fresh results re-analysed in process and compared.
CHECKED_RESULTS = 20
#: a generator whose p95 lateness exceeds this flags the run.
LATE_LIMIT_S = 0.005
JOB_TIMEOUT_S = 120.0


def http(port: int, method: str, path: str, body=None) -> Tuple[int, Dict[str, object]]:
    """One JSON round trip on a fresh connection, like the daemon's own client."""
    connection = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}
    finally:
        connection.close()


class Daemon:
    """One ``repro serve`` child: started, probed until healthy, stopped."""

    def __init__(self, argv: List[str], log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.log_path = log_path
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                argv, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        try:
            self.port = self._listening_port(timeout=60.0)
            self._wait_healthy(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _fail(self, why: str) -> RuntimeError:
        with open(self.log_path) as log:
            return RuntimeError("daemon {}: {}".format(why, log.read()[-2000:]))

    def _listening_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            raise self._fail("did not start")
        return int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if http(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise self._fail("never became healthy")

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits), then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def plan_submissions(
    seed: int, n_submits: int, n_bursts: int, burst_size: int, market_apps: int
) -> Tuple[List[int], List[List[int]]]:
    """Phase A corpus indices (fresh or repeated) and the phase B bursts.

    Exactly ``REPEAT_SHARE`` of phase A repeats an earlier fresh spec;
    every other submission, and every burst entry, is a distinct fresh app.
    """
    rng = random.Random("service-{}".format(seed))
    n_repeats = round(REPEAT_SHARE * n_submits)
    repeat_at = set(rng.sample(range(1, n_submits), n_repeats))
    fresh = iter(
        rng.sample(range(market_apps), n_submits - n_repeats + n_bursts * burst_size)
    )
    phase_a: List[int] = []
    sent: List[int] = []
    for position in range(n_submits):
        if position in repeat_at:
            phase_a.append(rng.choice(sent))
        else:
            sent.append(next(fresh))
            phase_a.append(sent[-1])
    bursts = [[next(fresh) for _ in range(burst_size)] for _ in range(n_bursts)]
    return phase_a, bursts


def _submit(port: int, seed: int, market_apps: int, index: int) -> Optional[str]:
    """The job id, or None when the daemon refused or could not be reached."""
    spec = {"kind": "corpus", "seed": seed, "n_apps": market_apps, "index": index}
    try:
        status, body = http(port, "POST", "/v1/submit", spec)
    except OSError:
        return None
    return body.get("job_id") if 200 <= status < 300 else None


def wait_jobs(port: int, job_ids: List[Optional[str]]) -> Dict[str, Dict[str, object]]:
    """Finished job records by id; ids still unfinished at the deadline are absent.

    Jobs are waited for one at a time, oldest first, so polling adds a
    request every 50 ms at most while the daemon is still busy.
    """
    deadline = time.monotonic() + JOB_TIMEOUT_S
    finished: Dict[str, Dict[str, object]] = {}
    for job_id in dict.fromkeys(job_ids):
        while job_id is not None and time.monotonic() < deadline:
            status, job = http(port, "GET", "/v1/jobs/" + job_id)
            if status == 200 and job["state"] in ("done", "failed"):
                finished[job_id] = job
                break
            time.sleep(0.05)
    return finished


def fresh_results_match(
    port: int, seed: int, market_apps: int, digests: Dict[int, str], k: int
) -> bool:
    """``k`` seed-chosen fresh results equal an in-process analysis."""
    from repro.core.pipeline import DyDroid
    from repro.corpus.generator import CorpusGenerator

    rng = random.Random("service-check-{}".format(seed))
    indices = sorted(rng.sample(sorted(digests), min(k, len(digests))))
    fresh = DyDroid(pipeline_config())
    records = CorpusGenerator(seed=seed).records_at(market_apps, indices)
    for index, record in zip(indices, records):
        status, body = http(port, "GET", "/v1/results/" + digests[index])
        expected = json.loads(canonical(fresh.analyze_app(record).to_dict()))
        if status != 200 or canonical(body["analysis"]) != canonical(expected):
            return False
    return True


def service_open(ctx: Context) -> Outcome:
    market_apps = ctx.size(MARKET_APPS, 200)
    n_submits = max(1, int(RATE_PER_S * ctx.seconds))
    phase_a, bursts = plan_submissions(
        ctx.seed, n_submits, BURSTS, ctx.size(BURST_SIZE, 2), market_apps
    )
    spans_path = ctx.path("spans.json")
    if ctx.trace:
        argv = [sys.executable, "-m", "bench.serve_traced", "--spans-out", spans_path]
    else:
        argv = [sys.executable, "-m", "repro"]
    argv += SERVE_ARGV

    launched: List[Daemon] = []

    def launch() -> Daemon:
        launched.append(Daemon(argv, ctx.path("serve.log")))
        return launched[-1]

    try:
        setup_s, _ = timed_setup(ctx, launch)
        for daemon in launched[:-1]:
            daemon.stop()
        port = launched[-1].port

        # Phase A: open loop at RATE_PER_S.
        start = time.time() + 0.05
        due: List[float] = []
        late: List[float] = []
        ids_a: List[Optional[str]] = []
        for position, index in enumerate(phase_a):
            due.append(start + position / RATE_PER_S)
            delay = due[-1] - time.time()
            if delay > 0:
                time.sleep(delay)
            late.append(time.time() - due[-1])
            ids_a.append(_submit(port, ctx.seed, market_apps, index))
        jobs = wait_jobs(port, ids_a)

        # Phase B: bursts of fresh submissions, each settled before the next;
        # capacity is the fastest burst's settle rate.
        ids_b: List[Optional[str]] = []
        capacities: List[float] = []
        for burst in bursts:
            burst_start = time.time()
            ids = [_submit(port, ctx.seed, market_apps, index) for index in burst]
            settled = wait_jobs(port, ids)
            jobs.update(settled)
            ends = [job["finished_ts"] for job in settled.values() if job["state"] == "done"]
            capacities.append(len(ends) / (max(ends) - burst_start) if ends else 0.0)
            ids_b += ids

        done = {job_id: job for job_id, job in jobs.items() if job["state"] == "done"}
        latencies = [
            (done[job_id]["finished_ts"] - when) * 1e3
            for job_id, when in zip(ids_a, due)
            if job_id in done
        ]

        # Refused, failed and timed-out submissions all count as failed.
        failed = sum(1 for job_id in ids_a + ids_b if job_id not in done)
        # Each spec's first submission fixes its content digest.
        first: Dict[int, str] = {}
        repeats_resolve = True
        for job_id, index in zip(ids_a + ids_b, phase_a + sum(bursts, [])):
            if job_id in done:
                digest = done[job_id]["digest"]
                repeats_resolve &= first.setdefault(index, digest) == digest
        checks = {
            "no_failed_submissions": failed == 0,
            "repeats_resolve_to_first_digest": repeats_resolve,
            "fresh_results_match_in_process": fresh_results_match(
                port, ctx.seed, market_apps, first, CHECKED_RESULTS
            ),
        }
        stats = http(port, "GET", "/v1/stats")[1]["counters"]
    finally:
        for daemon in launched:
            daemon.stop()

    layer: Dict[str, float] = {}
    if ctx.trace:
        with open(spans_path) as handle:
            spans = [Span.from_dict(span) for span in json.load(handle)]
        executed = [job for job in done.values() if job["started_ts"] and not job["cached"]]
        busy = sum(job["finished_ts"] - job["started_ts"] for job in executed)
        layer = layer_metrics(spans, busy)
        executed_a = [job for job in executed if job["job_id"] in set(ids_a)]
        waited = sum(job["started_ts"] - job["submitted_ts"] for job in executed_a)
        in_service = sum(job["finished_ts"] - job["submitted_ts"] for job in executed_a)
        layer["service.queue_wait_frac"] = waited / in_service if in_service else 0.0
        layer["service.cache_hit_ratio"] = (
            stats["service.cache.hit"] / stats["service.submit.requests"]
        )
        layer["loadgen.late_frac"] = sum(1 for lag in late if lag > LATE_LIMIT_S) / len(late)
    return Outcome(
        setup_s=setup_s,
        apps_per_s=max(capacities),
        latencies_ms=latencies,
        attempted=len(ids_a) + len(ids_b),
        failed=failed,
        digest=hashlib.sha256("\n".join(sorted(set(first.values()))).encode("utf-8")).hexdigest(),
        checks=checks,
        layer=layer,
        samples={"burst_apps_per_s": capacities, "latency_ms": latencies},
        # Latency runs from due times, so a late generator is already
        # charged to the system; lateness is flagged, not fatal.
        flags={"generator_late": percentile(late, 95) > LATE_LIMIT_S},
    )
