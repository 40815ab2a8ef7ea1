"""Workload ``gateway``: HTTP and WebSocket clients of the serving gateway.

The engine is ``GatewayServer`` over the ``shards=1`` middleware of
``examples/serve_dews.py``, in its own process (``gateway_server.py``); the
load generator is one other process for the whole run (``loadgen.py``) with
two connections: one WebSocket subscribed to ``canonical/#`` and one
HTTP/1.1 keep-alive connection.  Requests come in a 1:2:1 mix of ingest
(25-record batches), queries (half repeated from the dashboard suite, half
fresh per-district panels with a new threshold) and health checks.  It is
the only workload that crosses the serving layer, the version-keyed
response cache and the broker→WebSocket bridge.

Two parts, each request list played on a freshly booted server:

- *Closed loop* (the bounded figures): one fixed list of requests, each
  sent when the previous response has arrived, replayed until its share of
  the time is up.  A slow spell of the shared host slows the requests it
  hits and no others, so per-request medians over the replays hold still.
- *Open loop* (the catalogue's ``#`` lines): three phases at fixed rates
  bracketing the knee, every request sent when due whatever the backlog
  and timed from when it was due.  A slow spell turns into a queue that
  outlasts it, so these figures are reported, not bounded.

Deliberately not a workload yet: the same gateway over ``shards=2,
shard_backend="process"`` deadlocks under concurrent ingest and query (see
``README.md``).
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from harness import (
    WORK_DIR,
    Outcome,
    layer_metrics,
    median,
    merge_summaries,
    quantile,
    ratio,
    scale_of,
    typical,
)
from inputs import UNRESOLVABLE_TERMS, district_names, district_polls
from queries import GLOBAL_QUERIES, area_query
from wl_dashboard import RANGES

HERE = Path(__file__).resolve().parent
#: Requests of the closed-loop list (~2 s on a 2-core host).
CLOSED_REQUESTS = 400
#: Share of the run's time given to closed-loop replays; the open-loop
#: phases share the rest.
CLOSED_SHARE = 0.8
#: Requests per second of the open-loop phases: well below, below and
#: above the knee of this mix (capacity ~130-150 req/s on a 2-core host).
RATES = (25.0, 50.0, 200.0)
MID = 1
LATENCY_LIMIT_S = 0.100
RECORDS_PER_INGEST = 25
REPEATED_QUERIES = GLOBAL_QUERIES[:4]
#: Requests per list replayed on a direct (no HTTP) twin and compared.
TWIN_PREFIX = 60
#: Generator lateness beyond which the run is invalid (open loop broken).
LATENESS_LIMIT_S = 0.050
#: Seconds to wait for outstanding responses after the last send: below
#: the knee every response arrives; above it the backlog is abandoned.
DRAIN_S = 5.0
OVERLOAD_DRAIN_S = 0.2
WS_SETTLE_S = 0.3
#: The server and the generator are pinned to CPUs of their own (one each
#: on a 2-core host): the host's CPUs switch speed independently, so the
#: generator samples the host speed on the server's CPU, where the
#: measured work runs.  The server's threads take turns on the GIL and
#: lose little by sharing one CPU.
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, GENERATOR_CPU = CPUS[0], CPUS[-1]
#: In a closed loop the host speed is sampled before every second request
#: that does not follow an ingest (whose WebSocket events may still be on
#: their way).
SAMPLE_EVERY = 2


def schedule(seed: int, stream: int, count: int, rate: float = 0.0):
    """A list of requests: ``(due_s, kind, (method, path, body), detail)``;
    the due times are ``index / rate`` (all 0 for a closed loop)."""
    rng = random.Random(seed * 1009 + stream)
    # the order of the requests and the queries they ask are the same for
    # every seed (every block of four holds one request of each kind), so
    # the work a list asks for is too; the seed sets the records and the
    # fresh queries' thresholds
    shape = random.Random(stream)
    ingests = (count + 3) // 4
    polls = district_polls(
        seed * 1009 + stream, 8, (ingests + 7) // 8, RECORDS_PER_INGEST, 9.0, RANGES
    )
    kinds = []
    while len(kinds) < count:
        block = ["ingest", "repeated", "fresh", "health"]
        shape.shuffle(block)
        kinds.extend(block)
    requests = []
    poll = iter(polls)
    for index, kind in enumerate(kinds[:count]):
        due = index / rate if rate else 0.0
        if kind == "ingest":
            _district, records = next(poll)
            body = json.dumps({"records": [record.to_dict() for record in records]})
            requests.append((due, kind, ("POST", "/v1/ingest", body), records))
        elif kind == "health":
            requests.append((due, kind, ("GET", "/v1/health", ""), None))
        else:
            if kind == "repeated":
                text = shape.choice(REPEATED_QUERIES)
            else:
                district = shape.choice(district_names(8))
                text = area_query(district, round(rng.uniform(50.0, 60.0), 4))
            body = json.dumps({"query": text})
            requests.append((due, "query", ("POST", "/v1/query", body), text))
    return requests


def _start_server(dump):
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "gateway_server.py")] + ([str(dump)] if dump else []),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    os.sched_setaffinity(process.pid, {SERVER_CPU})
    line = process.stdout.readline()
    if not line:
        process.wait(timeout=30)
        raise RuntimeError(f"gateway server exited with {process.returncode} before serving")
    return process, json.loads(line), time.perf_counter() - started


def _stop_server(process) -> dict:
    try:
        process.stdin.write("stop\n")
        process.stdin.flush()
        line = process.stdout.readline()
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0 or not line:
        raise RuntimeError(f"gateway server exited with {process.returncode}")
    return json.loads(line)


class Generator:
    """The load generator process (``loadgen.py``), one per run: it holds
    its connections only while it plays a job, and idles between jobs."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "loadgen.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self.process.pid, {GENERATOR_CPU})

    def play(self, job_path: Path, result_path: Path, timeout: float) -> None:
        self.process.stdin.write(f"{job_path} {result_path}\n")
        self.process.stdin.flush()
        if not select.select([self.process.stdout], [], [], timeout)[0]:
            raise RuntimeError(f"load generator did not finish {job_path} in {timeout:.0f} s")
        if self.process.stdout.readline().strip() != "done":
            raise RuntimeError(f"load generator failed on {job_path}")

    def close(self) -> None:
        try:
            self.process.stdin.close()
            self.process.wait(timeout=30)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        if self.process.returncode != 0:
            raise RuntimeError(f"load generator exited with {self.process.returncode}")


def play(generator: Generator, requests, label: str, trace: bool, rate: float = 0.0) -> dict:
    """Play one request list on a freshly booted server: closed-loop when
    ``rate`` is 0, else open-loop at ``rate``."""
    work = WORK_DIR / "tmp" / "gateway"
    work.mkdir(parents=True, exist_ok=True)
    label += "-traced" if trace else ""
    job_path, result_path = work / f"job-{label}.json", work / f"result-{label}.json"
    dump = WORK_DIR / "traces" / f"gateway-{label}.jsonl" if trace else None
    duration = len(requests) / rate if rate else 0.0
    process, hello, setup = _start_server(dump)
    try:
        keep = [i for i, r in enumerate(requests) if i < TWIN_PREFIX or r[1] != "query"]
        with open(job_path, "w") as handle:
            json.dump({
                "port": hello["port"],
                "requests": [[due, list(request)] for due, _kind, request, _ in requests],
                "keep_bodies": keep,
                "closed": not rate,
                "server_pid": hello["pid"],
                "server_cpu": SERVER_CPU,
                "sample_before": [] if rate else [
                    i for i in range(1, len(requests))
                    if i % SAMPLE_EVERY == 0 and requests[i - 1][1] != "ingest"
                ],
                "drain_s": OVERLOAD_DRAIN_S if rate > RATES[MID] else DRAIN_S,
                "ws_settle_s": WS_SETTLE_S,
            }, handle)
        generator.play(job_path, result_path, timeout=duration + DRAIN_S + 120)
    finally:
        server = _stop_server(process)
    with open(result_path) as handle:
        result = json.load(handle)
    result.update(requests=requests, rate=rate, duration=duration, setup=setup, server=server,
                  label=label)
    return result


def closed_loop(generator: Generator, seed: int, seconds: float, trace: bool):
    """Replays of the closed-loop list until ``seconds`` are up (at least
    two); each is scaled by the host speed the generator sampled in it."""
    requests = schedule(seed, len(RATES), CLOSED_REQUESTS)
    replays = []
    deadline = time.perf_counter() + seconds
    while len(replays) < 2 or time.perf_counter() < deadline:
        replay = play(generator, requests, f"seed{seed}-closed-{len(replays)}", trace)
        replay["scale"] = scale_of(replay["speed_samples"])
        replays.append(replay)
    return replays


def open_loop(generator: Generator, seed: int, seconds: float, trace: bool):
    """One phase per rate, each ``seconds / len(RATES)`` long."""
    duration = seconds / len(RATES)
    return [
        play(generator, schedule(seed, phase, max(4, int(rate * duration)), rate),
             f"seed{seed}-open-{rate:g}", trace, rate)
        for phase, rate in enumerate(RATES)
    ]


def _starts(phase: dict):
    """When each request started: when it was sent in a closed loop, when
    it was due in an open one."""
    if phase["rate"]:
        return [due for due, *_ in phase["requests"]]
    return phase["sent"]


def _latencies(phase: dict):
    """Seconds from each answered request's start (``_starts``) to its
    response."""
    return [
        done - start
        for start, done in zip(_starts(phase), phase["done"])
        if done is not None
    ]


def _ws_latencies(phase: dict):
    """``{(source_id, timestamp): seconds from its ingest's start to its
    arrival}`` per canonical event received on the WebSocket."""
    start_of = {}
    for start, (_due, kind, _request, records) in zip(_starts(phase), phase["requests"]):
        if kind == "ingest":
            for record in records:
                start_of.setdefault((record.source_id, record.timestamp), start)
    return {
        (source, timestamp): arrived - start_of[(source, timestamp)]
        for arrived, source, timestamp in phase["ws"]
        if (source, timestamp) in start_of
    }


def _typical_ws(replays):
    """Per-event median delivery time over the (scaled) replays of a list."""
    delays = [_ws_latencies(phase) for phase in replays]
    keys = sorted(set.intersection(*(set(delay) for delay in delays)))
    return typical([[delay[key] * phase["scale"] for key in keys]
                    for delay, phase in zip(delays, replays)])


def _capacity(phase: dict) -> float:
    """Responses completed per second inside the phase's schedule window,
    between the first and the last completion in it."""
    completed = sorted(
        done for done in phase["done"] if done is not None and done <= phase["duration"]
    )
    return (len(completed) - 1) / (completed[-1] - completed[0])


def _sustained(phase: dict) -> bool:
    latencies = _latencies(phase)
    backlog_limit = phase["rate"] * LATENCY_LIMIT_S
    return (
        len(latencies) == len(phase["requests"])
        and quantile(latencies, 0.99) <= LATENCY_LIMIT_S
        and phase["outstanding_at_last_send"] <= backlog_limit
    )


def check(outcome: Outcome, phase: dict, twin_prefix: bool) -> None:
    """Check one played list; with ``twin_prefix``, its first
    ``TWIN_PREFIX`` requests are also replayed on a direct twin (the
    replays of the closed-loop list send identical requests, so its first
    replay stands for all)."""
    from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
    from repro.serving.serialize import query_result_to_json

    name = phase["label"]
    below_knee = phase["rate"] <= RATES[MID]
    outcome.check(phase["lateness_max_s"] <= LATENESS_LIMIT_S,
                  f"{name}: generator ran {1000 * phase['lateness_max_s']:.1f} ms late "
                  f"(limit {1000 * LATENESS_LIMIT_S:.0f} ms): run invalid")
    twin = SemanticMiddleware(
        config=MiddlewareConfig(annotate_observations=True, broker_latency=0.0)
    )
    expected_ws = Counter()
    for index, ((_due, kind, _request, detail), result) in enumerate(
        zip(phase["requests"], phase["results"])
    ):
        if result is None:
            outcome.check(not below_knee, f"{name}: request {index} never answered")
            continue
        status, _cache, body = result
        if status != 200:
            outcome.failed += 1
            outcome.check(False, f"{name}: request {index} ({kind}) answered {status}")
            continue
        if kind == "ingest":
            accepted = [r for r in detail if r.property_name not in UNRESOLVABLE_TERMS]
            outcome.check(body["accepted"] == len(accepted),
                          f"{name}: ingest {index} accepted {body['accepted']} of {len(accepted)}")
            expected_ws.update((r.source_id, r.timestamp) for r in accepted)
        elif kind == "health":
            outcome.check(body["healthy"] is True, f"{name}: health {index} not healthy")
        if index >= TWIN_PREFIX or not twin_prefix:
            continue
        if kind == "ingest":
            receipt = twin.ingest_batch(detail)
            outcome.check(receipt.accepted == body["accepted"],
                          f"{name}: twin accepted differs at request {index}")
        elif kind == "query":
            served = Counter(json.dumps(row, sort_keys=True) for row in body["rows"])
            direct = Counter(
                json.dumps(row, sort_keys=True)
                for row in query_result_to_json(twin.query(detail))["rows"]
            )
            outcome.check(served == direct, f"{name}: query {index} rows differ from the twin")
    twin.close()
    if below_knee:
        received = Counter(
            (source, timestamp) for _arrived, source, timestamp in phase["ws"]
            if isinstance(source, str) and source not in ("lag",)
        )
        outcome.check(received == expected_ws,
                      f"{name}: WebSocket events differ from the accepted records "
                      f"({sum(received.values())} received, {sum(expected_ws.values())} accepted)")


def _layers(closed, opened, reference) -> dict:
    phases = closed + opened
    servers = [phase["server"] for phase in phases]
    counters = merge_summaries(server["counters"] for server in servers)
    counters["graph.triples"] = max(server["counters"]["graph.triples"] for server in servers)
    layers = layer_metrics(counters, merge_summaries(server["spans"] for server in servers))
    hits = misses = 0
    for phase in phases:
        before, after = phase["metrics_before"]["cache"], phase["metrics_after"]["cache"]
        hits += after["hits"] - before["hits"]
        misses += after["misses"] - before["misses"]
    layers["gateway.requests"] = sum(len(phase["requests"]) for phase in phases)
    layers["gateway.cache_lookups"] = hits + misses
    layers["gateway.cache_hit_ratio"] = ratio(hits, hits + misses)
    layers["gateway.loop_max_lag_ms"] = max(
        phase["metrics_after"]["event_loop"]["max_lag_ms"] for phase in phases
    )
    layers["bridge.ws_dropped"] = sum(
        bridge["dropped"]
        for phase in phases
        for bridge in phase["metrics_after"]["subscriptions"]["bridges"]
    )
    layers["loadgen.lateness_max_ms"] = 1000 * max(p["lateness_max_s"] for p in opened)
    # engine wait: closed-loop client latency minus engine time, per request
    # that reached the engine (cache hits do not), matched in call order
    waits = []
    for phase in closed:
        engine = iter(phase["server"]["engine_calls"])
        for sent, done, result in zip(phase["sent"], phase["done"], phase["results"]):
            if result[1] == "hit":
                continue
            _call, seconds = next(engine)
            waits.append(done - sent - seconds)
    layers["gateway.engine_wait_p90_ms"] = 1000 * quantile(waits, 0.9)
    layers["trace.overhead_ratio"] = (
        median([t * phase["scale"] for phase in closed for t in _latencies(phase)])
        / median([t * phase["scale"] for phase in reference for t in _latencies(phase)])
    )
    return layers


def _measure(generator: Generator, seed: int, seconds: float, trace: bool):
    closed = closed_loop(generator, seed, CLOSED_SHARE * seconds, trace)
    opened = open_loop(generator, seed, (1 - CLOSED_SHARE) * seconds, trace)
    return closed, opened


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    generator = Generator()
    try:
        budget = seconds / 2 if trace else seconds
        closed, opened = _measure(generator, seed, budget, False)
        if trace:
            traced_closed, traced_opened = _measure(generator, seed, budget, True)
    finally:
        generator.close()
    checked = [(closed, opened)]
    if trace:
        outcome.layers = _layers(traced_closed, traced_opened, closed)
        checked.append((traced_closed, traced_opened))
    for replays, phases in checked:
        for index, replay in enumerate(replays):
            check(outcome, replay, twin_prefix=index == 0)
        for phase in phases:
            check(outcome, phase, twin_prefix=True)
    outcome.attempted = sum(len(p["requests"]) for pair in checked for part in pair for p in part)

    calls = typical([[t * r["scale"] for t in _latencies(r)] for r in closed])
    deliveries = _typical_ws(closed)
    outcome.e2e = {
        "setup_s": median([replay["setup"] * replay["scale"] for replay in closed]),
        "peak_rss_mb": max(replay["server"]["rss_mb"] for replay in closed),
        "throughput_per_s": CLOSED_REQUESTS / sum(calls),
        "latency_p50_ms": 1000 * median(calls),
        "latency_p90_ms": 1000 * quantile(calls, 0.9),
        "delivery_p50_ms": 1000 * median(deliveries),
    }
    scales = [replay["scale"] for replay in closed]
    by_rate = {phase["rate"]: phase for phase in opened}
    mid = by_rate[RATES[MID]]
    sustained = [rate for rate, phase in by_rate.items() if _sustained(phase)]
    outcome.name("setup_s", outcome.e2e["setup_s"], "s",
                 "server process boot to first accept, median over the closed-loop replays")
    outcome.name("peak_rss_mb", outcome.e2e["peak_rss_mb"], "MB",
                 "server process, max over the closed-loop replays")
    outcome.name_error_rate()
    outcome.timing("http", _latencies(mid), (0.5, 0.99),
                   f"open loop at {RATES[MID]:g} req/s, from when each request was due")
    outcome.name("max_rate_rps", max(sustained) if sustained else 0.0, "1/s",
                  f"highest of {', '.join(f'{r:g}' for r in RATES)} req/s with p99 <= "
                  f"{1000 * LATENCY_LIMIT_S:.0f} ms and no growing backlog")
    outcome.timing("ws_delivery", list(_ws_latencies(mid).values()), (0.99,),
                   f"open loop at {RATES[MID]:g} req/s, ingest due -> its canonical event "
                   "on the WebSocket")
    outcome.report = [
        f"mix ingest:query:health = 1:2:1, {RECORDS_PER_INGEST} records per ingest",
        f"closed loop: {len(closed)} replays of {CLOSED_REQUESTS} requests; raw p50="
        f"{1000 * median([t for r in closed for t in _latencies(r)]):.2f} ms; requests/s "
        f"(scaled)={outcome.e2e['throughput_per_s']:.1f}",
        *[
            f"open loop {rate:g} req/s for {phase['duration']:.1f} s: http p50="
            f"{1000 * median(_latencies(phase)):.2f} ms p99="
            f"{1000 * quantile(_latencies(phase), 0.99):.2f} ms "
            f"(n={len(_latencies(phase))} of {len(phase['requests'])}); completed/s="
            f"{_capacity(phase):.1f}; backlog at last send={phase['outstanding_at_last_send']}; "
            f"generator lateness max={1000 * phase['lateness_max_s']:.1f} ms"
            for rate, phase in by_rate.items()
        ],
        f"host speed scale per closed-loop replay (reference / now; bounded timings are "
        f"multiplied by it): median {median(scales):.3f}, {min(scales):.3f}-{max(scales):.3f} "
        f"over {len(scales)}; samples kept {sum(len(r['speed_samples']) for r in closed)}, "
        f"discarded {sum(r['speed_discarded'] for r in closed)} (server not idle)",
    ]
    return outcome
