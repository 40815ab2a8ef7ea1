"""Workload ``dashboard``: polls, push views and federated queries, durably.

A closed loop over the durable, process-sharded deployment: ``shards=2``,
``shard_backend="process"``, a ``data_dir`` with ``wal_fsync="batch"`` and
a snapshot interval small enough that every round rolls several
checkpoints per shard.  The 16 per-district panels of the dashboard suite
are registered as push-mode standing views (deltas on ``views/#``); after
every poll the 12 global panels run as ad-hoc federated queries.  It is the
only workload that crosses view maintenance, the planner over shard RPC and
the WAL, and it runs annotation inside the worker processes, behind a pipe.

One *round* is the seeded stream (8 polls of 125 records, one per
district) into a freshly built deployment; rounds repeat until the time is
up.
"""

from __future__ import annotations

import gc
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Tuple

from harness import (
    WORK_DIR,
    HostSpeed,
    Outcome,
    Tracer,
    counter_diff,
    dir_bytes,
    instrument_middleware,
    instrument_views,
    layer_metrics,
    median,
    merge_summaries,
    middleware_counters,
    peak_rss_mb,
    quantile,
    ratio,
    scale_line,
    scaled,
    typical,
)
from inputs import UNRESOLVABLE_TERMS, district_polls
from queries import AREA_QUERIES, GLOBAL_QUERIES
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware

DISTRICTS = 8
POLLS_PER_DISTRICT = 1
RECORDS_PER_POLL = 125
SPAN_DAYS = 9.0
#: Canonical value ranges: dashboard panels filter on ``?v > 56..58``, so
#: values mostly below that keep the panels' answers small, as in the
#: suite's own data, while the scans still walk every observation.
RANGES = {
    "soil_moisture": (10.0, 35.0),
    "rainfall": (0.0, 12.0),
    "air_temperature": (8.0, 32.0),
    "relative_humidity": (35.0, 60.0),
}
SNAPSHOT_INTERVAL = 2000


def build(data_dir) -> SemanticMiddleware:
    return SemanticMiddleware(
        config=MiddlewareConfig(
            broker_latency=0.0,
            shards=2,
            shard_backend="process",
            data_dir=str(data_dir),
            wal_fsync="batch",
            snapshot_interval=SNAPSHOT_INTERVAL,
        )
    )


def solution_bag(result):
    if result.form == "ASK":
        return result.ask
    return Counter(
        frozenset((var.name, str(term)) for var, term in solution.items())
        for solution in result.solutions
    )


@dataclass
class Round:
    setup: float = 0.0
    wall: float = 0.0
    accepted: List[int] = field(default_factory=list)
    freshness: List[float] = field(default_factory=list)
    #: wall time of each poll: its ingest_batch call and the queries after it
    polls: List[float] = field(default_factory=list)
    deltas: int = 0
    queries: List[float] = field(default_factory=list)
    rss_mb: float = 0.0
    restarts: int = 0
    checkpoints: int = 0
    wal_bytes: int = 0
    counters: dict = field(default_factory=dict)
    #: the deployment's answer to every panel, kept on a run's first round
    answers: list = field(default_factory=list)
    #: host speed over the round (``HostSpeed.scale``)
    scale: float = 1.0


def run_round(polls, data_dir, speed: HostSpeed, tracer=None, label="",
              answers=False) -> Round:
    """One round into a fresh deployment, closed (its shard workers
    stopped) before it returns.  With ``answers``, the deployment's final
    answer to every panel is kept for the check."""
    shutil.rmtree(data_dir, ignore_errors=True)
    gc.collect()  # the previous round's garbage is not this round's cost
    since = speed.mark()
    speed.sample(2)
    started = time.perf_counter()
    middleware = build(data_dir)
    try:
        result = _drive(polls, data_dir, speed, tracer, label, started, middleware)
        if answers:
            result.answers = [
                solution_bag(middleware.query(text)) for text in AREA_QUERIES + GLOBAL_QUERIES
            ]
    finally:
        middleware.close()
        speed.pids = []
    result.scale = speed.scale(since)
    return result


def _drive(polls, data_dir, speed, tracer, label, started, middleware) -> Round:
    result = Round()
    handles = [
        middleware.register_standing(text, name=f"panel-{index}", push=True)
        for index, text in enumerate(AREA_QUERIES)
    ]
    delivered: List[float] = []
    middleware.subscribe(
        "views/#", lambda message: delivered.append(time.perf_counter()),
        subscriber_name="perfbench",
    )
    result.setup = time.perf_counter() - started
    # host-speed samples also wait for the shard workers to be idle
    speed.pids = [entry["pid"] for entry in middleware.ontology_layer.shard_statistics()]
    if tracer is not None:
        instrument_middleware(tracer, middleware)
        instrument_views(tracer, handles)
        tracer.wrap(middleware, "ingest_batch", "middleware.ingest_batch")
        tracer.wrap(middleware, "query", "middleware.query")
    before = middleware_counters(middleware)
    window = time.perf_counter()
    for index, (_district, records) in enumerate(polls):
        if tracer is not None:
            tracer.trace_id = f"{label}poll-{index}"
        speed.sample(2)
        seen = len(delivered)
        polled = start = time.perf_counter()
        receipt = middleware.ingest_batch(records)
        returned = time.perf_counter()
        result.accepted.append(receipt.accepted)
        result.freshness.append(
            (delivered[-1] if len(delivered) > seen else returned) - start
        )
        for text in GLOBAL_QUERIES:
            start = time.perf_counter()
            middleware.query(text)
            result.queries.append(time.perf_counter() - start)
        result.polls.append(time.perf_counter() - polled)
    result.wall = time.perf_counter() - window
    result.deltas = len(delivered)
    shards = middleware.ontology_layer.shard_statistics()
    result.rss_mb = peak_rss_mb(entry["pid"] for entry in shards)
    result.restarts = sum(entry["restarts"] for entry in shards)
    result.checkpoints = sum(entry["generation"] for entry in shards)
    result.wal_bytes = dir_bytes(data_dir)
    result.counters = counter_diff(middleware_counters(middleware), before)
    result.counters["views.deltas_delivered"] = result.deltas
    return result


def measure(polls, seconds, tracer=None) -> Tuple[List[Round], HostSpeed]:
    """Rounds until the time is up; the first keeps its answers."""
    data_dir = WORK_DIR / "tmp" / "dashboard"
    rounds = []
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(
            run_round(polls, data_dir, speed, tracer, f"round-{len(rounds)}/", not rounds)
        )
    return rounds, speed


def check(outcome: Outcome, polls, rounds: List[Round]) -> None:
    expected = [
        sum(record.property_name not in UNRESOLVABLE_TERMS for record in records)
        for _district, records in polls
    ]
    for index, result in enumerate(rounds):
        outcome.check(result.accepted == expected,
                      f"round {index}: accepted counts differ from the resolvable records")
        outcome.check(result.restarts == 0, f"round {index}: {result.restarts} shard restarts")
        outcome.check(result.deltas == rounds[0].deltas,
                      f"round {index}: {result.deltas} view deltas, round 0 had {rounds[0].deltas}")

    twin = SemanticMiddleware(config=MiddlewareConfig(broker_latency=0.0))
    for index, text in enumerate(AREA_QUERIES):
        twin.register_standing(text, name=f"panel-{index}")
    for _district, records in polls:
        twin.ingest_batch(records)
    for index, text in enumerate(AREA_QUERIES + GLOBAL_QUERIES):
        expected = solution_bag(twin.query(text))
        for result in rounds:
            if result.answers:
                outcome.check(result.answers[index] == expected,
                              "answer differs from the shards=1 twin: "
                              f"{' '.join(text.split())[:80]}")
    twin.close()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    polls = district_polls(
        seed, DISTRICTS, POLLS_PER_DISTRICT, RECORDS_PER_POLL, SPAN_DAYS, RANGES
    )
    budget = seconds / 2 if trace else seconds
    rounds, speed = measure(polls, budget)
    traced = []
    if trace:
        tracer = Tracer()
        traced, _ = measure(polls, budget, tracer)
        tracer.dump(WORK_DIR / "traces" / f"dashboard-seed{seed}.jsonl")
        counters = merge_summaries(result.counters for result in traced)
        counters["graph.triples"] = traced[-1].counters["graph.triples"]
        layers = layer_metrics(counters, tracer.summary())
        records = sum(sum(result.accepted) for result in traced)
        layers["shard.restarts"] = sum(result.restarts for result in traced)
        layers["wal.checkpoints"] = sum(result.checkpoints for result in traced)
        layers["wal.bytes_per_record"] = ratio(
            sum(result.wal_bytes for result in traced), records
        )
        layers["trace.overhead_ratio"] = (
            median([r.wall * r.scale for r in traced])
            / median([r.wall * r.scale for r in rounds])
        )
        outcome.layers = layers
    check(outcome, polls, rounds + traced)

    freshness = [value for result in rounds for value in result.freshness]
    queries = [value for result in rounds for value in result.queries]
    outcome.attempted = sum(
        len(result.freshness) + len(result.queries) for result in rounds + traced
    )
    outcome.e2e = {
        "setup_s": median([result.setup * result.scale for result in rounds]),
        "peak_rss_mb": max(result.rss_mb for result in rounds),
        "throughput_per_s": sum(rounds[0].accepted) / sum(typical(scaled(rounds, "polls"))),
        "latency_p50_ms": 1000 * median(typical(scaled(rounds, "queries"))),
        "latency_p90_ms": 1000 * quantile(typical(scaled(rounds, "queries")), 0.9),
        "delivery_p50_ms": 1000 * median(typical(scaled(rounds, "freshness"))),
    }
    records = sum(sum(r.accepted) for r in rounds)
    outcome.name("setup_s", outcome.e2e["setup_s"], "s",
                 "deployment build (library, 2 worker forks, WAL) + 16 views, median over rounds")
    outcome.name("peak_rss_mb", outcome.e2e["peak_rss_mb"], "MB", "parent + both shard workers")
    outcome.name_error_rate()
    outcome.name("records_per_s", records / sum(sum(r.polls) for r in rounds), "1/s",
                 f"{records} accepted records in {len(rounds)} rounds, batch of "
                 f"{RECORDS_PER_POLL}, with view refresh and {len(GLOBAL_QUERIES)} queries per poll")
    outcome.timing("view_fresh", freshness, (0.5, 0.99),
                   "poll's ingest_batch call -> last views/# delta")
    outcome.timing("query", queries, (0.5, 0.99), "one ad-hoc federated query")
    outcome.report = [
        f"rounds={len(rounds)} of {len(polls)} polls; {len(AREA_QUERIES)} push views; "
        f"view deltas/round={rounds[0].deltas}; wal checkpoints/round={rounds[0].checkpoints}",
        scale_line([r.scale for r in rounds], "round", speed),
    ]
    return outcome
