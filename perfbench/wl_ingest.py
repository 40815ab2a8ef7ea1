"""Workload ``ingest``: one closed-loop poller into an in-memory middleware.

A single caller (the interface-layer poller) pushes per-district poll
batches of 125 records into ``SemanticMiddleware.ingest_batch`` and waits
for each call before the next: a closed loop.  The deployment is in-memory,
``shards=1``, ``cep_per_record=True``, ``broker_latency=0``, so every
record crosses mediate → validate → annotate → reason → publish → cep and
derived IK events reach ``derived/#`` inside the call.  Views, the WAL,
shard RPC and HTTP are bypassed; annotation dominates the wall time, which
is why this workload exists: an annotation change shows here first.

One *round* is the whole seeded stream (64 polls, 8000 records spread over
20 simulated weeks) into a freshly built middleware; rounds repeat until
the time is up, so every round does identical work and per-round figures
are comparable.
"""

from __future__ import annotations

import gc
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
    instrument_middleware,
    layer_metrics,
    median,
    merge_summaries,
    middleware_counters,
    peak_rss_mb,
    quantile,
    scale_line,
    scaled,
    typical,
)
from inputs import UNRESOLVABLE_TERMS, district_polls
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware

DISTRICTS = 8
POLLS_PER_DISTRICT = 8
RECORDS_PER_POLL = 125
SPAN_DAYS = 140.0
#: Polls replayed record-major by the correctness twin.
TWIN_PREFIX = 16


def build() -> SemanticMiddleware:
    return SemanticMiddleware(
        config=MiddlewareConfig(cep_per_record=True, broker_latency=0.0)
    )


def derived_key(event):
    return (event.event_type, event.area, event.timestamp, event.rule_name)


@dataclass
class Round:
    setup: float = 0.0
    wall: float = 0.0
    latencies: List[float] = field(default_factory=list)
    accepted: List[int] = field(default_factory=list)
    #: (poll index, seconds from the carrying ingest_batch call, event key)
    derived: List[tuple] = field(default_factory=list)
    prefix_triples: int = 0
    final_triples: int = 0
    counters: dict = field(default_factory=dict)
    #: host speed over the round (``HostSpeed.scale``)
    scale: float = 1.0


def run_round(polls, speed: HostSpeed, tracer=None, label="") -> Round:
    result = Round()
    gc.collect()  # the previous round's garbage is not this round's cost
    since = speed.mark()
    speed.sample(2)
    started = time.perf_counter()
    middleware = build()
    call = {"poll": 0, "start": 0.0}

    def on_derived(message):
        result.derived.append(
            (call["poll"], time.perf_counter() - call["start"], derived_key(message.payload))
        )

    middleware.subscribe("derived/#", on_derived, subscriber_name="perfbench")
    result.setup = time.perf_counter() - started
    if tracer is not None:
        instrument_middleware(tracer, middleware)
        tracer.wrap(middleware, "ingest_batch", "middleware.ingest_batch")
    before = middleware_counters(middleware)
    window = time.perf_counter()
    for index, (_district, records) in enumerate(polls):
        if tracer is not None:
            tracer.trace_id = f"{label}poll-{index}"
        if index % 4 == 0:
            speed.sample()
        call["poll"] = index
        call["start"] = start = time.perf_counter()
        receipt = middleware.ingest_batch(records)
        result.latencies.append(time.perf_counter() - start)
        result.accepted.append(receipt.accepted)
        if index + 1 == TWIN_PREFIX:
            result.prefix_triples = middleware.ontology_layer.triple_count()
    result.wall = time.perf_counter() - window
    result.scale = speed.scale(since)
    result.counters = counter_diff(middleware_counters(middleware), before)
    result.final_triples = result.counters["graph.triples"]
    middleware.close()
    return result


def measure(polls, seconds, tracer=None) -> Tuple[List[Round], HostSpeed]:
    rounds = []
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run_round(polls, speed, tracer, label=f"round-{len(rounds)}/"))
    return rounds, speed


def check(outcome: Outcome, polls, rounds: List[Round]) -> None:
    expected = [
        sum(record.property_name not in UNRESOLVABLE_TERMS for record in records)
        for _district, records in polls
    ]
    first = rounds[0]
    for index, result in enumerate(rounds):
        outcome.check(result.accepted == expected,
                      f"round {index}: accepted counts differ from the resolvable records")
        outcome.check(
            [(poll, key) for poll, _, key in result.derived]
            == [(poll, key) for poll, _, key in first.derived],
            f"round {index}: derived events (or their order) differ from round 0")
        outcome.check(result.final_triples == first.final_triples,
                      f"round {index}: triple count differs from round 0")
    outcome.check(len(first.derived) >= 100,
                  f"only {len(first.derived)} derived events per pass of the stream (want 100+)")

    # record-major twin over a prefix of the same stream
    twin = build()
    twin_derived = []
    twin.subscribe("derived/#", lambda message: twin_derived.append(derived_key(message.payload)))
    events = twin.ingest_records(
        record for _district, records in polls[:TWIN_PREFIX] for record in records
    )
    outcome.check(len(events) == sum(first.accepted[:TWIN_PREFIX]),
                  "twin accepted count differs")
    outcome.check(twin.ontology_layer.triple_count() == first.prefix_triples,
                  "twin triple count differs")
    outcome.check(
        Counter(twin_derived)
        == Counter(key for poll, _, key in first.derived if poll < TWIN_PREFIX),
        "twin derived-event bag differs")
    twin.close()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    polls = district_polls(seed, DISTRICTS, POLLS_PER_DISTRICT, RECORDS_PER_POLL, SPAN_DAYS)
    budget = seconds / 2 if trace else seconds
    rounds, speed = measure(polls, budget)
    rss = peak_rss_mb()
    traced = []
    if trace:
        tracer = Tracer()
        traced, _ = measure(polls, budget, tracer)
        tracer.dump(WORK_DIR / "traces" / f"ingest-seed{seed}.jsonl")
        counters = merge_summaries(result.counters for result in traced)
        counters["graph.triples"] = traced[-1].final_triples
        outcome.layers = layer_metrics(counters, tracer.summary())
        outcome.layers["trace.overhead_ratio"] = (
            median([r.wall * r.scale for r in traced])
            / median([r.wall * r.scale for r in rounds])
        )
    check(outcome, polls, rounds + traced)

    latencies = [value for result in rounds for value in result.latencies]
    alerts = [latency for result in rounds for _, latency, _ in result.derived]
    calls = typical(scaled(rounds, "latencies"))
    deliveries = typical([[t * r.scale for _, t, _ in r.derived] for r in rounds])
    outcome.attempted = sum(len(result.latencies) for result in rounds + traced)
    outcome.e2e = {
        "setup_s": median([result.setup * result.scale for result in rounds]),
        "peak_rss_mb": rss,
        "throughput_per_s": sum(rounds[0].accepted) / sum(calls),
        "latency_p50_ms": 1000 * median(calls),
        "latency_p90_ms": 1000 * quantile(calls, 0.9),
        "delivery_p50_ms": 1000 * median(deliveries),
    }
    records = sum(sum(r.accepted) for r in rounds)
    outcome.name("setup_s", outcome.e2e["setup_s"], "s",
                 "middleware construction + subscribe, median over rounds")
    outcome.name("peak_rss_mb", rss, "MB", "benchmark process")
    outcome.name_error_rate()
    outcome.name("records_per_s", records / sum(latencies), "1/s",
                 f"{records} accepted records in {len(rounds)} rounds, batch of {RECORDS_PER_POLL}")
    outcome.timing("ingest", latencies, (0.99,), "one ingest_batch call (p50 "
                   f"{1000 * median(latencies):.2f} ms)")
    outcome.timing("alert", alerts, (0.9,), "ingest_batch call -> its derived event on derived/#")
    outcome.report = [
        f"rounds={len(rounds)} of {len(polls)} polls / {sum(len(r) for _, r in polls)} records; "
        f"derived events/round={len(rounds[0].derived)}",
        scale_line([r.scale for r in rounds], "round", speed),
    ]
    return outcome
