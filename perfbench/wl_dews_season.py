"""Workload ``dews_season``: ``DroughtEarlyWarningSystem.run()`` end to end.

Each *season* builds the Free State scenario for the seed modulo
``SCENARIOS`` (the number of stored references) and a DEWS with
``DewsConfig`` defaults (annotation off) except for its length: 100
simulated days, with the scenario's drought episode moved to days 10–150
so that forecasts turn actionable inside the season and dissemination
runs.  It is the only workload that reaches the interface-layer poll and
SenML decode, the WSN simulation, forecasting and dissemination, and it
bypasses annotation completely.  Seasons repeat until the time is up.

Two timestamp hooks serve the end-to-end metrics (no spans): one at the
start of every simulated day and one at every ingest call of the
ontology layer, which maps each record to the wall time its batch entered
the middleware so canonical-event deliveries can be timed.

Correctness: the alert list and forecast-skill table of every season equal
the scenario's stored reference (``reference/dews_season.json``).
Regenerate the references after an intended change of the program's
behaviour with::

    python3 perfbench/wl_dews_season.py --write-reference
"""

from __future__ import annotations

import gc
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "dews_season.json"
DAYS = 100
EPISODE = (10.0, 150.0, 0.85)
#: Scenario seeds with a stored reference; ``--seed`` picks one of them.
SCENARIOS = 64


@dataclass
class Season:
    setup: float = 0.0
    wall: float = 0.0
    #: (before, after) the host-speed sample at the start of every day
    marks: List[tuple] = field(default_factory=list)
    #: the season's wall time cut at every day start, host-speed samples
    #: left out: before the first day, every day, after the last day
    segments: List[float] = field(default_factory=list)
    #: wall time of each simulated day but the last
    days: List[float] = field(default_factory=list)
    deliveries: List[float] = field(default_factory=list)
    digest: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    #: host speed over the season (``HostSpeed.scale``)
    scale: float = 1.0


def build(seed: int):
    from repro.dews.system import DewsConfig, DroughtEarlyWarningSystem
    from repro.workloads.climate import DroughtEpisode
    from repro.workloads.scenario import build_free_state_scenario

    start, end, severity = EPISODE
    scenario = build_free_state_scenario(
        seed=seed,
        episodes=[DroughtEpisode(start_day=start, end_day=end, severity=severity)],
    )
    return DroughtEarlyWarningSystem(scenario, DewsConfig(days=DAYS, seed=seed))


def digest(result) -> dict:
    """The season's outputs that must match the reference."""
    return {
        "alerts": [
            [alert.district, alert.issue_day, alert.level,
             round(alert.drought_probability, 6), round(alert.vulnerability, 6),
             round(alert.lead_time_days, 6)]
            for alert in result.alerts
        ],
        "skills": result.skill_table(),
    }


def _hook_days(dews, marks: List[tuple], speed, tracer=None, label="") -> None:
    original = dews._run_physical_layer

    def hooked(day):
        paused = time.perf_counter()
        if len(marks) % 4 == 0:
            speed.sample()
        marks.append((paused, time.perf_counter()))
        if tracer is not None:
            tracer.trace_id = f"{label}day-{len(marks) - 1}"
        return original(day)

    dews._run_physical_layer = hooked


def _hook_deliveries(dews, deliveries: List[float]) -> None:
    layer = dews.middleware.ontology_layer
    original = layer.ingest_batch
    entered: Dict[tuple, float] = {}

    def hooked(records):
        records = list(records)
        now = time.perf_counter()
        for record in records:
            entered.setdefault((record.source_id, record.timestamp), now)
        return original(records)

    def on_canonical(message):
        event = message.payload
        start = entered.get((event.source_id, event.timestamp))
        if start is not None:
            deliveries.append(time.perf_counter() - start)

    layer.ingest_batch = hooked
    dews.subscribe("canonical/#", on_canonical, subscriber_name="perfbench")


def _instrument(tracer, dews) -> None:
    from harness import instrument_middleware

    tracer.wrap(dews, "run", "dews.run")
    tracer.wrap(dews, "_run_physical_layer", "dews.sample")
    tracer.wrap(dews.scheduler, "run_until", "dews.physical")
    tracer.wrap(dews.middleware.ontology_layer, "ingest_batch", "dews.ingest")
    tracer.wrap(dews, "_feed_daily_aggregates", "dews.aggregate")
    tracer.wrap(dews.statistical, "forecast_series", "forecast.statistical")
    tracer.wrap(dews.indigenous, "drought_probability_at", "forecast.indigenous")
    tracer.wrap(dews.fusion, "drought_probability_at", "forecast.fusion")
    tracer.wrap(dews.dissemination, "disseminate", "dissemination")
    instrument_middleware(tracer, dews.middleware)


def run_season(seed: int, speed, tracer=None, label="") -> Season:
    from harness import counter_diff, middleware_counters

    season = Season()
    gc.collect()  # the previous season's garbage is not this season's cost
    since = speed.mark()
    speed.sample(2)
    started = time.perf_counter()
    dews = build(seed)
    _hook_days(dews, season.marks, speed, tracer, label)
    _hook_deliveries(dews, season.deliveries)
    season.setup = time.perf_counter() - started
    if tracer is not None:
        tracer.trace_id = f"{label}setup"
        _instrument(tracer, dews)
    before = middleware_counters(dews.middleware)
    start = time.perf_counter()
    result = dews.run()
    season.wall = time.perf_counter() - start
    season.scale = speed.scale(since)
    marks = [(start, start), *season.marks, (start + season.wall,) * 2]
    season.segments = [b[0] - a[1] for a, b in zip(marks, marks[1:])]
    season.days = season.segments[1:-1]
    season.digest = digest(result)
    season.counters = counter_diff(middleware_counters(dews.middleware), before)
    dews.close()
    return season


def measure(seed: int, seconds: float, tracer=None):
    """Seasons until the time is up, and the host-speed record."""
    # import the program before the first season, so that its set-up time
    # is construction only, as in the other seasons
    import repro.dews.system  # noqa: F401
    import repro.workloads.scenario  # noqa: F401
    from harness import HostSpeed

    seasons = []
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    while not seasons or time.perf_counter() < deadline:
        seasons.append(run_season(seed, speed, tracer, f"season-{len(seasons)}/"))
    return seasons, speed


def load_references() -> Dict[str, dict]:
    with open(REFERENCE) as handle:
        stored = json.load(handle)
    if stored["days"] != DAYS or stored["episode"] != list(EPISODE):
        raise RuntimeError("stored DEWS references were made for another season")
    return stored["seeds"]


def check(outcome, scenario: int, seasons: List[Season]) -> None:
    reference = load_references()[str(scenario)]
    for index, season in enumerate(seasons):
        outcome.check(season.digest == reference,
                      f"season {index}: alerts / skill table differ from the stored "
                      f"reference of scenario {scenario}")


def run(seed: int, seconds: float, trace: bool):
    from harness import (
        WORK_DIR,
        Outcome,
        Tracer,
        layer_metrics,
        median,
        merge_summaries,
        peak_rss_mb,
        quantile,
        scale_line,
        scaled,
        typical,
    )

    outcome = Outcome()
    scenario = seed % SCENARIOS
    budget = seconds / 2 if trace else seconds
    seasons, speed = measure(scenario, budget)
    rss = peak_rss_mb()
    traced = []
    if trace:
        tracer = Tracer()
        traced, _ = measure(scenario, budget, tracer)
        tracer.dump(WORK_DIR / "traces" / f"dews_season-seed{seed}.jsonl")
        counters = merge_summaries(season.counters for season in traced)
        counters["graph.triples"] = traced[-1].counters["graph.triples"]
        layers = layer_metrics(counters, tracer.summary())
        layers["trace.overhead_ratio"] = (
            median([s.wall * s.scale for s in traced])
            / median([s.wall * s.scale for s in seasons])
        )
        outcome.layers = layers
    check(outcome, scenario, seasons + traced)

    days = [value for season in seasons for value in season.days]
    deliveries = [value for season in seasons for value in season.deliveries]
    outcome.attempted = len(seasons + traced)
    outcome.e2e = {
        "setup_s": median([season.setup * season.scale for season in seasons]),
        "peak_rss_mb": rss,
        "throughput_per_s": DAYS / sum(typical(scaled(seasons, "segments"))),
        "latency_p50_ms": 1000 * median(typical(scaled(seasons, "days"))),
        "latency_p90_ms": 1000 * quantile(typical(scaled(seasons, "days")), 0.9),
        "delivery_p50_ms": 1000 * median(typical(scaled(seasons, "deliveries"))),
    }
    outcome.name("setup_s", outcome.e2e["setup_s"], "s",
                 "scenario + DEWS construction, median over seasons")
    outcome.name("peak_rss_mb", rss, "MB", "benchmark process")
    outcome.name_error_rate()
    outcome.name("sim_days_per_s", len(seasons) * DAYS / sum(sum(s.segments) for s in seasons),
                 "1/s",
                 f"{len(seasons)} seasons of {DAYS} days")
    outcome.report = [
        f"alerts/season={len(seasons[0].digest['alerts'])}; simulated day wall time p50="
        f"{1000 * median(days):.2f} ms (n={len(days)}); canonical event delivery p50="
        f"{1000 * median(deliveries):.2f} ms (n={len(deliveries)})",
        scale_line([s.scale for s in seasons], "season", speed),
    ]
    return outcome


def write_references() -> None:
    from harness import HostSpeed

    seeds = {str(seed): run_season(seed, HostSpeed()).digest for seed in range(SCENARIOS)}
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w") as handle:
        json.dump({"days": DAYS, "episode": list(EPISODE), "seeds": seeds}, handle)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 perfbench/wl_dews_season.py --write-reference")
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    write_references()
