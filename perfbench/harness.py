"""Measurement plumbing shared by the workloads: statistics, memory, spans.

Spans are recorded by the benchmark's own wrappers around calls into the
program's layers (nothing inside ``src/`` is instrumented).  A wrapper is
installed only for a traced run, so untraced runs execute the program
exactly as a user would.
"""

from __future__ import annotations

import gc
import json
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Where runs keep scratch state (durable stores) and write span dumps; it
#: lives in the working directory so a run touches nothing outside it.
WORK_DIR = Path(".perfbench_work")

#: Span names a traced run can record.  Each gets ``<name>.busy_s`` (time
#: inside the span, outermost occurrence only), ``<name>.self_s`` (busy
#: time minus the time its child spans cover) and ``<name>.calls``.
SPAN_NAMES = (
    "middleware.ingest_batch",
    "middleware.query",
    "pipeline.mediate",
    "pipeline.validate",
    "pipeline.annotate",
    "pipeline.reason",
    "pipeline.publish",
    "pipeline.cep",
    "cep",
    "broker.publish",
    "views.refresh",
    "planner.query",
    "shard_rpc.ingest",
    "shard_rpc.refresh",
    "shard_rpc.query",
    "shard_rpc.other",
    "gateway.engine.ingest_batch",
    "gateway.engine.query",
    "gateway.engine.health",
    "dews.run",
    "dews.sample",
    "dews.physical",
    "dews.ingest",
    "dews.aggregate",
    "forecast.statistical",
    "forecast.indigenous",
    "forecast.fusion",
    "dissemination",
)
STAGES = ("mediate", "validate", "annotate", "reason", "publish", "cep")


@dataclass
class Outcome:
    """What one workload run hands back to the runner."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics (untraced measurement).
    e2e: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced measurement); names the workload does not
    #: cross are reported as 0.
    layers: Dict[str, float] = field(default_factory=dict)
    #: The workload's own end-to-end metrics under the names of the metric
    #: catalogue in ``README.md``: ``(name, value, unit, note)``.
    named: List[Tuple[str, float, str, str]] = field(default_factory=list)
    #: Further human-readable lines: run shape and context.
    report: List[str] = field(default_factory=list)
    #: Failed correctness checks.
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def name(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.named.append((name, value, unit, note))

    def timing(self, prefix: str, seconds: Sequence[float], quantiles: Sequence[float],
               what: str) -> None:
        """Named ``<prefix>_p<QQ>_ms`` metrics over every sample of the run.

        Each note gives the sample count and how many samples lie beyond
        the percentile; where fewer than ten do, it also gives the highest
        percentile that has ten beyond it.
        """
        count = len(seconds)
        tail = tail_quantile(count)
        for q in quantiles:
            note = f"{what}; n={count}, {beyond(count, q)} beyond"
            if q > tail:
                note += (f"; highest percentile with 10+ beyond: "
                         f"p{_pct(tail)} = {1000 * quantile(seconds, tail):.2f} ms")
            self.name(f"{prefix}_p{_pct(q)}_ms", 1000 * quantile(seconds, q), "ms", note)

    def name_error_rate(self) -> None:
        self.name("error_rate", ratio(self.failed, self.attempted), "ratio",
                  f"{self.failed} failed or refused of {self.attempted} attempted")


def _pct(q: float) -> str:
    return f"{100 * q:g}".replace(".", "")


def tail_quantile(count: int) -> float:
    """The highest of p99.9 / p99 / p90 / p75 with ten samples beyond it."""
    for q in (0.999, 0.99, 0.9, 0.75):
        if beyond(count, q) >= 10:
            return q
    return 0.5


# ------------------------------------------------------------------ #
# statistics
# ------------------------------------------------------------------ #


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


#: Seconds one chunk of ``reference_work`` takes on the reference host: a
#: 2-core Xeon VM at 2.1 GHz in a spell when no other tenant slows it.
#: Scaled timings are what the program would have taken on that host.
REFERENCE_S = 0.0015
#: A host-speed sample is kept only if the program's threads and processes
#: ran for less than this share of its wall time while it was taken.
QUIET_SHARE = 0.02


class _Item:
    __slots__ = ("key", "text")

    def __init__(self, key: int, text: str) -> None:
        self.key = key
        self.text = text


def reference_work() -> float:
    """Run one chunk of fixed interpreter-bound work (objects, tuples, dict
    updates, string formatting, a sort); return its wall time.  It shares
    no code with the program, so no change to the program moves it, and
    it runs with the garbage collector off, so the size of the program's
    heap does not either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: Dict[tuple, int] = {}
        for index in range(2500):
            item = _Item(index, str(index))
            key = (item.text, index % 97)
            counts[key] = counts.get(key, 0) + len(item.text)
        sorted(counts.items())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _cpu_ns(pid: int, skip: int = -1) -> int:
    """CPU time of every thread of ``pid`` but ``skip``, in nanoseconds."""
    total = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return 0
    for tid in tids:
        if int(tid) == skip:
            continue
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass
    return total


def trimmed_mean(values: Sequence[float], cut: float = 0.05) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` of them."""
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    kept = ordered[drop:len(ordered) - drop]
    return sum(kept) / len(kept)


def scale_of(samples: Sequence[float]) -> float:
    """``REFERENCE_S`` over the mean chunk time of ``samples``: below 1
    while the host runs slower than the reference host.  A mean, not a
    median: the host switches between a fast and a slow speed, a median
    takes whichever holds the majority of the samples, while the program's
    time follows the average speed (on the gateway a median left twice the
    replay-to-replay variation a 5%-trimmed mean does)."""
    return REFERENCE_S / trimmed_mean(samples)


class HostSpeed:
    """How fast the shared host runs Python right now, for scaling timings.

    Other tenants of a shared host slow everything on it by a half or more,
    host-wide, switching between a fast and a slow speed several times a
    second and drifting over minutes.  A workload calls :meth:`sample`
    between its operations, outside their timed spans, where the program
    is idle; a slow spell stretches the reference work as much as the
    program, so scaled times stay put while a change to the program still
    moves them.  So that nothing the program does can slow the reference
    work, a sample is kept only if the program's threads (those of this
    process but the calling one) and processes (``pids``) used less than
    ``QUIET_SHARE`` of its wall time in CPU meanwhile; otherwise it is
    discarded and counted.  A change that adds work in the background
    shows as discarded samples, not as a lower scale.

    The host's CPUs switch speed independently of each other, so a sample
    must run on the CPU the program runs on.  A program in the calling
    thread is on it already; for one pinned elsewhere, pass its ``cpu``
    and each sample moves the calling thread there for the chunk.
    """

    def __init__(self, pids: Iterable[int] = (), cpu: Optional[int] = None) -> None:
        self.pids = list(pids)
        self.cpu = cpu
        self.samples: List[float] = []
        self.discarded = 0

    def _program_cpu_ns(self) -> int:
        own = _cpu_ns(os.getpid(), skip=threading.get_native_id())
        return own + sum(_cpu_ns(pid) for pid in self.pids)

    def sample(self, chunks: int = 1) -> None:
        home = os.sched_getaffinity(0)
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        try:
            for _ in range(chunks):
                before = self._program_cpu_ns()
                seconds = reference_work()
                if self._program_cpu_ns() - before > QUIET_SHARE * seconds * 1e9:
                    self.discarded += 1
                else:
                    self.samples.append(seconds)
        finally:
            if self.cpu is not None:
                os.sched_setaffinity(0, home)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int = 0) -> float:
        """The scale over the samples kept since mark ``since``."""
        return scale_of(self.samples[since:])


def scale_line(scales: Sequence[float], per: str, speed: HostSpeed) -> str:
    """Report line for the host-speed scales of a run's repetitions."""
    return (f"host speed scale per {per} (reference / now; bounded timings are "
            f"multiplied by it): median {median(scales):.3f}, "
            f"{min(scales):.3f}-{max(scales):.3f} over {len(scales)}; samples kept "
            f"{len(speed.samples)}, discarded {speed.discarded} (program not idle)")


def scaled(repetitions: Sequence, attribute: str) -> List[List[float]]:
    """Each repetition's ``attribute`` times multiplied by its ``scale``."""
    return [[t * rep.scale for t in getattr(rep, attribute)] for rep in repetitions]


def typical(repetitions: Sequence[Sequence[float]]) -> List[float]:
    """Each operation's median time over repetitions of the same operations.

    ``repetitions[r][i]`` is the time of operation ``i`` (a poll, a query,
    a simulated day, a request, an event) in repetition ``r`` (a round, a
    season, a replay of a schedule); every repetition does identical work.
    Other tenants of a shared host slow the program by a third or more in
    bursts of a few to tens of seconds; an operation's median drops the
    bursts that hit a minority of its repetitions, where a percentile
    pooled over all samples keeps them.
    """
    count = min(len(samples) for samples in repetitions)
    return [median([samples[i] for samples in repetitions]) for i in range(count)]


def beyond(count: int, q: float) -> int:
    """Samples above quantile ``q`` in a sample of ``count``."""
    return int(round(count * (1.0 - q), 6))


def ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


# ------------------------------------------------------------------ #
# memory
# ------------------------------------------------------------------ #


def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Sum of the peak resident set sizes of this process and ``pids``."""
    total_kb = 0
    for pid in [os.getpid(), *pids]:
        total_kb += _vm_hwm_kb(pid)
    return total_kb / 1024.0


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(path: Path) -> int:
    return sum(
        file.stat().st_size for file in Path(path).rglob("*") if file.is_file()
    )


# ------------------------------------------------------------------ #
# spans
# ------------------------------------------------------------------ #


class Tracer:
    """In-memory span recorder fed by wrappers the benchmark installs.

    A span is ``(span_id, parent_id, trace_id, name, start, end)``.  The
    parent is the innermost open span on the same thread; ``trace_id``
    names the batch / request / simulated day the span belongs to, and is
    set per thread by the workload before it hands one to the program.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, str, float, float]] = []
        self._next_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def trace_id(self) -> str:
        return getattr(self._local, "trace_id", "")

    @trace_id.setter
    def trace_id(self, value: str) -> None:
        self._local.trace_id = value

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self.trace_id, name, start, end))

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` (a callable) with a span-recording one."""
        original = getattr(owner, attribute)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(owner, attribute, traced)

    def summary(self) -> Dict[str, float]:
        """``<name>.busy_s`` / ``.self_s`` / ``.calls`` for every span name."""
        by_id = {span[0]: span for span in self.spans}
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, parent, _trace, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for span_id, parent, _trace, name, start, end in self.spans:
            if name not in SPAN_NAMES:
                raise KeyError(f"span {name!r} is not in SPAN_NAMES")
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration - child_time[span_id]
            if not _nested_in_same(by_id, parent, name):
                out[f"{name}.busy_s"] += duration
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, trace, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "trace": trace,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )


def _nested_in_same(by_id, parent: Optional[int], name: str) -> bool:
    while parent is not None:
        span = by_id[parent]
        if span[3] == name:
            return True
        parent = span[1]
    return False


def merge_summaries(summaries: Iterable[Dict[str, float]]) -> Dict[str, float]:
    merged: Dict[str, float] = defaultdict(float)
    for summary in summaries:
        for key, value in summary.items():
            merged[key] += value
    return dict(merged)


# ------------------------------------------------------------------ #
# wrappers around one middleware's layers
# ------------------------------------------------------------------ #


def instrument_middleware(tracer: Tracer, middleware) -> None:
    """Install span wrappers on one :class:`SemanticMiddleware`'s layers.

    Stages are wrapped per instance (``stages[i].process_batch``), the CEP
    engine at ``process``, the broker at ``publish`` and the layer at
    ``query``; a process-sharded layer additionally gets its RPC fan-out
    (``scatter``) wrapped and named by opcode.
    """
    layer = middleware.ontology_layer
    for stage in layer.pipeline.stages:
        tracer.wrap(stage, "process_batch", f"pipeline.{stage.name}")
    tracer.wrap(layer.cep, "process", "cep")
    tracer.wrap(middleware.broker, "publish", "broker.publish")
    tracer.wrap(layer, "query", "planner.query")
    backend = getattr(layer, "_backend", None)
    if backend is not None and hasattr(backend, "scatter"):
        _instrument_scatter(tracer, backend)


def _instrument_scatter(tracer: Tracer, backend) -> None:
    from repro.core.shard_wire import (
        OP_INGEST,
        OP_QUERY_ASK,
        OP_QUERY_FULL,
        OP_REFRESH_VIEWS,
    )

    names = {
        OP_INGEST: "shard_rpc.ingest",
        OP_REFRESH_VIEWS: "shard_rpc.refresh",
        OP_QUERY_ASK: "shard_rpc.query",
        OP_QUERY_FULL: "shard_rpc.query",
    }
    original = backend.scatter

    def traced(requests):
        name = names.get(requests[0][1], "shard_rpc.other") if requests else "shard_rpc.other"
        return tracer.call(name, original, requests)

    backend.scatter = traced


def instrument_views(tracer: Tracer, handles: Iterable) -> None:
    """Wrap ``refresh`` on every per-partition view of the given handles."""
    for handle in handles:
        for view in handle:
            tracer.wrap(view, "refresh", "views.refresh")


# ------------------------------------------------------------------ #
# counters (statistics() diffs at the same boundaries as the spans)
# ------------------------------------------------------------------ #


def middleware_counters(middleware) -> Dict[str, float]:
    """Flat counter snapshot from the middleware's public statistics."""
    stats = middleware.statistics()
    pipeline = stats["pipeline"]
    out: Dict[str, float] = {}
    for stage in STAGES:
        entry = pipeline.stages.get(stage)
        out[f"pipeline.{stage}.records"] = entry.entered if entry else 0
    mediation = stats["mediation"]
    out["mediator.records_seen"] = mediation.records_seen
    out["mediator.resolved"] = mediation.resolved
    out["annotation.triples"] = stats["ontology_layer"].annotation_triples
    cep = stats["cep"]
    out["cep.rule_evaluations"] = cep.rule_evaluations
    out["cep.derived_events"] = cep.derived_events
    broker = stats["broker"]
    out["broker.published"] = broker.published
    out["broker.delivered"] = broker.delivered
    planner = stats["query_planner"]
    out["planner.queries"] = planner.queries
    out["planner.hits"] = planner.result_hits + planner.view_hits
    out["planner.plans_built"] = planner.plans_built
    views = stats["standing_views"]
    out["views.delta_updates"] = views["delta_updates"]
    out["views.full_refreshes"] = views["full_refreshes"]
    out["graph.triples"] = stats["graph_triples"]
    interface = stats.get("interface_layer")
    out["interface.records_decoded"] = interface.records_decoded if interface else 0
    return out


def counter_diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    diff = {key: after[key] - before.get(key, 0) for key in after}
    diff["graph.triples"] = after["graph.triples"]  # a state size, not a count
    return diff


def layer_metrics(counters: Dict[str, float], spans: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from summed counter diffs and span summaries.

    Every ratio is accompanied by its base count.
    """
    out: Dict[str, float] = {}
    for stage in STAGES:
        out[f"pipeline.{stage}.records"] = counters.get(f"pipeline.{stage}.records", 0)
    seen = counters.get("mediator.records_seen", 0)
    out["mediator.records_seen"] = seen
    out["mediator.resolved_ratio"] = ratio(counters.get("mediator.resolved", 0), seen)
    annotated = counters.get("pipeline.annotate.records", 0)
    out["annotation.triples_per_record"] = ratio(counters.get("annotation.triples", 0), annotated)
    out["cep.rule_evaluations"] = counters.get("cep.rule_evaluations", 0)
    out["cep.derived_events"] = counters.get("cep.derived_events", 0)
    published = counters.get("broker.published", 0)
    out["broker.published"] = published
    out["broker.fanout"] = ratio(counters.get("broker.delivered", 0), published)
    queries = counters.get("planner.queries", 0)
    out["planner.queries"] = queries
    out["planner.cache_hit_ratio"] = ratio(counters.get("planner.hits", 0), queries)
    out["planner.plans_built"] = counters.get("planner.plans_built", 0)
    out["views.delta_updates"] = counters.get("views.delta_updates", 0)
    out["views.full_refreshes"] = counters.get("views.full_refreshes", 0)
    refreshes = spans.get("views.refresh.calls", 0)
    out["views.useful_refresh_ratio"] = ratio(counters.get("views.deltas_delivered", 0), refreshes)
    out["graph.triples"] = counters.get("graph.triples", 0)
    out["interface.records_decoded"] = counters.get("interface.records_decoded", 0)
    out.update(spans)
    return out
