"""The process under test of the ``gateway`` workload.

Boots ``GatewayServer`` over the ``shards=1`` middleware of
``examples/serve_dews.py`` (annotation on, ``broker_latency=0``) with the
default ``ServingConfig`` (rate limiting off: the load generator is one
client whose schedule, not a token bucket, sets the rate).  Prints one JSON
line ``{"port", "pid"}`` when it accepts connections, then serves until a
line arrives on standard input, and finally prints one JSON line with its
peak RSS and, when traced, its span summary, counter diffs and the
duration of every engine call in call order.

Usage: ``python3 perfbench/gateway_server.py [SPAN_DUMP.jsonl]``.  Given a
dump path, the run is traced: span wrappers are installed on the engine
(``ingest_batch`` / ``query`` / ``health``) and on the middleware's layers
before the server starts, and the spans are written there at exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _wrap_engine(tracer, middleware, calls) -> None:
    for call in ("ingest_batch", "query", "health"):
        original = getattr(middleware, call)

        def traced(*args, _call=call, _original=original, **kwargs):
            tracer.trace_id = f"request-{len(calls)}"
            start = time.perf_counter()
            try:
                return tracer.call(f"gateway.engine.{_call}", _original, *args, **kwargs)
            finally:
                calls.append((_call, time.perf_counter() - start))

        setattr(middleware, call, traced)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from harness import (
        Tracer,
        counter_diff,
        instrument_middleware,
        middleware_counters,
        peak_rss_mb,
    )
    from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
    from repro.serving import GatewayServer, ServingConfig

    dump = Path(sys.argv[1]) if len(sys.argv) > 1 else None
    middleware = SemanticMiddleware(
        config=MiddlewareConfig(annotate_observations=True, broker_latency=0.0)
    )
    tracer = Tracer() if dump is not None else None
    calls = []
    if tracer is not None:
        instrument_middleware(tracer, middleware)
        _wrap_engine(tracer, middleware, calls)
    before = middleware_counters(middleware)
    server = GatewayServer(middleware, ServingConfig()).start()
    print(json.dumps({"port": server.port, "pid": os.getpid()}), flush=True)
    try:
        sys.stdin.readline()
    finally:
        server.stop()
    report = {"rss_mb": peak_rss_mb()}
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["counters"] = counter_diff(middleware_counters(middleware), before)
        report["engine_calls"] = calls
        tracer.dump(dump)
    middleware.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
