"""Load generator of the ``gateway`` workload (its own process).

Plays jobs one after another, as they are named on standard input.  For a
job file (port, pre-rendered HTTP requests with their due times) it opens
one WebSocket subscription and one HTTP/1.1 keep-alive connection — two
connections in all.  An open-loop job sends every request when it is due,
without waiting for earlier responses (HTTP pipelining), so a slow server
accumulates a queue instead of slowing the generator; a closed-loop job
(``"closed": true``) ignores the due times and sends each request as soon
as the previous response has arrived.  Responses are matched to requests
in order.  In a closed loop it also samples the host speed
(``harness.HostSpeed``, on the server's CPU, watching the server process)
before the requests the job names, while no request is outstanding.
Writes a result file with, per request, the send and completion times
relative to the schedule start, the status and the parts of the body the
checks need; every WebSocket event with its arrival time;
``/v1/metrics`` snapshots before and after; how late the generator itself
ran; and the host-speed samples.

Usage: ``python3 perfbench/loadgen.py``, then one line ``JOB.json
RESULT.json`` per job on standard input; it answers each with a line
``done`` once the result file is written, and exits at end of input.
"""

from __future__ import annotations

import asyncio
import base64
import gc
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from harness import HostSpeed  # noqa: E402

HOST = "127.0.0.1"


async def read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


def render(method: str, path: str, body: str = "") -> bytes:
    data = body.encode("utf-8")
    return (
        f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\nX-Client-Id: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
    ).encode("latin-1") + data


async def fetch_metrics(port: int) -> dict:
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(render("GET", "/v1/metrics"))
        status, _headers, body = await read_response(reader)
        if status != 200:
            raise RuntimeError(f"/v1/metrics answered {status}")
        return json.loads(body)
    finally:
        writer.close()
        await writer.wait_closed()


async def subscribe(port: int, events: list, clock):
    from repro.serving import websocket as ws

    reader, writer = await asyncio.open_connection(HOST, port)
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    writer.write(
        (
            f"GET /v1/subscribe?topics=canonical%2F%23 HTTP/1.1\r\nHost: {HOST}\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
        ).encode("latin-1")
    )
    head = await reader.readuntil(b"\r\n\r\n")
    if b" 101 " not in head.split(b"\r\n", 1)[0]:
        raise RuntimeError(f"WebSocket upgrade refused: {head[:80]!r}")
    parser = ws.FrameParser(require_mask=False)
    ready = asyncio.get_running_loop().create_future()

    async def pump():
        while True:
            data = await reader.read(65536)
            if not data:
                return
            arrived = clock()
            for frame in parser.feed(data):
                if frame.opcode == ws.OP_PING:
                    writer.write(ws.encode_frame(ws.OP_PONG, frame.payload, mask=True))
                    continue
                if frame.opcode != ws.OP_TEXT:
                    continue
                message = json.loads(frame.text)
                if message.get("type") == "ready":
                    ready.set_result(True)
                elif message.get("type") == "message":
                    payload = message["payload"]
                    events.append([arrived, payload["source_id"], payload["timestamp"]])
                else:
                    events.append([arrived, message.get("type"), message.get("dropped", 0)])

    task = asyncio.get_running_loop().create_task(pump())
    await asyncio.wait_for(ready, timeout=10)
    return reader, writer, task


async def run(job: dict) -> dict:
    loop = asyncio.get_running_loop()
    port = job["port"]
    requests = [(due, render(*request)) for due, request in job["requests"]]
    keep = set(job["keep_bodies"])
    origin = {"t0": 0.0}

    def clock() -> float:
        return time.perf_counter() - origin["t0"]

    events: list = []
    ws_reader, ws_writer, ws_task = await subscribe(port, events, clock)
    before = await fetch_metrics(port)
    reader, writer = await asyncio.open_connection(HOST, port)
    sent = [None] * len(requests)
    done = [None] * len(requests)
    results = [None] * len(requests)

    def answer(index: int, status: int, headers: dict, body: bytes) -> None:
        done[index] = clock()
        kept = json.loads(body) if (index in keep or status != 200) else None
        results[index] = [status, headers.get("x-cache"), kept]

    async def receive():
        for index in range(len(requests)):
            answer(index, *await read_response(reader))

    origin["t0"] = time.perf_counter() + 0.05
    lateness = 0.0
    outstanding = 0
    speed = HostSpeed([job["server_pid"]], cpu=job["server_cpu"])
    sample_before = set(job["sample_before"])
    if job["closed"]:
        for index, (_due, raw) in enumerate(requests):
            if index in sample_before:
                speed.sample()
            sent[index] = clock()
            writer.write(raw)
            answer(index, *await read_response(reader))
    else:
        receiver = loop.create_task(receive())
        for index, (due, raw) in enumerate(requests):
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            now = clock()
            lateness = max(lateness, now - due)
            writer.write(raw)
            sent[index] = now
        outstanding = sum(value is None for value in done)
        try:
            await asyncio.wait_for(asyncio.shield(receiver), timeout=job["drain_s"])
        except asyncio.TimeoutError:
            pass
        receiver.cancel()
        try:
            await receiver
        except (asyncio.CancelledError, asyncio.IncompleteReadError, ConnectionError):
            pass
    writer.close()
    await asyncio.sleep(job["ws_settle_s"])
    after = await fetch_metrics(port)
    ws_task.cancel()
    try:
        await ws_task
    except (asyncio.CancelledError, ConnectionError):
        pass
    ws_writer.close()
    return {
        "sent": sent,
        "done": done,
        "results": results,
        "ws": events,
        "metrics_before": before,
        "metrics_after": after,
        "lateness_max_s": lateness,
        "outstanding_at_last_send": outstanding,
        "speed_samples": speed.samples,
        "speed_discarded": speed.discarded,
    }


def main() -> int:
    for line in sys.stdin:
        job_path, result_path = line.split()
        with open(job_path) as handle:
            job = json.load(handle)
        gc.collect()
        gc.disable()  # a collector pause would show up as generator lateness
        result = asyncio.run(run(job))
        gc.enable()
        with open(result_path, "w") as handle:
            json.dump(result, handle)
        print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
