"""Seeded closed-loop HTTP client for the serve workload (stdlib only).

``--clients`` keep-alive connections share one request schedule drawn up
front from ``random.Random(seed)``: each connection takes the next
request, POSTs it to ``/invoke/<app>``, and sends nothing more until the
reply arrives (closed loop, no think time).  After every ``--tick-every``
requests, with no request in flight, the client runs one calibration
unit (``speed.py``) on the CPU it shares with the server.  Writes
per-request wall latency and status, and the calibration timings, to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import Speedometer  # noqa: E402


async def post(reader, writer, host: str, port: int, path: str) -> tuple[int, dict]:
    """One HTTP/1.1 request on an open keep-alive connection."""
    writer.write(
        (
            f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Length: 0\r\n\r\n"
        ).encode()
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b"{}"
    return status, json.loads(body)


async def run(host: str, port: int, apps: list[str], requests: int,
              clients: int, seed: int, tick_every: int) -> dict:
    rng = random.Random(seed)
    schedule = [rng.choice(apps) for _ in range(requests)]
    latencies_ms: list[float] = []
    statuses: dict[str, int] = {}
    errors: list[str] = []
    speed = Speedometer(tick_every)

    async def connection(reader, writer, block) -> None:
        for app in block:
            t0 = time.perf_counter()
            status, payload = await post(
                reader, writer, host, port, f"/invoke/{app}"
            )
            latencies_ms.append((time.perf_counter() - t0) * 1e3)
            key = f"{status}:{payload.get('status', 'error')}"
            statuses[key] = statuses.get(key, 0) + 1

    conns = [await asyncio.open_connection(host, port) for _ in range(clients)]
    first_send = time.perf_counter()
    try:
        for start in range(0, requests, tick_every):
            block = iter(schedule[start:start + tick_every])
            await asyncio.gather(
                *(connection(r, w, block) for r, w in conns)
            )
            speed.tick()
    except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
        errors.append(repr(exc))
    finally:
        last_reply = time.perf_counter()
        for _, writer in conns:
            writer.close()
            await writer.wait_closed()
    return {
        "sent": len(latencies_ms),
        "statuses": statuses,
        "errors": errors,
        "latencies_ms": latencies_ms,
        "first_send": first_send,
        "last_reply": last_reply,
        "speed": speed.to_dict(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--apps", nargs="+", required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--clients", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tick-every", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = asyncio.run(
        run(args.host, args.port, args.apps, args.requests, args.clients,
            args.seed, args.tick_every)
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
