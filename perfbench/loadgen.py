"""Open-loop load generator for ``serve-mix`` (its own process, stdlib only).

Usage::

    python3 perfbench/loadgen.py PLAN.json RESULTS.json

The plan holds the daemon port, the number of keep-alive connections,
the start time ``t0`` (a ``time.perf_counter`` reading, which is the
system-wide monotonic clock, so the parent can line the schedule up
with its own spans) and the requests as ``[offset_s, rid, kind, body]``.
Each request is released at ``t0 + offset`` whether or not earlier ones
have finished (independent clients: an open loop); released requests
wait for a free connection.  Latency is measured from the due time, so
a stall also charges the requests queued behind it.

Results: ``{"records": [[rid, due, queued, sent, done, status, body], ...]}``
where ``queued - due`` is how late the generator itself ran and
``status`` 0 marks a transport error.
"""

from __future__ import annotations

import asyncio
import json
import sys
from time import perf_counter


class Connection:
    """One HTTP/1.1 keep-alive connection speaking JSON POSTs."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def close(self) -> None:
        writer, self.reader, self.writer = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def post(self, path: str, body: bytes):
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        for attempt in (0, 1):
            reused = self.writer is not None
            if not reused:
                self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
            try:
                self.writer.write(head + body)
                await self.writer.drain()
                status_line = await self.reader.readline()
                if not status_line:
                    raise ConnectionError("connection closed before a response")
                status = int(status_line.split()[1])
                headers = {}
                while True:
                    line = await self.reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                data = await self.reader.readexactly(int(headers.get("content-length", "0")))
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                await self.close()
                if reused and attempt == 0:
                    continue  # a stale keep-alive connection: retry once, fresh
                raise
            if headers.get("connection", "").lower() == "close":
                await self.close()
            return status, data
        raise ConnectionError("unreachable")


async def drive(plan: dict) -> list:
    queue: asyncio.Queue = asyncio.Queue()
    records = []

    async def worker() -> None:
        connection = Connection("127.0.0.1", plan["port"])
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                rid, due, queued, body = item
                sent = perf_counter()
                try:
                    status, data = await asyncio.wait_for(
                        connection.post("/v1/advise", body), plan.get("timeout", 60.0)
                    )
                    text = data.decode("utf-8", "replace")
                except (ConnectionError, OSError, asyncio.TimeoutError, ValueError) as exc:
                    status, text = 0, repr(exc)
                    await connection.close()
                records.append([rid, due, queued, sent, perf_counter(), status, text])
        finally:
            await connection.close()

    workers = [asyncio.ensure_future(worker()) for _ in range(plan["connections"])]
    t0 = plan["t0"]
    for offset, rid, _kind, body in plan["requests"]:
        due = t0 + offset
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        queue.put_nowait((rid, due, perf_counter(), body.encode("utf-8")))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return records


def main(argv=None) -> int:
    plan_path, results_path = (argv if argv is not None else sys.argv[1:])[:2]
    with open(plan_path) as handle:
        plan = json.load(handle)
    records = asyncio.run(drive(plan))
    with open(results_path, "w") as handle:
        json.dump({"records": records}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
