"""Open-loop HTTP client for the service workload.

Job sources do not wait for verdicts, so the client is open loop: each
submission is written on one keep-alive connection when it is *due*,
whether or not earlier verdicts have arrived (HTTP/1.1 pipelining), and
its latency runs from the due instant to the arrival of its verdict.
A stall therefore charges every submission that queued behind it, and
the client reports how late it ran itself.  A second connection follows
the decision stream with ``GET /events?since=N``, one poll at a time.

Failure accounting: a submission fails on a transport error, on a
timeout, or on any status other than 200 or 429.  A 429 is the
admission policy's answer and is timed like a 200.  A failed submission
is charged :data:`FAILED_LATENCY_MS`, so it misses any latency limit.

This module imports nothing from ``repro``.
"""

from __future__ import annotations

import asyncio
import json
import selectors
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Latency charged to a submission that never got a verdict.
FAILED_LATENCY_MS = 60_000.0
#: Pause between two polls of the decision stream.
POLL_INTERVAL_S = 0.02
#: Lead time between the start of a step and its first due instant.
LEAD_S = 0.05


def run(coro):
    """Run ``coro`` on an event loop over ``select()``.

    The default epoll selector rounds timeouts up to whole milliseconds,
    so timers fire up to 1 ms late, which would add to every latency the
    client reports.  ``select()`` takes microsecond timeouts.
    """
    with asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(
            selectors.SelectSelector())) as runner:
        return runner.run(coro)


@dataclass
class StepResult:
    """What one step of the ladder observed, client side."""

    attempted: int = 0
    sent: int = 0
    failed: int = 0
    #: HTTP verdicts: ``200`` accepted, ``429`` refused by policy.
    accepted: int = 0
    refused: int = 0
    #: Verdict bodies by ``status`` (admitted/deferred/shed/rejected).
    verdicts: Dict[str, int] = field(default_factory=dict)
    latency_ms: List[float] = field(default_factory=list)
    rtt_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    poll_ms: List[float] = field(default_factory=list)
    poll_bytes: int = 0
    wall_s: float = 0.0
    error: Optional[str] = None

    def late_growth_ms(self) -> float:
        """Mean lateness of the last quarter of sends minus the first."""
        late = self.late_ms
        q = max(1, len(late) // 4)
        if len(late) < 2 * q:
            return 0.0
        return sum(late[-q:]) / q - sum(late[:q]) / q


def request(method: str, path: str, body: bytes = b"") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed")
    status = int(status_line.split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    return status, (await reader.readexactly(length) if length else b"")


async def fetch(host: str, port: int, method: str, path: str, timeout: float) -> Tuple[int, bytes]:
    """One request on a fresh connection."""
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
    try:
        writer.write(request(method, path))
        return await asyncio.wait_for(read_response(reader), timeout)
    finally:
        writer.close()


async def run_step(
    host: str,
    port: int,
    schedule: Sequence[Tuple[float, str]],
    grace_s: float = 3.0,
) -> StepResult:
    """Replay ``schedule`` (wall offsets in s, task name) against the
    service and follow its decision stream until every verdict is in or
    ``grace_s`` after the last due instant."""
    loop = asyncio.get_running_loop()
    n = len(schedule)
    result = StepResult(attempted=n)
    bodies = {name: request("POST", "/jobs", json.dumps({"task": name}).encode())
              for name in {name for _, name in schedule}}
    due = [0.0] * n
    sent_at = [0.0] * n
    answered = 0
    writers = []
    try:
        sub_reader, sub_writer = await asyncio.wait_for(asyncio.open_connection(host, port), 5.0)
        writers.append(sub_writer)
        ev_reader, ev_writer = await asyncio.wait_for(asyncio.open_connection(host, port), 5.0)
        writers.append(ev_writer)
    except (OSError, asyncio.TimeoutError) as exc:
        for writer in writers:
            writer.close()
        result.error = f"connect: {exc!r}"
        result.failed = n
        result.latency_ms = [FAILED_LATENCY_MS] * n
        return result

    t0 = loop.time() + LEAD_S
    finished = asyncio.Event()

    async def send() -> None:
        for i, (offset, name) in enumerate(schedule):
            due[i] = t0 + offset
            delay = due[i] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent_at[i] = loop.time()
            sub_writer.write(bodies[name])
            result.sent += 1
            result.late_ms.append((sent_at[i] - due[i]) * 1e3)
            if sub_writer.transport.get_write_buffer_size() > 1 << 16:
                await sub_writer.drain()

    async def receive() -> None:
        nonlocal answered
        for i in range(n):
            status, body = await read_response(sub_reader)
            now = loop.time()
            answered += 1
            if status in (200, 429):
                result.latency_ms.append((now - due[i]) * 1e3)
                result.rtt_ms.append((now - sent_at[i]) * 1e3)
                if status == 200:
                    result.accepted += 1
                else:
                    result.refused += 1
                verdict = json.loads(body).get("status", "?")
                result.verdicts[verdict] = result.verdicts.get(verdict, 0) + 1
            else:
                result.failed += 1
                result.latency_ms.append(FAILED_LATENCY_MS)

    async def follow() -> None:
        since = 0
        while True:
            last = finished.is_set()
            start = loop.time()
            ev_writer.write(request("GET", f"/events?since={since}"))
            status, body = await asyncio.wait_for(read_response(ev_reader), 5.0)
            if status != 200:
                raise ConnectionError(f"/events answered {status}")
            result.poll_ms.append((loop.time() - start) * 1e3)
            result.poll_bytes += len(body)
            since += body.count(b"\n")
            if last:
                return
            try:
                await asyncio.wait_for(finished.wait(), POLL_INTERVAL_S)
            except asyncio.TimeoutError:
                pass

    follower = asyncio.create_task(follow())
    budget = LEAD_S + (schedule[-1][0] if n else 0.0) + grace_s
    workers = [asyncio.create_task(send()), asyncio.create_task(receive())]
    try:
        done, pending = await asyncio.wait(
            workers, timeout=budget, return_when=asyncio.FIRST_EXCEPTION)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        errors = [task.exception() for task in done if task.exception() is not None]
        if pending or errors:
            result.error = f"submissions: {errors[0]!r}" if errors else "submissions: timeout"
        finished.set()
        result.wall_s = loop.time() - t0
        try:
            await asyncio.wait_for(follower, 10.0)
        except (OSError, ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError) as exc:
            result.error = result.error or f"stream: {exc!r}"
    finally:
        for task in (*workers, follower):
            task.cancel()
        for writer in writers:
            writer.close()
    unanswered = n - answered
    result.failed += unanswered
    result.latency_ms.extend([FAILED_LATENCY_MS] * unanswered)
    return result


async def quiesce(host: str, port: int, timeout: float = 5.0) -> dict:
    """Poll ``/stats`` until nothing is ready or deferred; return it."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        _status, body = await fetch(host, port, "GET", "/stats", 5.0)
        stats = json.loads(body)
        if (stats["ready_depth"] == 0 and stats["deferred_pending"] == 0) or loop.time() >= deadline:
            return stats
        await asyncio.sleep(0.02)
