"""The asyncio scheduler service: HTTP ingestion + real-time dispatch.

:class:`SchedulerService` wraps a :class:`~repro.svc.core.ServiceCore`
in a long-running asyncio loop:

* a stdlib HTTP/1.1 front-end (``asyncio.start_server`` — no external
  dependencies) accepts job submissions and serves the decision stream;
* a single executor task emulates the uniprocessor: it re-decides at
  every scheduling event (arrival, completion, deadline expiry — the
  paper's event model), then *sleeps* for the dispatched job's
  remaining execution time at the decided frequency, waking early when
  a new submission preempts the decision;
* time comes from a :class:`~repro.sim.clock.WallClock`, whose ``rate``
  compresses emulated seconds into wall seconds for load replay, and
  whose drift accounting surfaces in ``/stats``.

Endpoints (all JSON unless noted)::

    POST /jobs            {"task": name, "demand": Mcycles?}  -> verdict
    POST /jobs/batch      [submission, ...]                   -> [verdict, ...]
    GET  /events?since=N  decision stream as repro.obs JSONL (N >= 0)
    GET  /stats           lifecycle counters + clock drift
    GET  /healthz         liveness probe
    POST /shutdown        graceful stop

Accepted submissions return 200; shed/rejected ones return 429 with the
verdict body so clients can distinguish back-pressure from errors.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs import EventLog, events_to_jsonl
from ..sim.clock import Clock, WallClock
from .core import ServiceCore, UnknownTaskError, checked_demand

__all__ = ["SchedulerService"]

_MAX_BODY = 1 << 20


class SchedulerService:
    """One service instance: HTTP front-end + executor over a core."""

    def __init__(
        self,
        core: ServiceCore,
        clock: Optional[Clock] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.core = core
        self.clock = clock if clock is not None else WallClock()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[asyncio.Task] = None
        #: Set by submissions/completions to preempt the executor's wait.
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the executor task."""
        self.clock.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._executor = asyncio.create_task(self._run_executor())

    async def stop(self) -> None:
        """Stop accepting, cancel the executor, close the listener."""
        self._stopping.set()
        if self._executor is not None:
            self._executor.cancel()
            try:
                await self._executor
            except asyncio.CancelledError:
                pass
            self._executor = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_shutdown(self) -> None:
        """Run until ``POST /shutdown`` (or :meth:`stop`) is called."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self.stop()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Executor: the real-time dispatch loop
    # ------------------------------------------------------------------
    async def _run_executor(self) -> None:
        core, clock = self.core, self.clock
        while True:
            self._wake.clear()
            t = clock.now()
            decision = core.decide(t)
            job = decision.job
            if job is None:
                # Idle until a submission or the next timer (deferral
                # grant / termination deadline).
                timer = core.next_timer(t)
                timeout = clock.wall_remaining(timer) if timer is not None else None
                if timeout is not None and timeout <= 0.0:
                    continue
                await self._wait_for_wake(timeout)
                if timeout is not None:
                    clock.note_lag(timer)
                continue
            # Emulate execution: sleep until the predicted completion,
            # waking early if a new arrival preempts the decision.
            freq = decision.frequency
            start = clock.now()
            target = start + job.remaining_demand / freq
            woken = await self._wait_for_wake(max(0.0, clock.wall_remaining(target)))
            now = clock.now()
            core.advance(job, now - start, freq)
            if not woken:
                clock.note_lag(target)
            if not core.complete_if_done(job, now) and not woken:
                # Timer fired but demand remains (drift under-ran the
                # emulated cycles): loop and keep executing.
                continue

    #: Final stretch of a timed wait handled by cooperative spinning:
    #: ``asyncio.wait_for`` timeouts overshoot by one timer quantum
    #: (~1-3ms), which a rate-scaled clock multiplies into real
    #: deadline misses.  Spinning the loop for the last couple of
    #: milliseconds keeps waits punctual while staying preemptible.
    _SPIN_S = 0.002

    async def _wait_for_wake(self, timeout: Optional[float]) -> bool:
        """Wait for a wake signal; True when woken, False on timeout."""
        if timeout is None:
            await self._wake.wait()
            return True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        coarse = timeout - self._SPIN_S
        if coarse > 0.0:
            try:
                await asyncio.wait_for(self._wake.wait(), coarse)
                return True
            except asyncio.TimeoutError:
                pass
        while loop.time() < deadline:
            if self._wake.is_set():
                return True
            await asyncio.sleep(0)
        return self._wake.is_set()

    def _kick(self) -> None:
        self._wake.set()

    # ------------------------------------------------------------------
    # HTTP front-end (minimal HTTP/1.1, keep-alive)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    # The body's extent is unknown (or refused), so the
                    # stream cannot be resynchronised: answer and close.
                    status, message = exc.args
                    await _respond(writer, status, _json({"error": message}),
                                   "application/json", "close")
                    break
                if request is None:
                    break
                method, path, body = request
                status, payload = self._route(method, path, body)
                content_type = (
                    "application/x-ndjson" if path.startswith("/events")
                    else "application/json"
                )
                await _respond(writer, status, payload, content_type, "keep-alive")
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        """One request, or ``None`` at end of stream / on a garbled
        request line.  Raises :class:`_BadRequest` for a
        ``Content-Length`` that is not a non-negative integer (400) or
        exceeds ``_MAX_BODY`` (413)."""
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode("ascii").split()
        except ValueError:
            return None
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                value = value.strip()
                if not (value.isascii() and value.isdigit()):
                    raise _BadRequest("400 Bad Request", f"bad Content-Length {value!r}")
                length = int(value)
                if length > _MAX_BODY:
                    raise _BadRequest(
                        "413 Payload Too Large",
                        f"body of {length} bytes exceeds the {_MAX_BODY}-byte limit",
                    )
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    def _route(self, method: str, path: str, body: bytes) -> Tuple[str, bytes]:
        url = urlsplit(path)
        route = (method.upper(), url.path)
        if route == ("POST", "/jobs"):
            return self._submit_one(body)
        if route == ("POST", "/jobs/batch"):
            return self._submit_batch(body)
        if route == ("GET", "/events"):
            return self._events(url.query)
        if route == ("GET", "/stats"):
            return "200 OK", _json(self.describe())
        if route == ("GET", "/tasks"):
            return "200 OK", _json([
                {
                    "name": task.name,
                    "a": task.uam.max_arrivals,
                    "window": task.uam.window,
                    "allocation": task.allocation,
                    "critical_time": task.critical_time,
                }
                for task in self.core.taskset
            ])
        if route == ("GET", "/healthz"):
            return "200 OK", _json({"status": "ok"})
        if route == ("POST", "/shutdown"):
            self._stopping.set()
            self._kick()
            return "200 OK", _json({"status": "stopping"})
        return "404 Not Found", _json({"error": f"no route {method} {url.path}"})

    def _submit_one(self, body: bytes) -> Tuple[str, bytes]:
        try:
            task, demand = _job_spec(json.loads(body or b"{}"))
            outcome = self.core.submit(task, self.clock.now(), demand=demand)
        except UnknownTaskError as exc:
            return "400 Bad Request", _json({"error": f"unknown task {exc.args[0]!r}"})
        except ValueError as exc:
            return "400 Bad Request", _json({"error": str(exc)})
        self._kick()
        status = "200 OK" if outcome.accepted else "429 Too Many Requests"
        return status, _json(outcome.to_dict())

    def _submit_batch(self, body: bytes) -> Tuple[str, bytes]:
        """All or nothing for malformed elements: every element is
        shape-checked before any is submitted, so a 400 (naming the
        first bad index) leaves the service untouched.  An unknown task
        is a per-element ``"error"`` verdict."""
        try:
            specs = json.loads(body or b"[]")
        except ValueError as exc:
            return "400 Bad Request", _json({"error": str(exc)})
        if not isinstance(specs, list):
            return "400 Bad Request", _json({"error": "batch body must be a JSON array"})
        jobs = []
        for index, spec in enumerate(specs):
            try:
                jobs.append(_job_spec(spec))
            except ValueError as exc:
                return "400 Bad Request", _json(
                    {"error": f"batch element {index}: {exc}", "index": index}
                )
        verdicts = []
        for task, demand in jobs:
            try:
                verdicts.append(self.core.submit(task, self.clock.now(), demand=demand).to_dict())
            except UnknownTaskError as exc:
                verdicts.append({"status": "error", "reason": f"unknown task {exc.args[0]!r}"})
        self._kick()
        return "200 OK", _json(verdicts)

    def _events(self, query: str) -> Tuple[str, bytes]:
        since = 0
        params = parse_qs(query)
        if "since" in params:
            raw = params["since"][0]
            if not (raw.isascii() and raw.isdigit()):
                return "400 Bad Request", _json(
                    {"error": f"since must be a non-negative integer, got {raw!r}"}
                )
            since = int(raw)
        log = self.core.observer.events
        snapshot = EventLog()
        if log is not None:
            for event in log.events[since:]:
                snapshot.append(event)
        return "200 OK", events_to_jsonl(snapshot).encode()

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Stats payload: core counters + clock drift + clock time."""
        out = self.core.stats()
        out["clock_now"] = self.clock.now()
        out["clock_rate"] = getattr(self.clock, "rate", 1.0)
        out["drift"] = self.clock.drift.summary()
        return out


def _job_spec(spec: object) -> Tuple[str, Optional[float]]:
    """``(task, demand)`` of one submission: a JSON object with a string
    ``"task"`` and an optional ``"demand"`` (see
    :func:`~repro.svc.core.checked_demand`)."""
    if not isinstance(spec, dict):
        raise ValueError(f"a submission must be a JSON object, got {spec!r}")
    task = spec.get("task")
    if not isinstance(task, str):
        raise ValueError(f"a submission needs a string 'task', got {task!r}")
    return task, checked_demand(spec.get("demand"))


class _BadRequest(Exception):
    """``(status, message)``: answer with ``status``, then close."""


async def _respond(writer, status: str, payload: bytes, content_type: str,
                   connection: str) -> None:
    writer.write(
        (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        ).encode() + payload
    )
    await writer.drain()


def _json(payload: object) -> bytes:
    return json.dumps(payload).encode()
