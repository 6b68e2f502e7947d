"""SchedulerService loopback tests: HTTP ingestion, the JSONL decision
stream, lifecycle, and a small end-to-end load replay.

Everything runs against an in-process service on an ephemeral loopback
port; tests are plain sync functions wrapping ``asyncio.run`` (no
pytest-asyncio dependency).
"""

import asyncio
import json

import numpy as np
import pytest

from repro.experiments import synthesize_taskset
from repro.obs import EventKind, events_from_jsonl
from repro.sim import WallClock
from repro.svc import (
    SchedulerService,
    ServiceCore,
    build_schedule,
    run_load_test,
    write_loadtest_artifact,
)
from repro.svc.loadgen import _Connection


def _taskset():
    return synthesize_taskset(0.8, np.random.default_rng(11))


async def _with_service(scenario, rate: float = 50.0):
    """Start a service on an ephemeral port, run ``scenario(service,
    conn)`` against it over one persistent connection, always stop."""
    service = SchedulerService(ServiceCore(_taskset()),
                               clock=WallClock(rate=rate))
    await service.start()
    conn = _Connection(service.host, service.port)
    try:
        await conn.open()
        return await scenario(service, conn)
    finally:
        await conn.close()
        await service.stop()


def test_ephemeral_port_and_healthz():
    async def scenario(service, conn):
        assert service.port != 0
        assert service.address == f"http://127.0.0.1:{service.port}"
        status, body = await conn.request("GET", "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    asyncio.run(_with_service(scenario))


def test_submit_accept_and_reject_statuses():
    async def scenario(service, conn):
        name = service.core.taskset[0].name
        status, body = await conn.request("POST", "/jobs", {"task": name})
        assert status == 200
        verdict = json.loads(body)
        assert verdict["status"] == "admitted"
        assert "job" in verdict
        # Burst the same task past its envelope: shed -> 429.
        saw_backpressure = False
        for _ in range(service.core.taskset[0].uam.max_arrivals + 2):
            status, body = await conn.request("POST", "/jobs", {"task": name})
            if status == 429:
                saw_backpressure = True
                assert json.loads(body)["status"] in ("shed", "rejected")
        assert saw_backpressure

    asyncio.run(_with_service(scenario))


def test_bad_submissions_are_400():
    async def scenario(service, conn):
        status, body = await conn.request("POST", "/jobs", {"task": "nope"})
        assert status == 400
        assert "unknown task" in json.loads(body)["error"]
        status, _ = await conn.request("POST", "/jobs", {"demand": 1.0})
        assert status == 400
        status, _ = await conn.request("GET", "/no/such/route")
        assert status == 404

    asyncio.run(_with_service(scenario))


def _verdict_sum(stats):
    return stats["admitted"] + stats["deferred"] + stats["shed_uam"] + stats["rejected"]


@pytest.mark.parametrize("demand", [-5, 0, "nan", "abc", [1]])
def test_bad_demand_is_400_and_leaves_the_envelope_alone(demand):
    async def scenario(service, conn):
        name = service.core.taskset[0].name
        status, body = await conn.request("POST", "/jobs", {"task": name, "demand": demand})
        assert status == 400
        assert "demand" in json.loads(body)["error"]
        _, body = await conn.request("GET", "/stats")
        stats = json.loads(body)
        assert stats["submitted"] == 0
        assert stats["uam_violations"] == 0
        # The next valid submission of that task is not shed.
        status, body = await conn.request("POST", "/jobs", {"task": name})
        assert json.loads(body)["status"] != "shed"
        _, body = await conn.request("GET", "/stats")
        stats = json.loads(body)
        assert stats["submitted"] == 1 == _verdict_sum(stats)

    asyncio.run(_with_service(scenario))


@pytest.mark.parametrize("bad", [{"demand": 1.0}, {"task": "T", "demand": -1}, "T", None,
                                 {"task": 3}])
def test_malformed_batch_is_rejected_whole(bad):
    async def scenario(service, conn):
        _, before = await conn.request("GET", "/stats")
        names = [task.name for task in service.core.taskset[:2]]
        batch = [{"task": n} for n in names] + [bad, {"task": names[0]}]
        status, body = await conn.request("POST", "/jobs/batch", batch)
        assert status == 400
        error = json.loads(body)
        assert error["index"] == 2
        assert "element 2" in error["error"]
        _, after = await conn.request("GET", "/stats")
        before, after = json.loads(before), json.loads(after)
        for volatile in ("clock_now", "drift"):
            before.pop(volatile)
            after.pop(volatile)
        assert after == before
        assert after["submitted"] == 0

    asyncio.run(_with_service(scenario))


def test_batch_submission_returns_per_job_verdicts():
    async def scenario(service, conn):
        names = [task.name for task in service.core.taskset[:3]]
        batch = [{"task": n} for n in names] + [{"task": "bogus"}]
        status, body = await conn.request("POST", "/jobs/batch", batch)
        assert status == 200
        verdicts = json.loads(body)
        assert len(verdicts) == len(batch)
        assert all(v["status"] in ("admitted", "deferred", "shed",
                                   "rejected", "error") for v in verdicts)
        assert verdicts[-1]["status"] == "error"

    asyncio.run(_with_service(scenario))


def test_tasks_endpoint_lists_hosted_envelopes():
    async def scenario(service, conn):
        status, body = await conn.request("GET", "/tasks")
        assert status == 200
        listed = json.loads(body)
        assert len(listed) == len(service.core.taskset)
        for entry, task in zip(listed, service.core.taskset):
            assert entry["name"] == task.name
            assert entry["a"] == task.uam.max_arrivals
            assert entry["window"] == pytest.approx(task.uam.window)

    asyncio.run(_with_service(scenario))


def test_event_stream_is_wellformed_jsonl():
    async def scenario(service, conn):
        names = [task.name for task in service.core.taskset[:4]]
        await conn.request("POST", "/jobs/batch", [{"task": n} for n in names])
        await asyncio.sleep(0.05)  # let the executor dispatch
        status, body = await conn.request("GET", "/events")
        assert status == 200
        log = events_from_jsonl(body.decode())
        kinds = {event.kind for event in log.events}
        assert EventKind.ADMISSION_DECISION in kinds
        assert EventKind.RELEASE in kinds
        # Ingestion events are stamped "svc"; scheduler-internal events
        # (freq decisions, ...) carry the scheduler's own name.
        sources = {event.source for event in log.events}
        assert "svc" in sources
        assert all(event.source for event in log.events)
        # Pagination: `since` skips the prefix.
        n = len(log.events)
        status, body = await conn.request("GET", f"/events?since={n}")
        assert status == 200
        assert len(events_from_jsonl(body.decode()).events) <= n

    asyncio.run(_with_service(scenario))


def test_stats_reports_counters_and_drift():
    async def scenario(service, conn):
        name = service.core.taskset[0].name
        await conn.request("POST", "/jobs", {"task": name})
        status, body = await conn.request("GET", "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["submitted"] == 1
        assert stats["clock_rate"] == service.clock.rate
        assert set(stats["drift"]) == {
            "waits", "punctual", "mean_lag_s", "max_lag_s", "total_lag_s"
        }

    asyncio.run(_with_service(scenario))


def test_submitted_job_runs_to_completion():
    async def scenario(service, conn):
        name = service.core.taskset[0].name
        await conn.request("POST", "/jobs", {"task": name})
        for _ in range(100):
            _, body = await conn.request("GET", "/stats")
            stats = json.loads(body)
            if stats["completed"] or stats["expired"]:
                break
            await asyncio.sleep(0.02)
        assert stats["completed"] == 1
        assert stats["ready_depth"] == 0
        log_status, log_body = await conn.request("GET", "/events")
        kinds = [e.kind for e in events_from_jsonl(log_body.decode()).events]
        assert EventKind.DISPATCH in kinds
        assert EventKind.COMPLETE in kinds

    asyncio.run(_with_service(scenario, rate=100.0))


def test_shutdown_endpoint_stops_serve_until_shutdown():
    async def scenario():
        service = SchedulerService(ServiceCore(_taskset()))
        await service.start()
        server_task = asyncio.create_task(service.serve_until_shutdown())
        conn = _Connection(service.host, service.port)
        await conn.open()
        status, body = await conn.request("POST", "/shutdown")
        assert status == 200
        assert json.loads(body) == {"status": "stopping"}
        await asyncio.wait_for(server_task, timeout=5.0)
        await conn.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Malformed requests (raw bytes on a fresh connection)
# ----------------------------------------------------------------------
async def _raw_exchange(service, request: bytes, timeout: float = 5.0) -> bytes:
    """Send ``request`` verbatim and return everything the server sends
    until it closes the connection."""
    reader, writer = await asyncio.open_connection(service.host, service.port)
    try:
        writer.write(request)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()


def _with_raw_service(scenario):
    async def run():
        service = SchedulerService(ServiceCore(_taskset()), clock=WallClock(rate=50.0))
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.stop()

    return asyncio.run(run())


@pytest.mark.parametrize("length", ["abc", "-5", "1e3", "+7"])
def test_bad_content_length_gets_400_and_close(length):
    async def scenario(service):
        reply = await _raw_exchange(
            service,
            f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode(),
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in reply
        assert b"Content-Length" in reply.split(b"\r\n\r\n", 1)[1]

    _with_raw_service(scenario)


def test_oversize_body_gets_413_and_close():
    from repro.svc.service import _MAX_BODY

    async def scenario(service):
        # Announce a body past the limit, followed (as the would-be
        # remainder) by a well-formed second request: the server must
        # refuse before reading the body and never answer the smuggled
        # request.
        smuggled = b"GET /healthz HTTP/1.1\r\n\r\n"
        head = (
            f"POST /jobs HTTP/1.1\r\n"
            f"Content-Length: {_MAX_BODY + len(smuggled)}\r\n\r\n"
        ).encode()
        reply = await _raw_exchange(service, head)
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in reply

    _with_raw_service(scenario)


def test_body_at_the_limit_is_read_without_desync():
    from repro.svc.service import _MAX_BODY

    async def read_status(reader):
        status = (await reader.readline()).split()[1]
        length = 0
        while (header := await reader.readline()) not in (b"\r\n", b""):
            name, _, value = header.decode("latin-1").partition(":")
            if name.lower() == "content-length":
                length = int(value)
        await reader.readexactly(length)
        return int(status)

    async def scenario(service):
        body = b" " * (_MAX_BODY - 2) + b"{}"
        reader, writer = await asyncio.open_connection(service.host, service.port)
        try:
            writer.write(
                f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode()
                + body
                + b"GET /healthz HTTP/1.1\r\n\r\n"
            )
            await writer.drain()
            # One answer per request, in order, on the kept-alive stream.
            assert await asyncio.wait_for(read_status(reader), 5.0) == 400
            assert await asyncio.wait_for(read_status(reader), 5.0) == 200
        finally:
            writer.close()

    _with_raw_service(scenario)


@pytest.mark.parametrize("since", ["-3", "abc", "1.5"])
def test_events_rejects_bad_since(since):
    async def scenario(service, conn):
        name = service.core.taskset[0].name
        await conn.request("POST", "/jobs", {"task": name})
        status, body = await conn.request("GET", f"/events?since={since}")
        assert status == 400
        assert "since" in json.loads(body)["error"]
        # The connection stays usable and a valid cursor still works.
        status, _ = await conn.request("GET", "/events?since=0")
        assert status == 200

    asyncio.run(_with_service(scenario))


# ----------------------------------------------------------------------
# Load-replay harness
# ----------------------------------------------------------------------
def test_build_schedule_is_deterministic():
    taskset = _taskset()
    a = build_schedule(taskset, "poisson", horizon=1.0, seed=7)
    b = build_schedule(taskset, "poisson", horizon=1.0, seed=7)
    assert a == b
    assert a == sorted(a)
    assert {name for _t, name in a} <= {task.name for task in taskset}
    assert build_schedule(taskset, "poisson", horizon=1.0, seed=8) != a


def test_small_load_replay_end_to_end(tmp_path):
    report = asyncio.run(run_load_test(
        load=0.8, seed=11, horizon=0.5, shape="poisson",
        rate=25.0, connections=2,
    ))
    assert report.errors == 0
    assert report.submitted > 0
    assert report.accepted + report.backpressured == report.submitted
    assert 0.0 <= report.shed_rate <= 1.0
    assert 0.0 <= report.deadline_hit_rate <= 1.0
    assert report.jobs_per_s > 0
    text = report.render()
    assert "jobs/s sustained" in text and "deadline-hit rate" in text

    path = write_loadtest_artifact(report, name="svc_test", directory=str(tmp_path))
    payload = json.loads(path.read_text())
    assert payload["name"] == "svc_test"
    assert set(payload["metrics"]) == set(payload["directions"])
    assert payload["directions"]["svc_shed_rate"] == "lower"
    assert payload["directions"]["svc_jobs_per_s"] == "higher"
    assert payload["meta"]["submitted"] == report.submitted
