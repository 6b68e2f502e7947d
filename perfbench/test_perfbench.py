"""Self-tests for the benchmark's helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

import client
from common import ROOT, interpolate_capacity, percentile, tail_percentile
from run import END_TO_END, LIMIT_MS
from tracer import Tracer, layer_metrics


# -- the percentile rule -------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank_and_refuses_thin_tails():
    samples = [float(i) for i in range(1, 1001)]
    assert percentile(samples, 99.0) == 990.0  # ten samples above it
    assert percentile(samples, 50.0) == 500.0
    with pytest.raises(ValueError):
        percentile(samples[:999], 99.0)
    with pytest.raises(ValueError):
        percentile([], 50.0)


# -- self time on nested intervals ---------------------------------------
def test_self_time_subtracts_what_children_cover():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.2, 4.7, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    noop = lambda: None  # noqa: E731

    def inner2():
        tracer.call("leaf", noop, (), {}, False)

    def outer():
        tracer.call("inner", noop, (), {}, False)    # 1 → 3
        tracer.call("inner", inner2, (), {}, False)  # 4 → 5, leaf 4.2 → 4.7

    tracer.call("outer", outer, (), {}, True)        # 0 → 10
    assert tracer.get("outer").total_s == 10.0
    assert tracer.get("outer").self_s == pytest.approx(7.0)
    assert tracer.get("inner").count == 2
    assert tracer.get("inner").total_s == pytest.approx(3.0)
    assert tracer.get("inner").self_s == pytest.approx(2.5)
    assert tracer.get("leaf").self_s == pytest.approx(0.5)
    assert tracer.calls_from("inner", "outer") == 2
    assert tracer.calls_from("leaf", "inner") == 1
    assert tracer.get("outer").samples == [10.0]


def test_reentrant_call_folds_into_outer_span_and_failures_count():
    ticks = iter([0.0, 2.0, 3.0, 4.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.call("gen", lambda: tracer.call("gen", lambda: None, (), {}, False), (), {}, False)
    assert tracer.get("gen").count == 1 and tracer.get("gen").total_s == 2.0

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("gen", boom, (), {}, False)
    assert tracer.get("gen").failed == 1 and tracer.get("gen").count == 2


# -- capacity interpolation ----------------------------------------------
def test_capacity_interpolates_on_p99_between_pass_and_fail():
    steps = [(200.0, 10.0, True), (100.0, 5.0, True), (300.0, 30.0, True)]
    assert interpolate_capacity(steps, 20.0) == pytest.approx(250.0)


def test_capacity_edges():
    # No step fails: the highest rate is a lower bound.
    assert interpolate_capacity([(100.0, 5.0, True), (200.0, 9.0, True)], 20.0) == 200.0
    # A step failing on failed submissions or lateness, not p99: last pass.
    assert interpolate_capacity([(100.0, 5.0, True), (200.0, 9.0, False)], 20.0) == 100.0
    # The first step already breaks the limit: scale it down.
    assert interpolate_capacity([(100.0, 40.0, True)], 20.0) == pytest.approx(50.0)
    # Only the order of rates counts: the first failing rate ends the search.
    steps = [(300.0, 5.0, True), (100.0, 5.0, True), (200.0, 40.0, True)]
    assert interpolate_capacity(steps, 20.0) == pytest.approx(100.0 + 100.0 * 15.0 / 35.0)


# -- failure accounting --------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_refused_connection_fails_every_submission_and_misses_the_limit():
    schedule = [(0.001 * i, "T") for i in range(5)]
    result = asyncio.run(client.run_step("127.0.0.1", _free_port(), schedule))
    assert result.attempted == 5 and result.failed == 5
    assert all(ms > LIMIT_MS for ms in result.latency_ms)
    assert result.error and "connect" in result.error


async def _replay_against(status_line: str, verdict: str, n: int):
    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            path = line.split()[1]
            length = 0
            while (header := await reader.readline()) not in (b"\r\n", b""):
                if header.lower().startswith(b"content-length"):
                    length = int(header.split(b":")[1])
            await reader.readexactly(length)
            body = b"" if path.startswith(b"/events") else json.dumps({"status": verdict}).encode()
            head = status_line if not path.startswith(b"/events") else "200 OK"
            writer.write(f"HTTP/1.1 {head}\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body)
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        return await client.run_step("127.0.0.1", port, [(0.001 * i, "T") for i in range(n)])
    finally:
        server.close()
        await server.wait_closed()


def test_429_is_an_answer_timed_like_a_200():
    result = asyncio.run(_replay_against("429 Too Many Requests", "shed", 20))
    assert result.failed == 0 and result.refused == 20 and result.accepted == 0
    assert result.verdicts == {"shed": 20}
    assert max(result.latency_ms) < client.FAILED_LATENCY_MS
    assert result.poll_ms and result.error is None


def test_other_statuses_fail():
    result = asyncio.run(_replay_against("500 Internal Server Error", "?", 10))
    assert result.failed == 10 and result.refused == result.accepted == 0
    assert all(ms == client.FAILED_LATENCY_MS for ms in result.latency_ms)


# -- the benchmark description -------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, *_rest) in END_TO_END.items()}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(layer_metrics(Tracer())) <= per_layer
    assert len(per_layer) == len(spec["per_layer"])
