"""The repository benchmark: campaigns and the wall-clock service.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-overload --seed 11 --seconds 25 --trace 0

``--workload`` is one of :data:`WORKLOADS`, or ``all`` to run the three
one after another.  ``--seed`` makes every input; ``--seconds`` is how
long the workload measures; ``--trace 1`` runs the traced variant,
which reports per-layer metrics and the tracing overhead instead of the
end-to-end metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable report.  The exit code is non-zero when an
output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import random
import select
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import client
from common import (
    HERE,
    ROOT,
    finish,
    interpolate_capacity,
    median,
    metric,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    spawn,
    describe_tail,
    use_repro_source,
)

WORKLOADS = ("campaign-overload", "campaign-global", "svc-stream")
#: The seed the committed expected campaign records were made with.
DEFAULT_SEED = 11
#: Campaign processes per run; ``setup_s`` is their median.
CAMPAIGN_PROCESSES = 5

#: Service clock factors of the two fixed steps.
FIXED_RATES = (5.0, 10.0)
#: Capacity search above the fixed steps: clock factors double up to
#: the first failing step, then bisect until the bracket is this narrow.
LADDER_RESOLUTION = 1.2
LADDER_MAX_RATE = 640.0
#: A search step lasts this share of ``--seconds``.
LADDER_FRACTION = 0.06
#: Every step lasts long enough for at least this many submissions, so
#: its p99 has more than ten samples beyond it.
STEP_SUBMISSIONS = 1200
#: The verdict-latency limit the capacity is defined by (p99).
LIMIT_MS = 20.0
#: Client lateness may grow this much across a step before the step fails.
LATE_GROWTH_LIMIT_MS = 5.0

#: Units of the named report, each metric printed by the workloads it
#: applies to.
NAMED_UNITS = {
    "setup_s": "s",
    "reps_per_s": "reps/s",
    "peak_rss_mb": "MiB",
    "verdict_p50_ms.x5": "ms",
    "verdict_p99_ms.x5": "ms",
    "verdict_p50_ms.x10": "ms",
    "verdict_p99_ms.x10": "ms",
    "max_rate_jobs_per_s": "jobs/s",
    "deadline_hit_share.x10": "share",
    "shed_share.x10": "share",
    "stream_p90_ms.x10": "ms",
}

#: The gated metrics (``BENCHMARK.json`` ``end_to_end``): every workload
#: reports each of them.  ``name → (unit, campaign source, service
#: source)``, the sources being keys of the workload's measurements.
END_TO_END = {
    "setup_s": ("s", "setup_s", "setup_s"),
    "peak_rss_mb": ("MiB", "peak_rss_mb", "peak_rss_mb"),
    "throughput_per_s": ("1/s", "reps_per_s", "jobs_per_cpu_s.x5"),
    "latency_p50_ms": ("ms", "replication_p50_ms", "verdict_p50_ms.x5"),
    "utility_share": ("share", "utility_share", "utility_share.x5"),
}


class Run:
    """Accumulates one run's checks and counts."""

    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            self.notes.append(f"CHECK FAILED: {what}")

    def note(self, text: str) -> None:
        self.notes.append(text)


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------
def _campaign_process(workload: str, seed: int, seconds: float, trace: bool, run: Run) -> dict:
    spawned_at = time.monotonic()
    proc = spawn("campaign_child.py", workload, str(seed), repr(seconds), repr(spawned_at),
                 "1" if trace else "0")
    try:
        line = _read_line(proc, seconds + 150.0)
    finally:
        if finish(proc, 10.0):
            run.note("campaign process did not exit and was killed")
    if line is None:
        raise RuntimeError(f"campaign process gave no result (exit {proc.returncode})")
    out = json.loads(line)
    run.attempted += out["attempted"]
    run.failed += out["failed"]
    if "error" in out:
        run.check(False, f"campaign raised {out['error']}")
    return out


def _check_records(workload: str, seed: int, records: List[dict], run: Run) -> None:
    run.check(bool(records), "no campaign completed")
    run.check(all(r == records[0] for r in records),
              "repeated campaigns (traced or not) gave different aggregates")
    if seed == DEFAULT_SEED and records:
        expected = json.loads((HERE / "expected" / f"{workload}.json").read_text())
        run.check(records[0] == expected,
                  f"aggregates differ from perfbench/expected/{workload}.json")


def campaign_run(workload: str, seed: int, seconds: float, run: Run) -> Dict[str, float]:
    outs = [_campaign_process(workload, seed, seconds / CAMPAIGN_PROCESSES, False, run)
            for _ in range(CAMPAIGN_PROCESSES)]
    _check_records(workload, seed, [r for o in outs for r in o["records"]], run)
    reps = outs[0]["replications"]
    rates = [reps / s for o in outs for s in o["campaign_s"]]
    rep_ms = [s * 1e3 for o in outs for s in o["replication_s"]]
    run.note(f"{len(rates)} campaigns of {reps} replications; replication ms "
             + describe_tail(rep_ms))
    record = outs[0]["records"][0]
    (sched,) = record
    return {
        "setup_s": median([o["setup_s"] for o in outs]),
        "peak_rss_mb": median([o["peak_rss_mb"] for o in outs]),
        "reps_per_s": median(rates),
        "replication_p50_ms": percentile(rep_ms, 50.0),
        "utility_share": record[sched]["normalized_utility_mean"],
    }


def campaign_trace(workload: str, seed: int, seconds: float, run: Run) -> Dict[str, float]:
    out = _campaign_process(workload, seed, seconds, True, run)
    _check_records(workload, seed, out["records"], run)
    layers = dict(out["layers"])
    layers["trace.overhead"] = median(out["traced_s"]) / median(out["campaign_s"]) - 1.0
    return layers


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
class Server:
    """A ``server_child.py`` process, from launch to teardown."""

    def __init__(self, rate: float, trace: bool):
        start = time.monotonic()
        self.proc = spawn("server_child.py", repr(rate), "1" if trace else "0")
        try:
            line = _read_line(self.proc, 60.0)
            if line is None:
                raise RuntimeError("server did not start")
            hello = json.loads(line)
            self.port = hello["port"]
            self.max_utility: Dict[str, float] = hello["max_utility"]
            while _get_status(self.port, "/healthz") != 200:
                if time.monotonic() - start > 60.0:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.005)
        except BaseException:
            finish(self.proc, 0.0)
            raise
        self.setup_s = time.monotonic() - start
        self.cpu_at_start = proc_cpu_s(self.proc.pid)

    def tasks(self) -> List[dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/tasks")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self, run: Run) -> Tuple[Optional[dict], float, float]:
        """Shut down; returns (final line, peak RSS MiB, CPU s since healthy).
        A server still alive 10 s after ``POST /shutdown`` is killed."""
        rss = proc_peak_rss_mb(self.proc.pid)
        cpu = proc_cpu_s(self.proc.pid) - self.cpu_at_start
        final = None
        try:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            conn.request("POST", "/shutdown")
            conn.getresponse().read()
            conn.close()
            line = _read_line(self.proc, 10.0)
            final = json.loads(line) if line else None
        except OSError as exc:
            run.note(f"shutdown request failed: {exc!r}")
        if finish(self.proc, 10.0):
            run.note("server was still alive 10 s after POST /shutdown and was killed")
        return final, rss, cpu


def _read_line(proc, timeout: float) -> Optional[str]:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        return None
    line = proc.stdout.readline()
    return line if line.strip() else None


def _get_status(port: int, path: str) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", path)
        status = conn.getresponse().status
        return status
    except OSError:
        return 0
    finally:
        conn.close()


def poisson_schedule(tasks: List[dict], rate: float, wall_s: float, rng: random.Random):
    """Per-task Poisson arrivals at the task's mean UAM rate ``a / P``,
    thinned greedily to its ``⟨a, P⟩`` envelope (an arrival is kept when
    fewer than ``a`` kept arrivals lie in the window before it), over
    ``rate · wall_s`` clock seconds, merged and mapped to wall offsets.
    The service stamps arrivals with its own clock, so network and
    scheduling jitter can still push one past the envelope."""
    horizon = rate * wall_s
    out = []
    for task in tasks:
        a, window = task["a"], task["window"]
        kept: List[float] = []
        t = rng.expovariate(a / window)
        while t < horizon:
            if len(kept) < a or t - kept[-a] >= window:
                kept.append(t)
            t += rng.expovariate(a / window)
        out.extend((k / rate, task["name"]) for k in kept)
    out.sort()
    return out


def svc_step(seed: int, rate: float, wall_s: float, trace: bool, run: Run,
             min_submissions: int = STEP_SUBMISSIONS) -> dict:
    """One server at clock factor ``rate``, one replayed schedule of at
    least ``wall_s`` seconds and ``min_submissions`` submissions."""
    server = Server(rate, trace)
    try:
        tasks = server.tasks()
        while True:
            schedule = poisson_schedule(tasks, rate, wall_s, random.Random(f"{seed}/{rate}"))
            if len(schedule) >= min_submissions:
                break
            wall_s *= 1.25
        step = client.run(client.run_step("127.0.0.1", server.port, schedule))
        stats = client.run(client.quiesce("127.0.0.1", server.port))
    finally:
        final, rss, cpu = server.close(run)
    run.attempted += step.attempted
    run.failed += step.failed
    if step.error:
        run.note(f"x{rate:g}: {step.error}")
    counters = {k: stats[k] for k in ("admitted", "deferred", "shed_uam", "rejected")}
    run.check(sum(counters.values()) == stats["submitted"],
              f"x{rate:g}: admitted+deferred+shed_uam+rejected != submitted ({stats})")
    if step.failed == 0:
        tallies = {"admitted": step.verdicts.get("admitted", 0),
                   "deferred": step.verdicts.get("deferred", 0),
                   "shed_uam": step.verdicts.get("shed", 0),
                   "rejected": step.verdicts.get("rejected", 0)}
        run.check(tallies == counters and stats["submitted"] == step.attempted,
                  f"x{rate:g}: client tallies {tallies} != /stats {counters}")
    offered = step.attempted / schedule[-1][0]
    max_utility = sum(server.max_utility[name] for _, name in schedule)
    p99 = percentile(step.latency_ms, 99.0)
    ok = step.failed == 0 and step.late_growth_ms() <= LATE_GROWTH_LIMIT_MS
    run.note(f"x{rate:g}: {offered:.0f}/s offered, verdict ms {describe_tail(step.latency_ms)}, "
             f"failed {step.failed}, late growth {step.late_growth_ms():.2f} ms, "
             f"{'pass' if ok and p99 <= LIMIT_MS else 'FAIL'}")
    return {
        "rate": rate, "offered": offered, "p99": p99, "ok": ok, "step": step,
        "stats": stats, "final": final, "rss": rss, "cpu": cpu, "setup_s": server.setup_s,
        "p50": percentile(step.latency_ms, 50.0),
        "utility_share": stats["utility_accrued"] / max_utility,
    }


def _passes(step: dict) -> bool:
    return step["ok"] and step["p99"] <= LIMIT_MS


def svc_run(seed: int, seconds: float, run: Run) -> Dict[str, float]:
    x5 = svc_step(seed, FIXED_RATES[0], 0.4 * seconds, False, run, 2 * STEP_SUBMISSIONS)
    x10 = svc_step(seed, FIXED_RATES[1], 0.2 * seconds, False, run, 2 * STEP_SUBMISSIONS)
    steps = [x5, x10]

    def probe(rate: float) -> bool:
        steps.append(svc_step(seed, rate, LADDER_FRACTION * seconds, False, run))
        return _passes(steps[-1])

    # Double the clock factor until a step fails, then bisect (in log
    # space) between the last pass and the first failure.
    lo = hi = None
    for step in (x5, x10):
        if not _passes(step):
            hi = step["rate"]
            break
        lo = step["rate"]
    while lo is not None and hi is None and lo < LADDER_MAX_RATE:
        if probe(2.0 * lo):
            lo *= 2.0
        else:
            hi = 2.0 * lo
    while lo is not None and hi is not None and hi / lo > LADDER_RESOLUTION:
        mid = math.sqrt(lo * hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    step10 = x10["step"]
    return {
        "setup_s": median([s["setup_s"] for s in steps]),
        "peak_rss_mb": x5["rss"],
        "verdict_p50_ms.x5": x5["p50"],
        "verdict_p99_ms.x5": x5["p99"],
        "verdict_p50_ms.x10": x10["p50"],
        "verdict_p99_ms.x10": x10["p99"],
        "max_rate_jobs_per_s": interpolate_capacity(
            [(s["offered"], s["p99"], s["ok"]) for s in steps], LIMIT_MS),
        "deadline_hit_share.x10": x10["stats"]["deadline_hits"] / max(1, x10["stats"]["admitted"]),
        "shed_share.x10": step10.refused / step10.attempted,
        "stream_p90_ms.x10": percentile(step10.poll_ms, 90.0),
        "utility_share.x5": x5["utility_share"],
        "jobs_per_cpu_s.x5": x5["step"].attempted / x5["cpu"],
    }


def svc_trace(seed: int, seconds: float, run: Run) -> Dict[str, float]:
    wall_s = 0.4 * seconds
    plain = svc_step(seed, FIXED_RATES[-1], wall_s, False, run)
    traced = svc_step(seed, FIXED_RATES[-1], wall_s, True, run)
    step, stats, final = traced["step"], traced["stats"], traced["final"]
    run.check(final is not None and "layers" in final, "traced server reported no layers")
    layers = dict(final["layers"]) if final else {}
    drift = stats["drift"]
    layers.update({
        "svc_core.evicted": stats["evicted"],
        "obs.events_per_submit": stats["events"] / max(1, stats["submitted"]),
        "obs.events_retained": stats["events"],
        "http.rtt_us.p50": percentile(step.rtt_ms, 50.0) * 1e3,
        "http.self_us.p50": percentile(step.rtt_ms, 50.0) * 1e3
        - layers.get("svc_core.submit_us.p50", 0.0),
        "svc.server_cpu_share": traced["cpu"] / step.wall_s,
        "svc.lag_ms.mean": drift["mean_lag_s"] * 1e3,
        "svc.lag_ms.max": drift["max_lag_s"] * 1e3,
        "stream.polls": len(step.poll_ms),
        "stream.bytes_per_poll": step.poll_bytes / max(1, len(step.poll_ms)),
        "client.sent": step.sent,
        "client.failed": step.failed,
        "client.late_p99_ms": percentile(step.late_ms, 99.0),
        "trace.overhead": (traced["cpu"] / traced["step"].attempted)
        / (plain["cpu"] / plain["step"].attempted) - 1.0,
    })
    return layers


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def per_layer_units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, run: Run):
    """Returns (named metrics, gated metrics) — or per-layer metrics."""
    if trace:
        if workload == "svc-stream":
            layers = svc_trace(seed, seconds, run)
        else:
            layers = campaign_trace(workload, seed, seconds, run)
        units = per_layer_units()
        return None, {name: metric(layers.get(name, 0.0), unit) for name, unit in units.items()}
    if workload == "svc-stream":
        named = svc_run(seed, seconds, run)
    else:
        named = campaign_run(workload, seed, seconds, run)
    column = 2 if workload == "svc-stream" else 1
    gated = {name: metric(named[spec[column]], spec[0]) for name, spec in END_TO_END.items()}
    return named, gated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_repro_source()

    run = Run()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: Dict[str, dict] = {}
    for workload in workloads:
        try:
            named, values = run_workload(workload, args.seed, args.seconds, bool(args.trace), run)
        except Exception as exc:  # report the failure; ``all`` goes on
            traceback.print_exc()
            run.check(False, f"{workload}: {type(exc).__name__}: {exc}")
            continue
        for note in run.notes:
            print(f"[{workload}] {note}")
        run.notes.clear()
        for name, value in (named or {}).items():
            if name in NAMED_UNITS:
                print(f"[{workload}] {name:24s} {value:12.6g} {NAMED_UNITS[name]}")
        if args.workload != "all":
            metrics = values
        elif named is None:
            metrics.update({f"{workload}/{name}": v for name, v in values.items()})
        else:
            metrics.update({f"{workload}/{name}": metric(v, NAMED_UNITS[name])
                            for name, v in named.items() if name in NAMED_UNITS})
    for note in run.notes:
        print(note)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct and run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
