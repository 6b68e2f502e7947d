"""Wall-clock benchmark: Monte-Carlo campaign throughput + cache resume.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_stats_throughput.py

Three claims are measured:

1. **Replication speedup** — a campaign at ``workers=4`` must finish in
   at most half the serial wall-clock time (>= 2x).  Gated on the host
   exposing >= 4 usable CPUs (a 1-core container can only demonstrate
   pool overhead); the aggregates must be bit-identical either way.
   The serial time, which also feeds the absolute
   ``stats_reps_per_second_serial`` floor, is the median of
   ``SERIAL_SAMPLES`` campaigns after one untimed warm-up (perfbench's
   estimator), never a single cold sample.

2. **Cache resume** — re-running the campaign against a warm
   content-addressed cache must perform **zero** simulations (asserted
   unconditionally) and reproduce the cold aggregates bit-for-bit.

3. **Deterministic aggregates** — the campaign's headline means are
   emitted to the BENCH artifact and gated against the committed
   baseline: a scheduler-fidelity regression moves them and trips the
   gate even when wall-clock noise hides it.

4. **Phase breakdown** — a span-traced pass attributes the parallel
   campaign's wall-clock to serialisation vs. simulate vs. fold (plus
   worker busy time) and emits the split as ``phase_*`` metrics, so the
   artifact shows *where* a throughput regression happened, not just
   that one did.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from statistics import median

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _artifacts import write_bench_artifact  # noqa: E402
from repro.experiments.parallel import speedup_gate, usable_cpus  # noqa: E402
from repro.obs import Telemetry, build_phase_report  # noqa: E402
from repro.stats import CampaignConfig, RunCache, run_campaign  # noqa: E402

WORKERS = 4
N_REPLICATIONS = int(os.environ.get("REPRO_BENCH_STATS_N", "64"))
LOAD = 0.8
# Long enough that each replication does real scheduling work; short
# enough that the serial pass stays in CI budget.
HORIZON = float(os.environ.get("REPRO_BENCH_STATS_HORIZON", "1.0"))
#: Timed serial campaigns after the warm-up; their median is the
#: serial time.
SERIAL_SAMPLES = 3

CONFIG = CampaignConfig(
    load=LOAD,
    horizon=HORIZON,
    schedulers=("EUA*",),
    n_replications=N_REPLICATIONS,
    base_seed=11,
)


def _identical(a, b) -> bool:
    for name in CONFIG.schedulers:
        sa, sb = a.schedulers[name], b.schedulers[name]
        if sa.assurance != sb.assurance:
            return False
        if set(sa.metrics) != set(sb.metrics):
            return False
        for key in sa.metrics:
            if (sa.metrics[key].mean, sa.metrics[key].std) != (
                sb.metrics[key].mean,
                sb.metrics[key].std,
            ):
                return False
    return True


def bench_replication_speedup() -> dict:
    print(f"[stats] {N_REPLICATIONS} replications, load {LOAD}, "
          f"horizon {HORIZON}s")

    # Warm-up: imports, the offlineComputing memo and allocator state,
    # so the timed samples measure steady-state throughput.
    serial = run_campaign(CONFIG, workers=1)
    samples = []
    for _ in range(SERIAL_SAMPLES):
        t0 = time.perf_counter()
        sample = run_campaign(CONFIG, workers=1)
        samples.append(time.perf_counter() - t0)
        assert _identical(serial, sample), (
            "campaign aggregates differ between repeated serial runs"
        )
    t_serial = median(samples)
    print(f"[stats] serial      : {t_serial:8.2f} s "
          f"({N_REPLICATIONS / t_serial:.1f} rep/s; median of "
          f"{SERIAL_SAMPLES} warm samples: "
          + ", ".join(f"{s:.2f}" for s in samples) + " s)")

    t0 = time.perf_counter()
    parallel = run_campaign(CONFIG, workers=WORKERS)
    t_parallel = time.perf_counter() - t0
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    print(f"[stats] {WORKERS} workers   : {t_parallel:8.2f} s  "
          f"(speedup {speedup:.2f}x)")

    assert _identical(serial, parallel), (
        "campaign aggregates differ between workers=1 and workers=4"
    )
    print("[stats] parallel aggregates identical to serial: OK")

    # The shared three-way gate: "pass" on a capable host, "skipped"
    # (loudly, never a silent pass) when the host cannot demonstrate
    # scaling, SpeedupRegression when a capable host regresses.
    cpus = usable_cpus()
    verdict = speedup_gate(speedup, workers=WORKERS, min_speedup=2.0)
    if verdict == "pass":
        print(f"[stats] >= 2x gate on {cpus} CPUs: PASS")
    else:
        print(f"[stats] >= 2x gate SKIPPED: only {cpus} usable CPU(s); "
              f"need >= {WORKERS}")

    eua = serial.schedulers["EUA*"]
    return {
        "stats_speedup": speedup,
        "stats_speedup_gate_skipped": 1.0 if verdict == "skipped" else 0.0,
        "stats_serial_s": t_serial,
        "stats_parallel_s": t_parallel,
        "stats_reps_per_second_serial": N_REPLICATIONS / t_serial,
        # Deterministic aggregates for the committed baseline gate.
        "mc_norm_utility_mean": eua.metrics["normalized_utility"].mean,
        "mc_energy_mean": eua.metrics["energy"].mean,
        "mc_avg_frequency_mean": eua.metrics["avg_frequency"].mean,
        "mc_min_ci_low": min(a.ci_low for a in eua.assurance),
    }


def bench_phase_breakdown() -> dict:
    """Span-traced pass: where does the parallel campaign's time go?

    Runs once with a :class:`~repro.obs.Telemetry` attached (separate
    from the timed passes above, so the pickle probe cannot perturb the
    speedup measurement) and emits the serialisation / simulate / fold
    split plus worker busy time into the BENCH artifact.
    """
    telemetry = Telemetry()
    t0 = time.perf_counter()
    run_campaign(CONFIG, workers=WORKERS, telemetry=telemetry)
    wall = time.perf_counter() - t0
    report = build_phase_report(telemetry, wall_clock=wall)
    print(report.render())
    return {
        "phase_serialize_s": report.phase_total("pool.serialize"),
        "phase_simulate_s": report.phase_total("campaign.simulate"),
        "phase_fold_s": (report.phase_total("campaign.fold")
                         + report.phase_total("pool.fold")),
        "phase_worker_busy_s": sum(lane.busy for lane in report.workers),
        "phase_coverage": report.coverage(),
        "phase_reps_per_second": report.reps_per_second or 0.0,
    }


def bench_cache_resume() -> dict:
    cache_dir = tempfile.mkdtemp(prefix="repro-stats-cache-")
    try:
        cache = RunCache(cache_dir)
        t0 = time.perf_counter()
        cold = run_campaign(CONFIG, cache=cache)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_campaign(CONFIG, cache=cache)
        t_warm = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    print(f"[cache] cold campaign: {t_cold:8.2f} s "
          f"({cold.n_simulated} simulated)")
    print(f"[cache] warm campaign: {t_warm:8.2f} s "
          f"({warm.n_simulated} simulated, {warm.n_cached} cached)")
    assert warm.n_simulated == 0, (
        f"warm-cache campaign re-simulated {warm.n_simulated} replications"
    )
    assert warm.n_cached == N_REPLICATIONS
    assert _identical(cold, warm), "cache round-trip changed the aggregates"
    print("[cache] zero re-simulations, aggregates bit-identical: OK")
    return {
        "cache_cold_s": t_cold,
        "cache_warm_s": t_warm,
        "cache_resume_speedup": t_cold / t_warm if t_warm > 0 else float("inf"),
    }


def main() -> int:
    metrics = bench_replication_speedup()
    print()
    metrics.update(bench_phase_breakdown())
    print()
    metrics.update(bench_cache_resume())
    # Wall-clock numbers on shared CI runners are informational (the
    # hard gates are the asserts above); the mc_* aggregates are
    # deterministic and gated against the committed baseline.
    directions = {k: "lower" for k in metrics}
    for k in ("stats_speedup", "stats_reps_per_second_serial",
              "cache_resume_speedup", "mc_norm_utility_mean", "mc_min_ci_low",
              "phase_coverage", "phase_reps_per_second"):
        directions[k] = "higher"
    write_bench_artifact(
        "stats_throughput", metrics, directions=directions,
        meta={"workers": WORKERS, "n_replications": N_REPLICATIONS,
              "load": LOAD, "horizon": HORIZON},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
