"""The engine's m dispatch slots, driven directly and through global mode.

Global mode runs the engine's own dispatch loop with m slots, so an
attached :class:`~repro.obs.SpanTracer` sees the same ``engine.run``
phase tree as a uniprocessor run — and, like there, tracing is
observe-only: every aggregate is identical with and without it.
"""

import numpy as np
import pytest

from repro.experiments import synthesize_taskset
from repro.mp import MulticorePlatform, simulate_global
from repro.obs import Observer, build_phase_report
from repro.sched import make_scheduler
from repro.sim import Engine, Platform, materialize, simulate
from repro.sim.engine import SimulationError

PHASES = ("release", "expiry", "snapshot", "decide", "advance", "complete")


def _trace(load=0.8, cores=2, seed=11, horizon=0.3):
    rng = np.random.default_rng(seed)
    return materialize(synthesize_taskset(load * cores, rng), horizon, rng)


@pytest.mark.parametrize("scheduler", ["EUA*", "EDF"])
def test_global_run_is_traced_and_tracing_is_transparent(scheduler):
    platform = MulticorePlatform.from_platform(Platform(), cores=2)
    trace = _trace()
    plain = simulate_global(trace, scheduler, platform)

    obs = Observer(events=False, metrics=False, spans=True)
    traced = simulate_global(trace, scheduler, platform, observer=obs)

    assert obs.spans.open_depth == 0
    paths = {s.path for s in obs.spans.spans}
    assert "engine.run" in paths
    for phase in PHASES:
        assert f"engine.run/engine.{phase}" in paths
    report = build_phase_report(obs.spans)
    assert report.coverage() == pytest.approx(1.0, abs=0.10)

    assert traced.metrics.summary() == plain.metrics.summary()
    assert traced.processor_stats == plain.processor_stats
    assert traced.per_core_stats == plain.per_core_stats
    assert traced.migrations == plain.migrations
    assert traced.core_segments == plain.core_segments
    assert [(j.key, j.status, j.accrued_utility) for j in traced.jobs] == [
        (j.key, j.status, j.accrued_utility) for j in plain.jobs
    ]


def test_one_processor_list_is_the_uniprocessor_plus_core_segments():
    trace = _trace(load=1.2, cores=1)
    uni = simulate(trace, make_scheduler("EUA*"), Platform())
    engine = Engine(trace, make_scheduler("EUA*"), [Platform().processor()])
    listed = engine.run()
    assert listed.metrics.summary() == uni.metrics.summary()
    assert listed.processor_stats.total_energy == uni.processor_stats.total_energy
    assert engine.migrations == 0
    busy = sum(end - start for start, end, key, _ in engine.core_segments[0] if key)
    assert busy == pytest.approx(uni.processor_stats.busy_time)


@pytest.mark.parametrize("attachment", ["runtime", "checker", "record_trace"])
def test_multicore_engine_rejects_single_core_attachments(attachment):
    from repro.check import InvariantChecker
    from repro.runtime import AdaptiveRuntime, RuntimeConfig

    value = {
        "runtime": lambda: AdaptiveRuntime(RuntimeConfig()),
        "checker": InvariantChecker,
        "record_trace": lambda: True,
    }[attachment]()
    cores = [Platform().processor() for _ in range(2)]
    with pytest.raises(SimulationError):
        Engine(_trace(), make_scheduler("EUA*"), cores, **{attachment: value})
    # The same attachment is fine on one core.
    Engine(_trace(), make_scheduler("EUA*"), cores[:1], **{attachment: value})


def test_multicore_engine_rejects_switch_time():
    cores = [Platform(switch_time=1e-4).processor() for _ in range(2)]
    with pytest.raises(SimulationError):
        Engine(_trace(), make_scheduler("EUA*"), cores)
