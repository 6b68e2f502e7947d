"""The engine's m dispatch slots, driven directly and through global mode.

Global mode runs the engine's own dispatch loop with m slots, so an
attached :class:`~repro.obs.SpanTracer` sees the same ``engine.run``
phase tree as a uniprocessor run — and, like there, tracing is
observe-only: every aggregate is identical with and without it.  The
per-core frequency pass runs only for policies that override
``Scheduler.decide_frequency``; fixed-frequency policies skip it.
"""

import numpy as np
import pytest

from repro.experiments import synthesize_taskset
from repro.mp import MulticorePlatform, simulate_global
from repro.obs import Observer, build_phase_report, events_to_jsonl
from repro.sched import make_scheduler
from repro.sched.edf import EDFStatic
from repro.sim import Engine, Platform, materialize, simulate
from repro.sim.engine import SimulationError
from repro.sim.scheduler import Scheduler

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


# ----------------------------------------------------------------------
# The per-core frequency pass runs only for policies that override
# Scheduler.decide_frequency.
# ----------------------------------------------------------------------
def _observed_global(trace, scheduler, spans=False):
    obs = Observer(events=True, metrics=True, spans=spans)
    platform = MulticorePlatform.from_platform(Platform(), cores=2)
    result = simulate_global(trace, scheduler, platform, observer=obs)
    counters = {key: c.value for key, c in obs.metrics.counters().items()}
    return result, events_to_jsonl(obs.events), counters


def _forbid_frequency_pass(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("per-core frequency pass entered")

    monkeypatch.setattr(Engine, "_decide_core_frequencies", forbidden)


def test_edf_global_run_skips_the_frequency_pass(monkeypatch):
    trace = _trace(load=1.2)
    plain, plain_log, plain_counters = _observed_global(trace, "EDF")

    _forbid_frequency_pass(monkeypatch)
    skipped, log, counters = _observed_global(trace, "EDF", spans=True)

    assert log == plain_log
    assert counters == plain_counters
    assert skipped.metrics.summary() == plain.metrics.summary()
    assert skipped.processor_stats == plain.processor_stats
    assert skipped.per_core_stats == plain.per_core_stats
    assert skipped.migrations == plain.migrations
    assert skipped.core_segments == plain.core_segments


class _CountingEDF(EDFStatic):
    """EDF whose ``decide_frequency`` override records each call and
    keeps the selection-round frequency."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def decide_frequency(self, view, job):
        self.calls.append((view.time, job.key))
        return None


def test_overriding_policy_is_asked_once_per_busy_core_per_event(monkeypatch):
    expected = []
    original = Engine._decide_core_frequencies

    def spy(self, view, assigned, *rest):
        expected.extend((view.time, p[0].key) for p in assigned if p is not None)
        return original(self, view, assigned, *rest)

    monkeypatch.setattr(Engine, "_decide_core_frequencies", spy)
    trace = _trace(load=1.2)
    counting = _CountingEDF()
    result, log, _ = _observed_global(trace, counting)

    assert counting.calls == expected
    assert len({t for t, _ in expected}) < len(expected)  # two busy cores at once
    # Returning None keeps EDF's frequency: the run is plain EDF's.
    monkeypatch.undo()
    plain, plain_log, _ = _observed_global(trace, "EDF")
    assert log == plain_log
    assert result.metrics.summary() == plain.metrics.summary()


def test_wrapper_on_the_base_method_keeps_edf_on_the_fast_path(monkeypatch):
    calls = []
    original = Scheduler.decide_frequency

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    wrapper.__wrapped__ = original
    monkeypatch.setattr(Scheduler, "decide_frequency", wrapper)
    _forbid_frequency_pass(monkeypatch)
    result, _, _ = _observed_global(_trace(), "EDF")
    assert result.jobs
    assert calls == []
