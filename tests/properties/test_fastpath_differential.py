"""Differential properties: incremental hot paths vs naive references.

The fast paths introduced for sweep throughput — the suffix-refolding
:class:`~repro.core.IncrementalSchedule`, the memoized
``offlineComputing`` front-end, the precomputed per-ladder UER
denominator table, and the per-frequency energy-per-cycle cache — all
promise **bit-identical** results to their naive reference
implementations (kept importable under ``*_reference`` names).  Any
float that differs, even in the last ULP, is a bug: a drifted
comparison can flip a feasibility verdict and change the schedule.

All equality assertions here are exact (``==``), never approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import UAMSpec
from repro.core import (
    EUAStar,
    IncrementalSchedule,
    clear_offline_cache,
    insert_by_critical_time_reference,
    job_uer,
    job_uer_reference,
    offline_computing,
    offline_computing_reference,
    predicted_completions,
    schedule_feasible_reference,
    uer_optimal_frequency,
)
from repro.cpu import EnergyModel, FrequencyScale, Processor
from repro.demand import DeterministicDemand, NormalDemand
from repro.sim import Engine, Job, Task, TaskSet, materialize
from repro.tuf import LinearTUF, StepTUF


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def job_pools(draw):
    """A batch of candidate jobs plus a probe time — raw material for
    σ-construction differential runs."""
    n = draw(st.integers(min_value=2, max_value=12))
    now = draw(st.floats(min_value=0.0, max_value=0.3))
    jobs = []
    for i in range(n):
        release = draw(st.floats(min_value=0.0, max_value=0.4))
        window = draw(st.floats(min_value=0.02, max_value=0.8))
        mean = draw(st.floats(min_value=5.0, max_value=400.0))
        task = Task(
            f"T{i}",
            StepTUF(draw(st.floats(min_value=1.0, max_value=50.0)), window),
            DeterministicDemand(mean),
            UAMSpec(1, window),
        )
        jobs.append(Job(task, 0, release, mean))
    return jobs, now


@st.composite
def uam_scenarios(draw, tuf_shape="step"):
    """A synthesised UAM task set plus a materialisation seed."""
    n = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    load = draw(st.floats(min_value=0.3, max_value=1.9))
    tasks = []
    for i in range(n):
        window = draw(st.floats(min_value=0.05, max_value=0.7))
        umax = draw(st.floats(min_value=1.0, max_value=100.0))
        mean = window * 90.0
        if tuf_shape == "step":
            tuf, nu = StepTUF(umax, window), 1.0
        else:
            tuf, nu = LinearTUF(umax, window), 0.3
        tasks.append(
            Task(f"T{i}", tuf, NormalDemand(mean, mean * 0.1),
                 UAMSpec(1, window), nu=nu, rho=0.9)
        )
    return TaskSet(tasks).scaled_to_load(load, 1000.0), seed


def _run(taskset, seed, policy, horizon=1.2, energy=None):
    rng = np.random.default_rng(seed)
    trace = materialize(taskset, horizon, rng)
    cpu = Processor(FrequencyScale.powernow_k6(), energy or EnergyModel.e1())
    return Engine(trace, policy, cpu, record_trace=True).run()


def _segments(result):
    return [(s.start, s.end, s.job_key, s.frequency) for s in result.trace.segments]


# ----------------------------------------------------------------------
# σ construction: IncrementalSchedule vs the naive copy-and-rewalk
# ----------------------------------------------------------------------
@given(job_pools())
@settings(max_examples=80, deadline=None)
def test_incremental_probes_match_reference(pool):
    """Every probe verdict, the final order, and every predicted
    completion float must be bit-identical to the reference path."""
    jobs, now = pool
    f_max = 1000.0
    inc = IncrementalSchedule(now, f_max)
    sigma = []
    for job in jobs:
        tentative = insert_by_critical_time_reference(sigma, job)
        ref_ok = schedule_feasible_reference(tentative, now, f_max)
        pos = inc.try_insert(job)
        assert (pos >= 0) == ref_ok
        if ref_ok:
            sigma = tentative
            assert sigma[pos] is job
        assert [j.key for j in inc] == [j.key for j in sigma]
        assert inc.completions() == predicted_completions(sigma, now, f_max)


@given(job_pools())
@settings(max_examples=40, deadline=None)
def test_incremental_probes_match_reference_ranked_order(pool):
    """Same identity when candidates arrive in UER order (the order
    EUA* actually probes in), including partially executed jobs."""
    jobs, now = pool
    f_max = 1000.0
    model = EnergyModel.e1()
    for i, job in enumerate(jobs):
        if i % 3 == 1:
            job.executed = 0.25 * job.task.allocation
    ranked = sorted(
        jobs, key=lambda j: job_uer(j, now, f_max, model), reverse=True
    )
    inc = IncrementalSchedule(now, f_max)
    sigma = []
    for job in ranked:
        tentative = insert_by_critical_time_reference(sigma, job)
        ref_ok = schedule_feasible_reference(tentative, now, f_max)
        assert (inc.try_insert(job) >= 0) == ref_ok
        if ref_ok:
            sigma = tentative
    assert [j.key for j in inc] == [j.key for j in sigma]
    assert inc.completions() == predicted_completions(sigma, now, f_max)


# ----------------------------------------------------------------------
# End to end: EUA* incremental arm vs reference arm
# ----------------------------------------------------------------------
@given(uam_scenarios())
@settings(max_examples=20, deadline=None)
def test_euastar_incremental_equals_reference_step(scenario):
    taskset, seed = scenario
    fast = _run(taskset, seed, EUAStar(incremental=True))
    slow = _run(taskset, seed, EUAStar(incremental=False))
    assert fast.metrics.accrued_utility == slow.metrics.accrued_utility
    assert fast.energy == slow.energy
    assert [j.status for j in fast.jobs] == [j.status for j in slow.jobs]
    assert _segments(fast) == _segments(slow)


@given(uam_scenarios(tuf_shape="linear"))
@settings(max_examples=15, deadline=None)
def test_euastar_incremental_equals_reference_linear_e3(scenario):
    """Linear TUFs + the fixed-power E3 model: the DVS decisions (and
    therefore segment frequencies) must also be identical."""
    taskset, seed = scenario
    e3 = EnergyModel.e3(1000.0)
    fast = _run(taskset, seed, EUAStar(incremental=True), energy=e3)
    slow = _run(taskset, seed, EUAStar(incremental=False), energy=e3)
    assert fast.metrics.accrued_utility == slow.metrics.accrued_utility
    assert fast.energy == slow.energy
    assert [j.status for j in fast.jobs] == [j.status for j in slow.jobs]
    assert _segments(fast) == _segments(slow)


@given(uam_scenarios())
@settings(max_examples=15, deadline=None)
def test_euastar_strict_break_incremental_equals_reference(scenario):
    """The literal ``else break`` reading stops σ at the first rejected
    probe; the incremental arm's head-is-final exit must not change
    where either loop stops or what it dispatches."""
    taskset, seed = scenario
    fast = _run(taskset, seed, EUAStar(strict_insertion_break=True))
    slow = _run(taskset, seed, EUAStar(strict_insertion_break=True, incremental=False))
    assert fast.metrics.accrued_utility == slow.metrics.accrued_utility
    assert fast.energy == slow.energy
    assert [j.status for j in fast.jobs] == [j.status for j in slow.jobs]
    assert _segments(fast) == _segments(slow)


@given(uam_scenarios(tuf_shape="linear"))
@settings(max_examples=15, deadline=None)
def test_euastar_utility_density_incremental_equals_reference(scenario):
    """The energy-oblivious ordering ranks by ``_metric``, not the
    module-level UER, and goes through the same σ exit."""
    taskset, seed = scenario
    fast = _run(taskset, seed, EUAStar(ordering="utility_density"))
    slow = _run(taskset, seed, EUAStar(ordering="utility_density", incremental=False))
    assert fast.metrics.accrued_utility == slow.metrics.accrued_utility
    assert fast.energy == slow.energy
    assert [j.status for j in fast.jobs] == [j.status for j in slow.jobs]
    assert _segments(fast) == _segments(slow)


# ----------------------------------------------------------------------
# offlineComputing memo and the shared UER denominator table
# ----------------------------------------------------------------------
@given(uam_scenarios())
@settings(max_examples=25, deadline=None)
def test_offline_computing_matches_reference(scenario):
    taskset, _ = scenario
    clear_offline_cache()
    scale = FrequencyScale.powernow_k6()
    model = EnergyModel.e1()
    ref = offline_computing_reference(taskset, scale, model)
    first = offline_computing(taskset, scale, model)   # cold: fills the memo
    second = offline_computing(taskset, scale, model)  # warm: cache hit
    assert first == ref
    assert second == ref
    assert first is not second  # callers own their dicts


@given(uam_scenarios())
@settings(max_examples=15, deadline=None)
def test_offline_cache_keyed_by_platform(scenario):
    """One task set probed under two energy models must not cross-feed."""
    taskset, _ = scenario
    clear_offline_cache()
    scale = FrequencyScale.powernow_k6()
    e1, e3 = EnergyModel.e1(), EnergyModel.e3(scale.f_max)
    assert offline_computing(taskset, scale, e1) == offline_computing_reference(
        taskset, scale, e1
    )
    assert offline_computing(taskset, scale, e3) == offline_computing_reference(
        taskset, scale, e3
    )
    # warm reads still segregated
    assert offline_computing(taskset, scale, e1) == offline_computing_reference(
        taskset, scale, e1
    )


@given(uam_scenarios())
@settings(max_examples=25, deadline=None)
def test_uer_optimal_frequency_epc_table_identical(scenario):
    """The precomputed {level: E(f)} table changes no f° choice."""
    taskset, _ = scenario
    scale = FrequencyScale.powernow_k6()
    for model in (
        EnergyModel.e1(),
        EnergyModel.e2(scale.f_max),
        EnergyModel.e3(scale.f_max),
    ):
        epc = {f: model.energy_per_cycle(f) for f in scale.levels}
        for task in taskset:
            assert uer_optimal_frequency(task, scale, model) == uer_optimal_frequency(
                task, scale, model, _epc=epc
            )


# ----------------------------------------------------------------------
# Energy-per-cycle memo and the online UER
# ----------------------------------------------------------------------
@given(st.floats(min_value=50.0, max_value=2000.0))
@settings(max_examples=60, deadline=None)
def test_energy_per_cycle_memo_bitwise(f):
    for fresh, warm in (
        (EnergyModel.e1(), EnergyModel.e1()),
        (EnergyModel.e2(1000.0), EnergyModel.e2(1000.0)),
        (EnergyModel.e3(1000.0), EnergyModel.e3(1000.0)),
    ):
        warm.energy_per_cycle(f)  # populate the cache
        assert warm.energy_per_cycle(f) == fresh.energy_per_cycle(f)


def test_energy_per_cycle_still_rejects_nonpositive():
    model = EnergyModel.e1()
    from repro.cpu import EnergyError

    with pytest.raises(EnergyError):
        model.energy_per_cycle(0.0)
    with pytest.raises(EnergyError):
        model.energy_per_cycle(-1.0)


@given(job_pools())
@settings(max_examples=40, deadline=None)
def test_job_uer_reference_alias_identical(pool):
    jobs, now = pool
    model = EnergyModel.e1()
    for job in jobs:
        for f in (360.0, 550.0, 1000.0):
            assert job_uer(job, now, f, model) == job_uer_reference(
                job, now, f, model
            )
