"""EUA*'s decision path stops once its answer is fixed — exactly.

Two early exits sit in the hot path:

* ``required_rate_lookahead`` returns ``f_m`` as soon as the deferral
  sum satisfies ``s / horizon >= f_m`` (the sum never decreases, and
  division is monotone in its numerator);
* EUA*'s incremental σ builder stops, when no observer is attached,
  once no remaining candidate has a critical time below σ's head.

Both promise bit-identical results.  The look-ahead properties here
put ``s / horizon`` at, one ULP below and one ULP above ``f_m`` — where
a rounding slip in the exit test would show — and compare the kernel
with ``required_rate_lookahead_reference`` by ``==``.  The σ exit is
pinned end to end in ``test_fastpath_differential.py``; here it is
checked to stay off while an observer is attached.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arrivals import BurstUAMArrivals, UAMSpec
from repro.core import (
    EUAStar,
    IncrementalSchedule,
    job_feasible,
    required_rate_lookahead,
    required_rate_lookahead_reference,
)
from repro.cpu import EnergyModel, FrequencyScale
from repro.demand import DeterministicDemand
from repro.experiments import synthesize_taskset
from repro.obs import EventKind, Observer
from repro.sim import Job, Platform, Task, TaskSet, simulate
from repro.sim.scheduler import SchedulerView, SchedulingEvent
from repro.tuf import LinearTUF, StepTUF

SCALE = FrequencyScale.powernow_k6()
F_M = SCALE.f_max


def _view(t, ready, taskset, windows):
    return SchedulerView(t, ready, taskset, SCALE, EnergyModel.e1(),
                         SchedulingEvent.ARRIVAL, windows)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


# ----------------------------------------------------------------------
# Look-ahead saturation exit
# ----------------------------------------------------------------------
@st.composite
def pending_views(draw):
    """Every task has pending work and an explicit arrival window, so
    the deferral sum ``s`` does not depend on the view time: only
    ``horizon = D_n − t`` moves with ``t``."""
    n = draw(st.integers(min_value=1, max_value=5))
    tasks, ready, windows = [], [], {}
    for i in range(n):
        window = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
        a = draw(st.integers(min_value=1, max_value=3))
        spec = UAMSpec(a, window)
        if draw(st.booleans()):
            tuf, nu = StepTUF(10.0, window), 1.0
        else:
            tuf, nu = LinearTUF(10.0, window), 0.3
        task = Task(f"T{i}", tuf, DeterministicDemand(float(draw(st.integers(10, 400)))),
                    spec, arrivals=None if a == 1 else BurstUAMArrivals(spec), nu=nu)
        n_jobs = draw(st.integers(min_value=1, max_value=a + 1))
        releases = sorted(draw(st.lists(st.floats(0.0, 0.125), min_size=n_jobs,
                                        max_size=n_jobs)))
        for index, release in enumerate(releases):
            job = Job(task, index, release, task.allocation)
            job.executed = draw(st.sampled_from([0.0, 0.25, 0.5, 0.9])) * task.allocation
            ready.append(job)
        seen = draw(st.integers(min_value=1, max_value=min(a, n_jobs)))
        windows[task.name] = releases[-seen:]
        tasks.append(task)
    order = draw(st.permutations(range(len(ready))))
    return TaskSet(tasks), [ready[k] for k in order], windows


@given(pending_views(), st.integers(min_value=-2, max_value=2))
@settings(max_examples=150, deadline=None)
def test_lookahead_kernel_exact_at_the_saturation_boundary(scenario, ulps):
    """Bisect for the first float ``t*`` at which the reference's rate
    reaches ``f_m``, then compare kernel and reference at ``t*`` and a
    few ULPs either side of it."""
    taskset, ready, windows = scenario
    d_n = min(job.critical_time for job in ready)
    t_lo = 0.125

    def reference(t):
        return required_rate_lookahead_reference(_view(t, ready, taskset, windows))

    assume(reference(t_lo) < F_M)
    lo, hi = _bits(t_lo), _bits(d_n)  # reference(d_n) == F_M: no horizon left
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reference(_float(mid)) == F_M:
            hi = mid
        else:
            lo = mid
    assert reference(_float(hi)) == F_M > reference(_float(lo))
    t = _float(hi + ulps)
    view = _view(t, ready, taskset, windows)
    assert required_rate_lookahead(view) == required_rate_lookahead_reference(view)


@pytest.mark.parametrize("ulps", [1, 0, -1])
def test_lookahead_exit_when_the_ratio_is_exactly_f_max(ulps):
    """``s / horizon`` is ``375 / 0.375 = f_m`` exactly when the horizon
    is 0.375 (every float below is dyadic), so the exit's ``>=`` fires
    on equality and must not fire with the horizon one ULP longer."""
    tasks, ready, windows = [], [], {}
    # Two tasks due at D_n = 0.5 (x = c_r each), one due later.
    for i, (mean, window) in enumerate([(125.0, 0.5), (250.0, 0.5), (96.0, 1.0)]):
        task = Task(f"T{i}", StepTUF(10.0, window), DeterministicDemand(mean),
                    UAMSpec(1, window))
        ready.append(Job(task, 0, 0.0, mean))
        windows[task.name] = [0.0]
        tasks.append(task)
    taskset = TaskSet(tasks)
    horizon = 0.375
    for _ in range(abs(ulps)):
        horizon = math.nextafter(horizon, math.copysign(math.inf, ulps))
    t = 0.5 - horizon
    assert 0.5 - t == horizon  # D_n − t recovers the horizon exactly
    view = _view(t, ready, taskset, windows)
    rate = required_rate_lookahead(view)
    assert rate == required_rate_lookahead_reference(view)
    if ulps > 0:
        assert rate == 375.0 / horizon < F_M
    else:
        assert rate == F_M
        assert 375.0 / horizon >= F_M


# ----------------------------------------------------------------------
# σ exit stays off while an observer is attached
# ----------------------------------------------------------------------
class _VerdictCounter(EUAStar):
    """Per decision: (ranked jobs, INSERT/REJECT verdicts on them)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.counts = []

    def decide(self, view):
        t, f_m = view.time, view.scale.f_max
        ranked = sum(1 for job in view.ready if job_feasible(job, t, f_m))
        log = self.observer.events.events
        before = len(log)
        decision = super().decide(view)
        verdicts = [
            e for e in log[before:]
            if e.kind is EventKind.INSERT
            or (e.kind is EventKind.REJECT and e.fields["reason"] != "individually-infeasible")
        ]
        self.counts.append((ranked, len(verdicts)))
        return decision


def _overload(scheduler, observer=None):
    taskset = synthesize_taskset(1.6, np.random.default_rng(11))
    return simulate(taskset, scheduler, Platform(), horizon=0.6, seed=11, observer=observer)


def test_observer_sees_one_verdict_per_ranked_job(monkeypatch):
    probes = {"n": 0}
    try_insert = IncrementalSchedule.try_insert

    def counting(self, job):
        probes["n"] += 1
        return try_insert(self, job)

    monkeypatch.setattr(IncrementalSchedule, "try_insert", counting)
    observed = _VerdictCounter()
    traced = _overload(observed, Observer(events=True, metrics=False))
    with_observer = probes["n"]
    probes["n"] = 0
    plain = _overload(EUAStar())
    without_observer = probes["n"]

    assert observed.counts
    assert all(ranked == verdicts for ranked, verdicts in observed.counts)
    # The exit does fire without an observer, on the same decisions.
    assert without_observer < with_observer
    assert traced.energy == plain.energy
    assert traced.metrics.accrued_utility == plain.metrics.accrued_utility
