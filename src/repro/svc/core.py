"""Service core: synchronous ingestion + dispatch state machine.

:class:`ServiceCore` is the scheduler service with the I/O stripped
away — the asyncio front-end (:mod:`repro.svc.service`) calls into it
from one task, and the test suite drives it directly with fake time.
It binds the paper's online machinery to an *open* arrival stream:

* every submission passes the :class:`~repro.runtime.UAMComplianceMonitor`
  (shed / defer / admit-and-flag on envelope violations) and then the
  :class:`~repro.runtime.AdmissionController` (feasibility projection at
  ``f_max``, lowest-UER eviction on overload);
* dispatching reuses the registry schedulers unchanged — the core
  builds its :class:`~repro.sim.scheduler.SchedulerView` snapshots with
  the engine's :class:`~repro.sim.engine.ViewBuilder`, so EUA*'s σ
  construction and ``decideFreq()`` run verbatim against live traffic;
* every decision lands in a :class:`~repro.obs.Observer` event log in
  the standard ``repro.obs`` wire format, which the HTTP front-end
  streams as JSONL.

Time is whatever the caller says it is (``t`` arguments throughout), so
the core is clock-agnostic: the service feeds it a
:class:`~repro.sim.clock.WallClock`, tests feed it literals.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs import EventKind, Observer
from ..runtime import AdmissionController, UAMComplianceMonitor, ViolationPolicy
from ..sched import make_scheduler
from ..sim import Platform
from ..sim.engine import EPS_CYCLES, EPS_TIME, ViewBuilder
from ..sim.job import Job, JobStatus
from ..sim.scheduler import Decision, Scheduler, SchedulingEvent
from ..sim.task import TaskSet

__all__ = ["ServiceCore", "SubmitOutcome", "UnknownTaskError"]


class UnknownTaskError(KeyError):
    """Submission named a task the service does not host."""


def checked_demand(demand: object) -> Optional[float]:
    """A submission's ``demand`` as Mcycles: ``None`` when absent, else
    a finite float > 0.  Raises :class:`ValueError` otherwise."""
    if demand is None:
        return None
    try:
        value = float(demand)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"demand must be finite and > 0, got {demand!r}")
    return value


@dataclass(frozen=True)
class SubmitOutcome:
    """Verdict returned to the submitting client."""

    #: ``admitted`` | ``deferred`` | ``shed`` | ``rejected``
    status: str
    job: Optional[str] = None
    reason: str = "feasible"
    #: For ``deferred``: the granted compliant release instant.
    release: Optional[float] = None

    @property
    def accepted(self) -> bool:
        return self.status in ("admitted", "deferred")

    def to_dict(self) -> dict:
        out = {"status": self.status, "reason": self.reason}
        if self.job is not None:
            out["job"] = self.job
        if self.release is not None:
            out["release"] = self.release
        return out


class ServiceCore:
    """Open-stream scheduler state: ready set, UAM + admission gates,
    per-task arrival windows, and the decision event log."""

    def __init__(
        self,
        taskset: TaskSet,
        platform: Optional[Platform] = None,
        scheduler: Optional[Scheduler] = None,
        policy: ViolationPolicy = ViolationPolicy.SHED,
        headroom: float = 1.0,
        observer: Optional[Observer] = None,
    ):
        self.taskset = taskset
        self.platform = platform if platform is not None else Platform()
        self.scheduler = scheduler if scheduler is not None else make_scheduler("EUA*")
        self.observer = observer if observer is not None else Observer(
            events=True, metrics=True
        )
        self.monitor = UAMComplianceMonitor(taskset, policy)
        self.admission = AdmissionController(headroom)
        self.scheduler.bind_observer(self.observer)
        self.scheduler.setup(taskset, self.platform.scale, self.platform.energy_model)

        self._tasks = {task.name: task for task in taskset}
        self._indices: Dict[str, int] = {task.name: 0 for task in taskset}
        self._views = ViewBuilder(taskset, self.platform.scale, self.platform.energy_model)
        self.ready: List[Job] = []
        #: Deferred submissions waiting for their granted release.
        self._deferred: List[Tuple[float, int, Job]] = []
        self._deferred_seq = 0
        #: Lifecycle counters (service ``/stats``, load reports).
        self.counters: Dict[str, int] = {
            key: 0
            for key in (
                "submitted", "admitted", "deferred", "shed_uam",
                "rejected", "evicted", "completed", "expired",
                "aborted", "deadline_hits",
            )
        }
        self.utility_accrued = 0.0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def submit(self, task_name: str, t: float, demand: Optional[float] = None) -> SubmitOutcome:
        """One job submission at service time ``t``.

        ``demand`` is the emulated true cycle demand (Mcycles); the
        default is the task's Chebyshev allocation ``c_i`` — a
        budget-conforming job.  UAM compliance is checked first (the
        envelope gates what *counts* as an arrival), then admission.  A
        bad ``demand`` (see :func:`checked_demand`) or an unknown task
        raises before anything is counted or charged to the envelope.
        """
        task = self._tasks.get(task_name)
        if task is None:
            raise UnknownTaskError(task_name)
        demand = checked_demand(demand)
        self.counters["submitted"] += 1
        obs = self.observer

        release = t
        violation = self.monitor.check(task, t)
        if violation is not None:
            obs.emit(t, EventKind.UAM_VIOLATION, source="svc",
                     task=task.name, policy=violation.policy.value,
                     window_anchor=violation.window_anchor,
                     window_count=violation.window_count,
                     deferred_to=violation.deferred_to)
            obs.inc("svc_uam_violations", task=task.name)
            if violation.policy is ViolationPolicy.SHED:
                self.counters["shed_uam"] += 1
                obs.emit(t, EventKind.ADMISSION_DECISION, source="svc",
                         task=task.name, action="shed", reason="uam-violation")
                return SubmitOutcome("shed", reason="uam-violation")
            if violation.policy is ViolationPolicy.DEFER:
                release = violation.deferred_to

        job = Job(task, self._indices[task_name], release,
                  demand if demand is not None else task.allocation)
        self._indices[task_name] += 1

        if release > t + EPS_TIME:
            # Deferred: admission runs when the grant comes due.
            self.counters["deferred"] += 1
            heapq.heappush(self._deferred, (release, self._deferred_seq, job))
            self._deferred_seq += 1
            obs.emit(t, EventKind.ADMISSION_DECISION, job.key, source="svc",
                     action="defer", reason="uam-deferral", release=release)
            return SubmitOutcome("deferred", job=job.key,
                                 reason="uam-deferral", release=release)
        return self._admit(job, t)

    def _admit(self, job: Job, t: float) -> SubmitOutcome:
        obs = self.observer
        verdict = self.admission.evaluate(
            job, t, self.ready, self.platform.scale.f_max,
            self.platform.energy_model,
        )
        if not verdict.admit:
            self.counters["rejected"] += 1
            job.status = JobStatus.SHED
            job.abort_time = t
            obs.emit(t, EventKind.ADMISSION_DECISION, job.key, source="svc",
                     action="reject", reason=verdict.reason)
            return SubmitOutcome("rejected", job=job.key, reason=verdict.reason)
        for victim in verdict.evictions:
            victim.status = JobStatus.SHED
            victim.abort_time = t
            self.ready.remove(victim)
            self.counters["evicted"] += 1
            obs.emit(t, EventKind.ADMISSION_DECISION, victim.key, source="svc",
                     action="evict", reason="lower-uer", evicted_for=job.key)
        self.ready.append(job)
        self._views.record(job)
        self.counters["admitted"] += 1
        obs.emit(t, EventKind.RELEASE, job.key, source="svc",
                 release=job.release, termination=job.termination)
        obs.emit(t, EventKind.ADMISSION_DECISION, job.key, source="svc",
                 action="admit", reason=verdict.reason)
        return SubmitOutcome("admitted", job=job.key, reason=verdict.reason)

    def activate_due(self, t: float) -> int:
        """Admit deferred submissions whose granted release has come."""
        n = 0
        while self._deferred and self._deferred[0][0] <= t + EPS_TIME:
            job = heapq.heappop(self._deferred)[2]
            self._admit(job, t)
            n += 1
        return n

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def expire_overdue(self, t: float) -> List[Job]:
        """Abort ready jobs whose termination time has passed."""
        if not self.scheduler.abort_expired:
            return []
        t_eps = t + EPS_TIME
        expired = [j for j in self.ready if j.termination <= t_eps and j.task.abortable]
        for job in expired:
            job.status = JobStatus.EXPIRED
            job.abort_time = t
            self.ready.remove(job)
            self.counters["expired"] += 1
            self.observer.emit(t, EventKind.EXPIRE, job.key, source="svc",
                               executed=job.executed, demand=job.demand)
        return expired

    def decide(self, t: float, event: SchedulingEvent = SchedulingEvent.ARRIVAL) -> Decision:
        """One scheduling decision over the current ready set.

        Runs the deferred-activation and expiry passes first (the
        service's release/expiry phases), then consults the scheduler
        over a view built by the engine's :class:`ViewBuilder`.
        """
        self.activate_due(t)
        self.expire_overdue(t)
        obs = self.observer
        if not self.ready:
            return Decision(job=None, frequency=self.platform.scale.f_max)
        decision = self.scheduler.decide(self._views.build(t, self.ready, event))
        for job in decision.aborts:
            job.status = JobStatus.ABORTED
            job.abort_time = t
            if job in self.ready:
                self.ready.remove(job)
            self.counters["aborted"] += 1
            obs.emit(t, EventKind.ABORT, job.key, source="svc",
                     executed=job.executed, budget=job.allocated)
        if decision.job is not None:
            obs.emit(t, EventKind.DISPATCH, decision.job.key, source="svc",
                     frequency=decision.frequency,
                     remaining_budget=decision.job.remaining_budget)
        return decision

    def advance(self, job: Job, dt: float, frequency: float) -> None:
        """Account ``dt`` clock-seconds of execution at ``frequency``."""
        if dt > 0.0:
            job.executed += dt * frequency

    def complete_if_done(self, job: Job, t: float) -> bool:
        """Complete ``job`` when its emulated demand is exhausted."""
        if job.remaining_demand > EPS_CYCLES or job.is_finished:
            return False
        job.status = JobStatus.COMPLETED
        job.completion_time = t
        job.accrued_utility = job.utility_at(t)
        if job in self.ready:
            self.ready.remove(job)
        self.scheduler.on_completion(job, t)
        self.counters["completed"] += 1
        self.utility_accrued += job.accrued_utility
        if t <= job.critical_time + EPS_TIME:
            self.counters["deadline_hits"] += 1
        self.observer.emit(t, EventKind.COMPLETE, job.key, source="svc",
                           utility=job.accrued_utility, sojourn=t - job.release)
        return True

    # ------------------------------------------------------------------
    # Timers / stats
    # ------------------------------------------------------------------
    def next_timer(self, t: float) -> Optional[float]:
        """Earliest future instant needing attention (deferral grant or
        termination deadline), or ``None`` when no timer is pending."""
        candidates: List[float] = []
        if self._deferred:
            candidates.append(self._deferred[0][0])
        if self.scheduler.abort_expired:
            for job in self.ready:
                if job.task.abortable and job.termination > t + EPS_TIME:
                    candidates.append(job.termination)
        return min(candidates) if candidates else None

    def stats(self) -> dict:
        """JSON-friendly counter snapshot (``/stats``, load reports)."""
        out = dict(self.counters)
        out["ready_depth"] = len(self.ready)
        out["deferred_pending"] = len(self._deferred)
        out["utility_accrued"] = self.utility_accrued
        out["uam_violations"] = self.monitor.total_violations
        out["tasks"] = len(self._tasks)
        out["events"] = (
            len(self.observer.events) if self.observer.events is not None else 0
        )
        return out
