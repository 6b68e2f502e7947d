"""Scheduler interface.

A scheduler is invoked by the engine at every scheduling event — job
arrival, job completion, and expiration of a time constraint (paper
Section 3.2) — and returns a :class:`Decision`: which pending job to
execute, at which frequency, and which pending jobs to abort.

Schedulers see only the statistical budget (the Chebyshev allocation
``c_i`` and executed cycles), never a job's true remaining demand.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cpu import EnergyModel, FrequencyScale
from .job import Job
from .task import Task, TaskSet

__all__ = [
    "Scheduler",
    "SchedulerView",
    "Decision",
    "SchedulingEvent",
    "ArrivalWindow",
    "pending_of_reference",
]


class ArrivalWindow:
    """Immutable window over an append-only per-task release log.

    The engine keeps one monotonically growing list of release times per
    task and trims the trailing UAM window by advancing a head index —
    entries are never deleted.  A snapshot therefore only needs the
    ``(log, start, stop)`` triple: it stays valid (and cheap — no copy)
    for the lifetime of the view that captured it, preserving the
    snapshot-stability contract the old per-decision list copies gave.

    Supports the small sequence surface the schedulers use: ``len``,
    indexing (including negative indices), iteration, and equality
    against any sequence.
    """

    __slots__ = ("_log", "_start", "_stop")

    def __init__(self, log: Sequence[float], start: int = 0, stop: Optional[int] = None):
        self._log = log
        self._start = start
        self._stop = len(log) if stop is None else stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._log[self._start : self._stop])[index]
        n = self._stop - self._start
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("ArrivalWindow index out of range")
        return self._log[self._start + index]

    def __iter__(self):
        return iter(self._log[self._start : self._stop])

    def __eq__(self, other) -> bool:
        try:
            return list(self) == list(other)
        except TypeError:
            return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrivalWindow({list(self)!r})"


#: Sort key shared by the cached and reference pending-job orderings.
def _pending_key(job: Job) -> Tuple[float, float, int]:
    return (job.critical_time, job.release, job.index)


def pending_of_reference(ready: Sequence[Job], task: Task) -> List[Job]:
    """The original one-shot scan: filter ``ready`` by task, sort by
    absolute critical time.  Retained as the equivalence oracle for the
    per-view pending cache (``tests/core/test_kernel_equivalence.py``)."""
    jobs = [j for j in ready if j.task is task]
    jobs.sort(key=_pending_key)
    return jobs


class SchedulingEvent(enum.Enum):
    """What triggered the scheduler invocation."""

    START = "start"
    ARRIVAL = "arrival"
    COMPLETION = "completion"
    EXPIRY = "expiry"
    ABORT = "abort"


@dataclass(frozen=True)
class Decision:
    """Outcome of one scheduler invocation.

    ``job is None`` means idle until the next event.  ``frequency`` must
    be a level of the platform's frequency scale (ignored when idling).
    ``aborts`` are pending jobs the scheduler drops (EUA* line 10).
    """

    job: Optional[Job]
    frequency: float
    aborts: Tuple[Job, ...] = ()


class SchedulerView:
    """Snapshot of scheduler-visible state at a decision point."""

    __slots__ = (
        "time",
        "ready",
        "taskset",
        "scale",
        "energy_model",
        "event",
        "_arrivals_in_window",
        "energy_consumed",
        "_pending",
        "dvs",
    )

    def __init__(
        self,
        time: float,
        ready: Sequence[Job],
        taskset: TaskSet,
        scale: FrequencyScale,
        energy_model: EnergyModel,
        event: SchedulingEvent,
        arrivals_in_window: Dict[str, List[float]],
        energy_consumed: float = 0.0,
        dvs: bool = True,
    ):
        #: Current simulation time ``t_cur``.
        self.time = time
        #: Pending jobs (may include expired jobs for no-abort policies).
        #: **Snapshot contract:** this list is copied at construction,
        #: never aliased to the engine's live ready list — observers and
        #: checkers may retain a view across the engine's abort pass and
        #: still see the membership that existed at decision time.  (The
        #: :class:`Job` objects themselves are shared and mutable; only
        #: the membership is frozen.)
        self.ready: List[Job] = list(ready)
        self.taskset = taskset
        self.scale = scale
        self.energy_model = energy_model
        #: The triggering event kind.
        self.event = event
        #: Per task name: release *times* within the trailing UAM window.
        self._arrivals_in_window = arrivals_in_window
        #: Total system energy consumed so far (busy + idle + switches).
        #: Used by energy-budget-aware extensions (repro.ext).
        self.energy_consumed = energy_consumed
        #: Whether a DVS frequency decision is wanted alongside the job
        #: pick.  The global multicore engine sets this ``False`` on the
        #: shared top-m selection views: a frequency computed over the
        #: whole m-core demand is meaningless for any single core (it
        #: pins to ``f_max``), so the engine asks for per-core
        #: frequencies separately via :meth:`Scheduler.decide_frequency`
        #: over per-core residual views.
        self.dvs = dvs
        #: Lazily built ``id(task) -> sorted pending jobs`` cache.  The
        #: view's ready membership is frozen at construction, so one
        #: grouping pass serves every ``pending_of``-family query of the
        #: decision point instead of a scan-and-sort per call.
        self._pending: Optional[Dict[int, List[Job]]] = None

    # ------------------------------------------------------------------
    def _pending_map(self) -> Dict[int, List[Job]]:
        cache = self._pending
        if cache is None:
            cache = {}
            for job in self.ready:
                key = id(job.task)
                group = cache.get(key)
                if group is None:
                    cache[key] = [job]
                else:
                    group.append(job)
            for group in cache.values():
                if len(group) > 1:
                    group.sort(key=_pending_key)
            self._pending = cache
        return cache

    def pending_of(self, task: Task) -> List[Job]:
        """Pending jobs of ``task`` ordered by absolute critical time.

        Returns a fresh list (callers may mutate it); ordering is
        bit-identical to :func:`pending_of_reference`, which pins the
        cached grouping against the original scan-and-sort.
        """
        group = self._pending_map().get(id(task))
        return list(group) if group else []

    def head_job_of(self, task: Task) -> Optional[Job]:
        """Earliest-critical-time pending job of ``task``."""
        group = self._pending_map().get(id(task))
        return group[0] if group else None

    def arrivals_in_window(self, task: Task) -> int:
        """Releases of ``task`` within its trailing UAM window ``P_i``."""
        return len(self._arrivals_in_window.get(task.name, ()))

    def recent_arrival_times(self, task: Task) -> List[float]:
        """Release times of ``task`` within its trailing UAM window."""
        return list(self._arrivals_in_window.get(task.name, ()))

    def next_admissible_arrival(self, task: Task) -> float:
        """Earliest instant the UAM envelope admits another release.

        With fewer than ``a`` releases in the trailing window a new job
        may arrive *now*; otherwise not before the a-th most recent
        release plus ``P``.
        """
        recent = self._arrivals_in_window.get(task.name, ())
        a = task.uam.max_arrivals
        if len(recent) < a:
            return self.time
        return max(self.time, recent[-a] + task.uam.window)

    def remaining_window_cycles(self, task: Task) -> float:
        """``C_i^r`` — remaining budgeted cycles of the current window.

        Paper Section 3.3: EUA* "keeps track of the remaining
        computation cycles ``C_i^r``" per UAM window, considering at
        most ``a_i`` instances even when leftover jobs from the
        previous window inflate the actual count ``a\'_i``.  Two parts:

        * **pending work** — ``(min(a_i, a\'_i) − 1)·c_i + c^r`` with
          ``c^r`` the earliest pending job\'s remaining budget;
        * **arrival hedge** — the UAM envelope still admits
          ``a_i − (arrivals seen in the trailing window)`` further
          releases *at any instant*; each must be budgeted ``c_i``.
          This is the slack-estimation term the paper\'s Figure 3
          discussion turns on: for periodic tasks (``⟨1, P⟩``) the
          trailing window always holds exactly one arrival, so the
          hedge vanishes and deferral is maximally aggressive, while
          bursty specs (``a > 1``) with unspent arrival budget force
          conservative (higher-frequency) operating points.

        The sum is capped at the window total ``C_i = a_i·c_i``.
        """
        a = task.uam.max_arrivals
        c = task.allocation
        pending = self._pending_map().get(id(task), ())
        if pending:
            head_remaining = pending[0].remaining_budget
            count = min(a, len(pending))
            work = (count - 1) * c + head_remaining
        else:
            work = 0.0
        unseen = max(0, a - self.arrivals_in_window(task))
        return min(work + unseen * c, a * c)

    def without(self, jobs: Sequence[Job]) -> "SchedulerView":
        """A copy of the view with ``jobs`` removed from the ready set.

        Used by policies that decide to abort jobs and then reason about
        the remaining workload (e.g. EUA*'s DVS step must not budget
        cycles for jobs it just dropped).
        """
        dropped = set(id(j) for j in jobs)
        return SchedulerView(
            time=self.time,
            ready=[j for j in self.ready if id(j) not in dropped],
            taskset=self.taskset,
            scale=self.scale,
            energy_model=self.energy_model,
            event=self.event,
            arrivals_in_window=self._arrivals_in_window,
            energy_consumed=self.energy_consumed,
            dvs=self.dvs,
        )

    def earliest_critical_time(self, task: Task) -> float:
        """``D_i^a`` — the earliest pending invocation's absolute critical
        time, or ``t + D_i`` for a task with nothing pending (a new UAM
        window may open now)."""
        head = self.head_job_of(task)
        if head is not None:
            return head.critical_time
        return self.time + task.critical_time


class Scheduler(ABC):
    """Base class for all scheduling policies.

    Attributes
    ----------
    name:
        Display name used in reports and the registry.
    abort_expired:
        Whether the engine should abort a pending job when its
        termination time passes (the exception-handler semantics of
        Section 2.2).  ``False`` reproduces the `-NA` (no-abort)
        comparison policies, which keep executing stale jobs.
    observer:
        Optional :class:`repro.obs.Observer` the policy emits decision
        records and timings to.  ``None`` (the default) disables all
        instrumentation; the engine binds its own observer here before
        :meth:`setup` so schedulers and engine write to the same sinks.
    """

    name: str = "scheduler"
    abort_expired: bool = True
    observer = None  # type: ignore[assignment]  # Optional[repro.obs.Observer]

    def bind_observer(self, observer) -> None:
        """Attach (or with ``None``, detach) an observability sink."""
        self.observer = observer

    def setup(self, taskset: TaskSet, scale: FrequencyScale, energy_model: EnergyModel) -> None:
        """One-time initialisation before the simulation starts.

        Corresponds to the paper's ``offlineComputing()`` hook; the
        default does nothing.
        """

    @abstractmethod
    def decide(self, view: SchedulerView) -> Decision:
        """Pick the job to execute and the operating frequency."""

    def decide_frequency(self, view: SchedulerView, job: Job) -> Optional[float]:
        """Frequency for running ``job`` against ``view``'s demand.

        Invoked by the global multicore engine once per assigned core
        with a *per-core residual view* (the core's own pick plus its
        deterministic share of the background demand) after the top-m
        selection round ran with ``view.dvs = False``.  Returning
        ``None`` (the default) tells the engine to keep the frequency
        of the selection-round :class:`Decision` — correct for
        fixed-frequency policies like EDF.  The engine skips the whole
        per-core pass (task split, residual views, these calls) for a
        policy that does not override this method.
        """
        return None

    def on_completion(self, job: Job, time: float) -> None:
        """Engine callback after a job completes.

        ``job.executed`` now holds the *actual* cycles consumed —
        cycle-conserving policies use this to reclaim over-provisioned
        budget.  Default: ignore.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
