"""Discrete-event simulation engine.

A preemptive processor with DVS — one core, or ``m`` identical cores
sharing one ready queue — driven by any
:class:`~repro.sched.base.Scheduler`.  The engine owns ground truth
(true job demands); the scheduler sees only budgets and executed cycles.

Event model
-----------
The scheduler is (re-)invoked at exactly the paper's scheduling events:

* **arrival** of a job,
* **completion** of a job,
* **expiration of a time constraint** (a TUF termination time).

Between events the chosen job runs at the chosen frequency.  The engine
advances time to the earliest of: next arrival, next relevant
termination, predicted completion of a running job, or the horizon —
then applies state changes and re-invokes the scheduler.

Abortion semantics (paper Section 2.2): when a pending job's
termination time is reached, an exception is raised which aborts the job
(status ``EXPIRED``).  Policies with ``abort_expired = False`` (the
`-NA` baselines) suppress this, so stale jobs keep executing and accrue
zero utility — the domino-effect regime of the evaluation.  Exception
handlers are modelled as zero-cost (the paper does not charge them).

Dispatch slots: each event fills up to ``m`` slots, one per core; at
``m = 1`` that is one ``decide`` call, the uniprocessor.  At ``m > 1``
(global scheduling) ``decide`` is re-invoked over residual views with
``dvs=False`` — a frequency priced over all m cores' demand pins to
``f_max`` — and each busy core then gets its own frequency from
``Scheduler.decide_frequency`` over a per-core residual view.  Policies
that keep the default ``decide_frequency`` (which returns ``None``: keep
the selection-round frequency) skip that per-core pass entirely.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..cpu import EnergyModel, FrequencyScale, Processor, ProcessorStats
from ..demand import DemandProfiler
from ..obs import EventKind, Observer
from .clock import Clock, as_clock
from .scheduler import ArrivalWindow, Scheduler, SchedulerView, SchedulingEvent
from .job import Job, JobStatus
from .metrics import Metrics
from .task import TaskSet
from .trace import Trace, TraceEventKind
from .workload import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime imports sim)
    from ..check import InvariantChecker
    from ..runtime import AdaptiveRuntime

__all__ = ["Engine", "SimulationResult", "SimulationError", "ViewBuilder"]

#: Cycle tolerance: a job with fewer remaining Mcycles is complete.
EPS_CYCLES = 1e-9
#: Time tolerance for event coincidence.
EPS_TIME = 1e-12

#: One executed/idle interval of one core: (start, end, job key or None,
#: frequency).  Same shape as :class:`repro.sim.trace.Segment`.
CoreSegment = Tuple[float, float, Optional[str], float]


class SimulationError(RuntimeError):
    """Raised when the engine detects an inconsistent run."""


class ViewBuilder:
    """Builds the scheduler-visible snapshot for one decision point.

    :meth:`record` logs a release; :meth:`build` trims every task's log
    to its trailing UAM window and returns a :class:`SchedulerView` over
    the caller's live ready list (which the view copies, so a retained
    view stays membership-stable).  The engine and the service core
    (:class:`repro.svc.ServiceCore`) both build their views here.

    Each per-task release log is append-only and trimmed by advancing a
    head index, so an :class:`~repro.sim.scheduler.ArrivalWindow`
    snapshot handed out stays valid after the caller moves on.  The
    snapshot is cached until the next append or trim, so unchanged
    windows are shared between consecutive decision points.
    """

    __slots__ = ("taskset", "scale", "energy_model", "_windows", "_by_name")

    def __init__(self, taskset: TaskSet, scale: FrequencyScale, energy_model: EnergyModel):
        self.taskset = taskset
        self.scale = scale
        self.energy_model = energy_model
        #: Per task: [release log, head, cached snapshot, name, UAM window].
        self._windows: List[list] = [
            [[], 0, None, task.name, task.uam.window] for task in taskset
        ]
        self._by_name: Dict[str, list] = {w[3]: w for w in self._windows}

    def record(self, job: Job) -> None:
        """Log ``job``'s release in its task's arrival window."""
        w = self._by_name[job.task.name]
        w[0].append(job.release)
        w[2] = None

    def build(
        self,
        t: float,
        ready: List[Job],
        event: SchedulingEvent,
        energy_consumed: float = 0.0,
        dvs: bool = True,
    ) -> SchedulerView:
        counts: Dict[str, ArrivalWindow] = {}
        for w in self._windows:
            data, head, snap, name, window = w
            cutoff = t - window + EPS_TIME
            n = len(data)
            start = head
            while head < n and data[head] <= cutoff:
                head += 1
            if head != start:
                w[1] = head
                snap = None
            if snap is None:
                snap = w[2] = ArrivalWindow(data, head, n)
            counts[name] = snap
        return SchedulerView(
            time=t,
            ready=ready,
            taskset=self.taskset,
            scale=self.scale,
            energy_model=self.energy_model,
            event=event,
            arrivals_in_window=counts,
            energy_consumed=energy_consumed,
            dvs=dvs,
        )


class _CoreObserver:
    """Observer proxy that stamps every event with its core index.

    Duck-types the :class:`~repro.obs.Observer` surface the engine and
    schedulers touch (``emit``/``inc``/``set_gauge``/``observe``/
    ``record`` plus the ``events``/``metrics``/``profiler``/``spans``
    attributes).  All sinks are *shared* with the wrapped observer —
    only ``emit`` is intercepted, to inject ``core=k`` into the event's
    field dict.  Metric label cardinality is left untouched so m=1 runs
    aggregate identically to uniprocessor ones.
    """

    __slots__ = ("_obs", "core", "events", "metrics", "profiler", "spans")

    def __init__(self, obs: Observer, core: int):
        self._obs = obs
        self.core = core
        self.events = obs.events
        self.metrics = obs.metrics
        self.profiler = obs.profiler
        self.spans = obs.spans

    def emit(self, time, kind, job=None, source="engine", **fields) -> None:
        if self.events is not None:
            self.events.emit(time, kind, job, source, core=self.core, **fields)

    def inc(self, name, amount=1.0, **labels) -> None:
        self._obs.inc(name, amount, **labels)

    def set_gauge(self, name, value, **labels) -> None:
        self._obs.set_gauge(name, value, **labels)

    def observe(self, name, value, **labels) -> None:
        self._obs.observe(name, value, **labels)

    def record(self, name, seconds) -> None:
        self._obs.record(name, seconds)


def _combine_stats(per_core: List[ProcessorStats], uncore_energy: float = 0.0) -> ProcessorStats:
    """Sum per-core accounting; charge the uncore term as idle energy.

    Single-core sums reduce to ``0.0 + x`` which is exact for the
    non-negative accumulators involved, preserving m=1 bit-identity.
    """
    combined = ProcessorStats()
    for s in per_core:
        combined.energy += s.energy
        combined.cycles_executed += s.cycles_executed
        combined.busy_time += s.busy_time
        combined.idle_time += s.idle_time
        combined.idle_energy += s.idle_energy
        combined.switch_count += s.switch_count
        combined.switch_energy += s.switch_energy
        for f, dur in s.residency.items():
            combined.residency[f] = combined.residency.get(f, 0.0) + dur
    combined.idle_energy += uncore_energy
    return combined


def _place(
    picks: List[Tuple[Job, float]], last_exec_core: Dict[int, int], m: int
) -> List[Optional[Tuple[Job, float]]]:
    """Assign one event's picks to cores, affinity first: a job resumes
    on the core it last executed on while that core is free; any other
    pick takes the lowest free core."""
    assigned: List[Optional[Tuple[Job, float]]] = [None] * m
    free = set(range(m))
    for job, freq in picks:
        k = last_exec_core.get(id(job), -1)
        if k not in free:
            k = min(free)
        assigned[k] = (job, freq)
        free.discard(k)
    return assigned


class _TaskSplit:
    """One run's static inputs to the per-core task split (m > 1).

    :meth:`split` pins each picked job's task to its core, then deals
    the other tasks worst-fit by density (the offline partitioner's
    ordering), so every busy core prices roughly ``1/m`` of the
    background demand.  Tasks keep their allocations for the whole run
    (m > 1 rejects the adaptive runtime), so each task's
    ``min_feasible_frequency`` and the density order are computed here
    once instead of at every event; built per run, never shared, since
    a runtime may reallocate between runs.
    """

    __slots__ = ("taskset", "rates", "order", "_index", "_subsets")

    def __init__(self, taskset: TaskSet):
        self.taskset = taskset
        self.rates: List[float] = [task.min_feasible_frequency for task in taskset]
        # Same ordering key as repro.mp.partition.partition_taskset:
        # density desc, utility-per-cycle desc, index — deterministic.
        self.order: List[int] = sorted(
            range(len(self.rates)),
            key=lambda i: (
                -self.rates[i],
                -(taskset[i].tuf.max_utility / taskset[i].allocation),
                i,
            ),
        )
        self._index: Dict[int, int] = {id(task): i for i, task in enumerate(taskset)}
        self._subsets: Dict[Tuple[int, ...], Tuple[TaskSet, frozenset]] = {}

    def split(
        self, assigned: List[Optional[Tuple[Job, float]]]
    ) -> Tuple[List[List[int]], List[float]]:
        """Per-core task indices and their summed rates for one event.

        A task picked on several cores at once (rare: multiple pending
        jobs of one task) is pinned to each, so every core's own
        dispatch is always covered by its share.  Each core's load is
        its pinned task's rate plus its dealt tasks' in density order.
        """
        m = len(assigned)
        rates = self.rates
        loads = [0.0] * m
        members: List[List[int]] = [[] for _ in range(m)]
        pinned = set()
        for k in range(m):
            pick = assigned[k]
            if pick is not None:
                i = self._index.get(id(pick[0].task))
                if i is not None:
                    pinned.add(i)
                    members[k].append(i)
                    loads[k] += rates[i]
        for i in self.order:
            if i in pinned:
                continue
            # Least-loaded core, lowest index on ties.
            k = loads.index(min(loads))
            members[k].append(i)
            loads[k] += rates[i]
        return members, loads

    def subset(self, members: List[int]) -> Tuple[TaskSet, frozenset]:
        """The :class:`TaskSet` of ``members`` (in task-set order) and
        its task ids, memoised per member set."""
        key = tuple(sorted(members))
        hit = self._subsets.get(key)
        if hit is None:
            tasks = [self.taskset[i] for i in key]
            hit = self._subsets[key] = (TaskSet(tasks), frozenset(id(t) for t in tasks))
        return hit


@dataclass
class SimulationResult:
    """Everything a run produces."""

    scheduler_name: str
    metrics: Metrics
    processor_stats: ProcessorStats
    jobs: List[Job]
    horizon: float
    trace: Optional[Trace] = None

    @property
    def normalized_utility(self) -> float:
        return self.metrics.normalized_utility

    @property
    def energy(self) -> float:
        return self.metrics.energy


class Engine:
    """One simulation run binding a workload, a scheduler and a CPU.

    ``processor`` is one :class:`~repro.cpu.Processor`, or a list of
    them sharing one ready queue; the list form also records
    :attr:`core_segments`.  More than one core rejects DVS switch *time*
    (a per-core stall has no global-time treatment in this event model;
    switch energy is still charged) and the single-core attachments:
    adaptive runtime, invariant checker and :class:`Trace`.
    """

    def __init__(
        self,
        workload: WorkloadTrace,
        scheduler: Scheduler,
        processor: Union[Processor, Sequence[Processor]],
        record_trace: bool = False,
        profiler: Optional[DemandProfiler] = None,
        observer: Optional[Observer] = None,
        runtime: Optional["AdaptiveRuntime"] = None,
        checker: Optional["InvariantChecker"] = None,
        clock: Union[None, str, Clock] = None,
    ):
        per_core = isinstance(processor, (list, tuple))
        cores: List[Processor] = list(processor) if per_core else [processor]
        if len(cores) > 1:
            if any(cpu.switch_time > 0.0 for cpu in cores):
                raise SimulationError(
                    "m > 1 cores do not support switch_time > 0 "
                    "(per-core DVS stalls are ill-defined under global time); "
                    "use partitioned mode or switch_energy-only overheads"
                )
            if runtime is not None or checker is not None or record_trace:
                raise SimulationError(
                    "the adaptive runtime, invariant checker and trace are "
                    "single-core attachments; m > 1 cores reject them"
                )
        self.workload = workload
        self.scheduler = scheduler
        self.cores = cores
        self.processor = cores[0]
        self.record_trace = bool(record_trace)
        self.profiler = profiler
        self.observer = observer
        self.runtime = runtime
        self.checker = checker
        #: Time source.  ``None``/``"sim"`` keep discrete-event jumps;
        #: a non-virtual clock (``"wall"``) makes the loop *wait* for
        #: each event instant before applying it (see repro.sim.clock).
        self.clock = as_clock(clock)
        self.trace: Optional[Trace] = Trace() if record_trace else None
        #: Per-core positive-length execution/idle intervals, recorded
        #: when ``processor`` is given as a list.
        self.core_segments: Optional[List[List[CoreSegment]]] = (
            [[] for _ in cores] if per_core else None
        )
        #: Resumptions on a different core than the job last executed on.
        self.migrations = 0
        #: Core-stamping observer proxies for the per-core frequency
        #: decisions (FREQ_DECISION events carry ``core=k``; m > 1 only).
        self._core_obs: Optional[List[_CoreObserver]] = (
            [_CoreObserver(observer, k) for k in range(len(cores))]
            if observer is not None and len(cores) > 1
            else None
        )

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the simulation.

        The loop runs under ``try/finally`` so an attached adaptive
        runtime's ``finalize()`` always restores the task allocations it
        may have mutated — even when the run raises — keeping task sets
        safe to share across arms.
        """
        ck = self.checker
        if ck is not None:
            ck.bind(self.workload.taskset, self.processor, self.scheduler, self.observer)
        rt = self.runtime
        if rt is not None:
            rt.bind(
                self.workload.taskset,
                self.processor.scale,
                self.processor.model,
                self.scheduler,
                self.observer,
            )
        try:
            result = self._run()
        finally:
            if rt is not None:
                rt.finalize()
        if ck is not None:
            ck.on_result(result)
        return result

    def _run(self) -> SimulationResult:
        """Span-tracing shim around the dispatch loop.

        With a tracer attached the whole run nests under one
        ``engine.run`` root span (so phase self-times tile the measured
        wall-clock); without one this is a tail call — the disabled
        path stays exactly the loop it always was.
        """
        obs = self.observer
        sp = obs.spans if obs is not None else None
        if sp is None:
            return self._run_loop()
        sp.enter("engine.run")
        try:
            return self._run_loop()
        finally:
            sp.exit()

    def _run_loop(self) -> SimulationResult:
        taskset: TaskSet = self.workload.taskset
        horizon = self.workload.horizon
        scheduler = self.scheduler
        cores = self.cores
        m = len(cores)
        multi = m > 1
        slots = range(m)
        trace = self.trace
        segments = self.core_segments

        # Observability: `obs is None` must stay the zero-cost default —
        # every instrumentation site below is guarded by one branch.
        obs = self.observer
        if obs is not None:
            scheduler.bind_observer(obs)
        profiling = obs is not None and obs.profiler is not None
        # Span tracing: `tracing` is hoisted exactly like `profiling`,
        # so a detached tracer costs one predictable branch per phase.
        sp = obs.spans if obs is not None else None
        tracing = sp is not None
        #: Per-core event fields: ``core=k`` at m > 1, none at m = 1 so
        #: uniprocessor logs keep their wire format.
        stamps: List[Dict[str, int]] = [{"core": k} for k in range(m)] if multi else [{}]

        scale = cores[0].scale
        scheduler.setup(taskset, scale, cores[0].model)
        # The per-core frequency pass (m > 1) runs only for policies that
        # override `decide_frequency`: the default returns None and emits
        # nothing, so skipping it is invisible.  The base method is
        # looked up now, not at import, so a wrapper installed on the
        # base class itself still counts as the default.
        split: Optional[_TaskSplit] = None
        if multi and type(scheduler).decide_frequency is not Scheduler.decide_frequency:
            split = _TaskSplit(taskset)

        jobs: List[Job] = [
            Job(spec.task, spec.index, spec.release, spec.demand) for spec in self.workload
        ]
        n_jobs = len(jobs)
        arrival_idx = 0
        #: Release instants in arrival order — jobs[k].release hoisted so
        #: the event-search loop reads a list slot, not a property.
        releases: List[float] = [job.release for job in jobs]
        ready: List[Job] = []
        views = ViewBuilder(taskset, scale, cores[0].model)

        # Adaptive runtime (optional): deferred re-releases wait here,
        # ordered by their granted release instant (seq breaks ties —
        # jobs are not comparable).
        rt = self.runtime
        # Invariant checker (optional): observe-only hooks, same
        # zero-cost-when-detached contract as `obs` and `rt`.
        ck = self.checker
        # Real-time driver (optional): with a non-virtual clock attached
        # the loop waits for each event instant (arrival, predicted
        # completion, termination deadline) before applying it.  The
        # virtual path adds exactly one boolean branch per iteration —
        # no new float operations — so sim runs stay bit-identical.
        clk = self.clock
        realtime = clk is not None and not clk.virtual
        if clk is not None:
            clk.start()
        deferred_heap: List[Tuple[float, int, Job]] = []
        deferred_seq = 0

        t = 0.0
        event = SchedulingEvent.START
        #: Job executing on each core in the most recent segment
        #: (preemption detection).
        last_running: List[Optional[Job]] = [None] * m
        #: id(job) -> core the job last *executed* on (m > 1 migrations).
        last_exec_core: Dict[int, int] = {}
        # Progress guard: every iteration must either advance time or
        # change the job population; bound the zero-progress streak.
        stall_guard = 0
        max_stall = 4 * n_jobs + 64

        while True:
            advanced = False

            # --- release arrivals due now -----------------------------
            # Deferred re-releases (runtime `defer` policy) and fresh
            # arrivals drain through the same gate; with no runtime the
            # heap stays empty and the gate is a straight admit.
            if tracing:
                sp.enter("engine.release")
            while True:
                if deferred_heap and deferred_heap[0][0] <= t + EPS_TIME:
                    job = heapq.heappop(deferred_heap)[2]
                    from_deferred = True
                elif arrival_idx < n_jobs and releases[arrival_idx] <= t + EPS_TIME:
                    job = jobs[arrival_idx]
                    arrival_idx += 1
                    from_deferred = False
                else:
                    break
                event = SchedulingEvent.ARRIVAL
                advanced = True
                if rt is not None:
                    verdict = rt.on_arrival(job, t, ready, deferred=from_deferred)
                    if verdict.action == "shed":
                        job.status = JobStatus.SHED
                        job.abort_time = t
                        if trace is not None:
                            trace.add_event(t, TraceEventKind.ABORT, job.key)
                        continue
                    if verdict.action == "defer":
                        job.release = verdict.release
                        heapq.heappush(deferred_heap, (job.release, deferred_seq, job))
                        deferred_seq += 1
                        continue
                    for victim in verdict.evictions:
                        victim.status = JobStatus.SHED
                        victim.abort_time = t
                        ready.remove(victim)
                        if trace is not None:
                            trace.add_event(t, TraceEventKind.ABORT, victim.key)
                ready.append(job)
                views.record(job)
                if ck is not None:
                    ck.on_release(job, t)
                if trace is not None:
                    trace.add_event(t, TraceEventKind.RELEASE, job.key)
                if obs is not None:
                    obs.emit(t, EventKind.RELEASE, job.key,
                             release=job.release, termination=job.termination)
                    obs.inc("jobs_released", task=job.task.name)

            if tracing:
                sp.exit()  # engine.release
                sp.enter("engine.expiry")

            # --- raise termination exceptions -------------------------
            if scheduler.abort_expired:
                t_eps = t + EPS_TIME
                expired: List[Job] = []
                for j in ready:
                    if j.termination <= t_eps and j.task.abortable:
                        expired.append(j)
                for job in expired:
                    job.status = JobStatus.EXPIRED
                    job.abort_time = t
                    ready.remove(job)
                    if trace is not None:
                        trace.add_event(t, TraceEventKind.EXPIRE, job.key)
                    if obs is not None:
                        obs.emit(t, EventKind.EXPIRE, job.key,
                                 executed=job.executed, demand=job.demand)
                        obs.inc("jobs_expired", task=job.task.name)
                    event = SchedulingEvent.EXPIRY
                    advanced = True

            if tracing:
                sp.exit()  # engine.expiry

            if t >= horizon - EPS_TIME:
                break

            # --- consult the scheduler: fill up to m slots ------------
            if tracing:
                sp.enter("engine.snapshot")
            energy = 0.0
            for cpu in cores:
                energy += cpu.stats.total_energy
            view = views.build(t, ready, event, energy, dvs=not multi)
            if obs is not None:
                obs.set_gauge("queue_depth", len(ready))
                obs.observe("queue_depth_samples", len(ready))
                obs.inc("scheduler_invocations", event=event.value)
            if tracing:
                sp.exit()  # engine.snapshot

            picks: List[Tuple[Job, float]] = []
            working = view
            for slot in slots:
                if tracing:
                    sp.enter("engine.decide")
                if profiling:
                    t0 = perf_counter()
                    decision = scheduler.decide(working)
                    obs.record("engine.decide", perf_counter() - t0)
                else:
                    decision = scheduler.decide(working)
                if tracing:
                    sp.exit()  # engine.decide
                if ck is not None:
                    ck.on_decision(working, decision, scheduler)
                for job in decision.aborts:
                    if job.is_finished:
                        raise SimulationError(f"scheduler aborted finished job {job.key}")
                    job.status = JobStatus.ABORTED
                    job.abort_time = t
                    if job in ready:
                        ready.remove(job)
                    if trace is not None:
                        trace.add_event(t, TraceEventKind.ABORT, job.key)
                    if obs is not None:
                        obs.emit(t, EventKind.ABORT, job.key,
                                 executed=job.executed, budget=job.allocated)
                        obs.inc("jobs_aborted", task=job.task.name)
                    advanced = True
                picked = decision.job
                if picked is None:
                    break
                if picked not in ready:
                    raise SimulationError(f"scheduler selected non-ready job {picked.key}")
                picks.append((picked, decision.frequency))
                if slot + 1 < m:
                    working = working.without([picked, *decision.aborts])

            if multi:
                assigned = _place(picks, last_exec_core, m)
                if picks and split is not None:
                    self._decide_core_frequencies(view, assigned, split)
            else:
                assigned = picks if picks else [None]

            running: List[Optional[Job]] = [None] * m
            #: Earliest predicted completion among the dispatched jobs.
            t_complete = math.inf
            for k in slots:
                pick = assigned[k]
                if pick is None:
                    continue
                job, freq = pick
                running[k] = job
                cpu = cores[k]
                freq_before = cpu.frequency
                switch_overhead = cpu.set_frequency(freq)
                if switch_overhead > 0.0:
                    # Charge the DVS transition as stalled (non-executing)
                    # time (m = 1 only; see the constructor).
                    cpu.idle(switch_overhead)
                    if ck is not None:
                        ck.on_idle(switch_overhead)
                    t = min(horizon, t + switch_overhead)
                if cpu.frequency != freq_before:
                    if trace is not None:
                        trace.add_event(t, TraceEventKind.FREQ, value=cpu.frequency)
                    if obs is not None:
                        obs.emit(t, EventKind.FREQ_SWITCH, job.key,
                                 frequency=cpu.frequency, previous=freq_before,
                                 overhead=switch_overhead, **stamps[k])
                        obs.inc("freq_switches")
                t_k = t + job.remaining_demand / cpu.frequency
                if t_k < t_complete:
                    t_complete = t_k

            if obs is not None:
                for k in slots:
                    job = running[k]
                    prev = last_running[k]
                    if job is prev:
                        continue
                    if prev is not None and job is not None and prev.status is JobStatus.PENDING:
                        obs.emit(t, EventKind.PREEMPT, prev.key,
                                 preempted_by=job.key, **stamps[k])
                        obs.inc("preemptions")
                    if job is not None:
                        obs.emit(t, EventKind.DISPATCH, job.key,
                                 frequency=cores[k].frequency,
                                 remaining_budget=job.remaining_budget, **stamps[k])
                        obs.inc("dispatches", task=job.task.name)

            # --- find the next event -----------------------------------
            if tracing:
                sp.enter("engine.advance")
            t_arrival = releases[arrival_idx] if arrival_idx < n_jobs else math.inf
            if deferred_heap:
                t_arrival = min(t_arrival, deferred_heap[0][0])
            t_term = math.inf
            if scheduler.abort_expired:
                t_eps = t + EPS_TIME
                for j in ready:
                    j_term = j.termination
                    if j_term < t_term and j_term > t_eps and j.task.abortable:
                        t_term = j_term
            t_next = min(horizon, t_arrival, t_term, t_complete)
            if t_next < t:
                t_next = t  # coincident events; process without moving
            if realtime:
                # Deadline timer: block until the event instant passes
                # on the wall clock (lag lands in clk.drift), then apply
                # exactly the simulated state change.
                clk.wait_until(t_next)

            # --- advance ------------------------------------------------
            dt = t_next - t
            for k in slots:
                cpu = cores[k]
                job = running[k]
                if job is not None:
                    if multi and dt > 0.0:
                        prev_core = last_exec_core.get(id(job))
                        if prev_core is not None and prev_core != k:
                            self.migrations += 1
                            if obs is not None:
                                obs.emit(t, EventKind.MIGRATE, job.key,
                                         core=k, previous_core=prev_core)
                                obs.inc("migrations", task=job.task.name)
                        last_exec_core[id(job)] = k
                    executed = cpu.run(dt)
                    job.executed += executed
                    if ck is not None:
                        ck.on_segment(t, t_next, cpu.frequency, executed)
                    if trace is not None:
                        trace.add_segment(t, t_next, job.key, cpu.frequency)
                    if segments is not None and dt > 0.0:
                        segments[k].append((t, t_next, job.key, cpu.frequency))
                else:
                    cpu.idle(dt)
                    if ck is not None:
                        ck.on_idle(dt)
                    if trace is not None:
                        trace.add_segment(t, t_next, None, cpu.frequency)
                    if segments is not None and dt > 0.0:
                        segments[k].append((t, t_next, None, cpu.frequency))
                if obs is not None and dt > 0.0:
                    obs.inc("cpu_residency_seconds", dt,
                            mhz=f"{cpu.frequency:g}",
                            state="busy" if job is not None else "idle")
            if obs is not None:
                last_running = list(running)
            if dt > 0.0:
                advanced = True
            t = t_next
            if tracing:
                sp.exit()  # engine.advance
                sp.enter("engine.complete")

            # --- completion --------------------------------------------
            for k in slots:
                job = running[k]
                if job is None or job.remaining_demand > EPS_CYCLES:
                    continue
                job.status = JobStatus.COMPLETED
                job.completion_time = t
                job.accrued_utility = job.utility_at(t)
                ready.remove(job)
                if ck is not None:
                    ck.on_completion(job, t)
                scheduler.on_completion(job, t)
                if rt is not None:
                    rt.on_completion(job, t)
                if self.profiler is not None:
                    self.profiler.record(job.task.name, job.executed)
                if trace is not None:
                    trace.add_event(t, TraceEventKind.COMPLETE, job.key, job.accrued_utility)
                if obs is not None:
                    obs.emit(t, EventKind.COMPLETE, job.key,
                             utility=job.accrued_utility,
                             sojourn=t - job.release, **stamps[k])
                    obs.inc("jobs_completed", task=job.task.name)
                    obs.observe("sojourn_seconds", t - job.release)
                    last_running[k] = None
                event = SchedulingEvent.COMPLETION
                advanced = True

            if tracing:
                sp.exit()  # engine.complete

            if not advanced:
                stall_guard += 1
                if stall_guard > max_stall:
                    raise SimulationError(
                        f"no progress at t={t} (scheduler {scheduler.name!r} idles "
                        f"with {len(ready)} ready jobs and no future events)"
                    )
                # Nothing happened and nothing will: if no future events
                # exist and the scheduler idles, we are done early.
                if not picks and arrival_idx >= n_jobs and not deferred_heap and t_term is math.inf:
                    break
            else:
                stall_guard = 0

        stats = cores[0].stats if m == 1 else _combine_stats([cpu.stats for cpu in cores])
        metrics = Metrics(taskset, jobs, stats, horizon)
        return SimulationResult(
            scheduler_name=scheduler.name,
            metrics=metrics,
            processor_stats=stats,
            jobs=jobs,
            horizon=horizon,
            trace=trace,
        )

    # ------------------------------------------------------------------
    def _decide_core_frequencies(
        self,
        view: SchedulerView,
        assigned: List[Optional[Tuple[Job, float]]],
        split: _TaskSplit,
    ) -> None:
        """Per-core ``decideFreq`` over residual demand views (m > 1).

        ``split`` divides the taskset per core (see :class:`_TaskSplit`),
        so every busy core prices roughly ``1/m`` of the background
        demand.  Each busy core then gets ``scheduler.decide_frequency``
        over its residual view: its task share, minus jobs dispatched
        elsewhere and jobs aborted this event.  ``None`` keeps the
        selection-round frequency.  Updates ``assigned`` in place; job
        selection is untouched.
        """
        scheduler = self.scheduler
        members, _ = split.split(assigned)

        # Dispatched jobs leave every other core's view.
        busy = {id(p[0]) for p in assigned if p is not None}
        core_obs = self._core_obs
        for k in range(len(assigned)):
            pick = assigned[k]
            if pick is None:
                continue
            job = pick[0]
            sub_taskset, subset_ids = split.subset(members[k])
            sub_view = SchedulerView(
                time=view.time,
                ready=[
                    j
                    for j in view.ready
                    if id(j.task) in subset_ids
                    and j.status is not JobStatus.ABORTED
                    and (j is job or id(j) not in busy)
                ],
                taskset=sub_taskset,
                scale=view.scale,
                energy_model=view.energy_model,
                event=view.event,
                arrivals_in_window=view._arrivals_in_window,
                energy_consumed=view.energy_consumed,
            )
            if core_obs is not None:
                scheduler.bind_observer(core_obs[k])
            try:
                freq = scheduler.decide_frequency(sub_view, job)
            finally:
                if core_obs is not None:
                    scheduler.bind_observer(self.observer)
            if freq is not None:
                assigned[k] = (job, freq)
