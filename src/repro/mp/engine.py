"""Multiprocessor simulation engines (partitioned & global EUA*).

Two execution models over ``m`` per-core :class:`~repro.cpu.Processor`
instances, both behind the existing :class:`~repro.sim.scheduler.SchedulerView`
contract so every uniprocessor policy runs unchanged:

* **partitioned** — tasks are assigned to cores offline
  (:func:`~repro.mp.partition.partition_taskset`) and each core runs the
  *unmodified* uniprocessor :class:`~repro.sim.engine.Engine` over its
  disjoint sub-workload.  No migrations, by construction.
* **global** — one shared ready queue, run by the same
  :class:`~repro.sim.engine.Engine` dispatch loop with ``m`` dispatch
  slots: at every scheduling event the policy's ``decide`` is invoked
  repeatedly over residual views (``view.without(...)``) to pick the
  top-m jobs by its own ordering (UER for EUA*), each with its own
  per-core frequency decision.  Jobs may resume on a different core
  than they last ran on; such migrations are counted and emitted as
  :attr:`~repro.obs.EventKind.MIGRATE`.

The anchoring oracle: at ``m = 1`` both modes reduce *bit-identically*
to the uniprocessor engine — partitioned because it runs that engine
per core, global because the uniprocessor is the m = 1 case of the one
loop.  ``tests/properties/test_mp_equivalence.py`` pins this.

Energy: each core integrates the per-core Martin model exactly as the
uniprocessor does; the platform additionally charges the
frequency-independent uncore share ``active_power`` per powered core
over the whole horizon (:class:`~repro.cpu.MulticorePowerModel`).  The
uncore term is folded into the combined ``idle_energy`` so existing
aggregate consumers (``Metrics``, normalisers, campaigns) see it
without modification; ``active_power = 0`` (the default) keeps m=1 runs
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from ..cpu import (
    EnergyModel,
    FrequencyScale,
    MPConfiguration,
    MulticorePowerModel,
    ProcessorStats,
    min_energy_configuration,
)
from ..obs import Observer
from ..sim.engine import (
    CoreSegment,
    Engine,
    SimulationError,
    SimulationResult,
    _combine_stats,
    _CoreObserver,
)
from ..sim.job import Job
from ..sim.metrics import Metrics
from ..sim.runner import Platform
from ..sim.scheduler import Scheduler
from ..sim.task import TaskSet
from ..sim.workload import WorkloadTrace
from .partition import Partition, partition_taskset

__all__ = [
    "MulticorePlatform",
    "MPSimulationResult",
    "simulate_partitioned",
    "simulate_global",
    "simulate_mp",
    "MP_MODES",
]

MP_MODES = ("partitioned", "global")

SchedulerSpecLike = Union[str, Scheduler, Callable[[], Scheduler]]


def _scheduler_factory(spec: SchedulerSpecLike) -> Callable[[], Scheduler]:
    """Normalise a scheduler spec into a fresh-instance factory.

    Accepts a registry name, a zero-arg factory, or a ready instance.
    An instance is wrapped in a single-shot factory: schedulers are
    stateful, so it may be consumed at most once (the partitioned
    engine needs one instance *per core*).
    """
    if isinstance(spec, str):
        from ..sched import make_scheduler

        return lambda: make_scheduler(spec)
    if isinstance(spec, Scheduler):
        box = [spec]

        def once() -> Scheduler:
            if not box:
                raise ValueError(
                    "a Scheduler instance can drive only one core; pass a "
                    "registry name or a factory for multicore runs"
                )
            return box.pop()

        return once
    return spec


class MulticorePlatform(Platform):
    """An m-core platform: shared ladder/model + uncore power term.

    Extends the uniprocessor :class:`~repro.sim.runner.Platform` with a
    core count and the frequency-independent per-active-core uncore
    power ``active_power``.  Every core gets an identical fresh
    :class:`~repro.cpu.Processor` (homogeneous platform — the paper's
    model has no heterogeneity to reproduce).
    """

    def __init__(
        self,
        cores: int = 1,
        scale: Optional[FrequencyScale] = None,
        energy_model: Optional[EnergyModel] = None,
        idle_power: float = 0.0,
        switch_time: float = 0.0,
        switch_energy: float = 0.0,
        active_power: float = 0.0,
    ):
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores!r}")
        super().__init__(
            scale=scale,
            energy_model=energy_model,
            idle_power=idle_power,
            switch_time=switch_time,
            switch_energy=switch_energy,
        )
        self.cores = int(cores)
        self.active_power = float(active_power)

    def power_model(self) -> MulticorePowerModel:
        """The platform's core-count-aware power model."""
        return MulticorePowerModel.martin(self.energy_model, self.active_power)

    def configuration(self, taskset: TaskSet) -> MPConfiguration:
        """Minimum-energy feasible (frequency, active-cores) pair for
        ``taskset`` on this platform (full power on overload)."""
        return min_energy_configuration(
            self.power_model(),
            self.scale,
            self.cores,
            [t.min_feasible_frequency for t in taskset],
        )

    @classmethod
    def from_platform(
        cls, platform: Platform, cores: int, active_power: float = 0.0
    ) -> "MulticorePlatform":
        return cls(
            cores=cores,
            scale=platform.scale,
            energy_model=platform.energy_model,
            idle_power=platform.idle_power,
            switch_time=platform.switch_time,
            switch_energy=platform.switch_energy,
            active_power=active_power,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MulticorePlatform(cores={self.cores}, scale={self.scale!r}, "
            f"energy_model={self.energy_model}, active_power={self.active_power})"
        )


@dataclass
class MPSimulationResult:
    """Everything a multicore run produces.

    ``metrics``/``processor_stats`` aggregate over all cores (uncore
    energy folded into ``idle_energy``), so the result satisfies the
    same consumer contract as :class:`~repro.sim.engine.SimulationResult`
    — ``normalize_energy``/``normalize_utility``, campaign summaries and
    benchmark reducers work unchanged.
    """

    scheduler_name: str
    mode: str
    cores: int
    metrics: Metrics
    processor_stats: ProcessorStats
    per_core_stats: List[ProcessorStats]
    jobs: List[Job]
    horizon: float
    migrations: int = 0
    uncore_energy: float = 0.0
    #: Task name -> core (partitioned mode only).
    core_of_task: Optional[Dict[str, int]] = None
    partition: Optional[Partition] = None
    #: Per-core execution segments (always for global; for partitioned
    #: only when ``record_trace=True``).
    core_segments: Optional[List[List[CoreSegment]]] = None
    per_core_results: Optional[List[Optional[SimulationResult]]] = None
    configuration: Optional[MPConfiguration] = None
    trace = None  # SimulationResult-consumer compatibility

    @property
    def normalized_utility(self) -> float:
        return self.metrics.normalized_utility

    @property
    def energy(self) -> float:
        return self.metrics.energy


# ----------------------------------------------------------------------
# Partitioned mode
# ----------------------------------------------------------------------
def simulate_partitioned(
    workload: WorkloadTrace,
    scheduler: SchedulerSpecLike,
    platform: MulticorePlatform,
    strategy: str = "wfd",
    auto_cores: bool = False,
    observer: Optional[Observer] = None,
    check: bool = False,
    record_trace: bool = False,
    checker=None,
) -> MPSimulationResult:
    """Partitioned multicore run: m independent uniprocessor engines.

    Tasks are packed onto cores by :func:`partition_taskset`; each
    non-empty core runs the unchanged :class:`~repro.sim.engine.Engine`
    with a fresh scheduler instance over its disjoint sub-workload.
    Empty cores idle for the whole horizon (charging ``idle_power``).
    With ``auto_cores=True`` the minimum-energy feasible active-core
    count from :func:`~repro.cpu.min_energy_configuration` bounds the
    partition; cores beyond it are powered down (no idle or uncore
    energy).  ``check=True`` attaches a per-core
    :class:`~repro.check.InvariantChecker` — the per-core σ/UER
    reconstruction of the multicore invariant suite.  Alternatively
    pass an explicit ``checker`` instance to share across cores: the
    engines bind it sequentially (each bind resets its per-run state)
    and the violations of every core are accumulated back onto it, so
    collect-mode auditing sees the whole platform.
    """
    factory = _scheduler_factory(scheduler)
    taskset = workload.taskset
    horizon = workload.horizon

    configuration: Optional[MPConfiguration] = None
    active = platform.cores
    if auto_cores:
        configuration = platform.configuration(taskset)
        active = configuration.cores if configuration.feasible else platform.cores

    partition = partition_taskset(taskset, active, strategy, f_max=platform.scale.f_max)
    by_spec: Dict[str, List] = {t.name: [] for t in taskset}
    for spec in workload:
        by_spec[spec.task.name].append(spec)

    checker_factory = None
    if checker is not None:
        def checker_factory():  # shared instance, rebound per core
            return checker
    elif check:
        from ..check import InvariantChecker

        checker_factory = InvariantChecker
    collected_violations: List = []

    scheduler_name: Optional[str] = None
    per_core_stats: List[ProcessorStats] = []
    per_core_results: List[Optional[SimulationResult]] = []
    core_segments: Optional[List[List[CoreSegment]]] = [] if record_trace else None
    all_jobs: List[Job] = []

    for core, indices in enumerate(partition.assignment):
        if not indices:
            # Powered but idle core: charge idle power over the horizon,
            # matching what the engine does for an eventless workload.
            cpu = platform.processor()
            cpu.idle(horizon)
            per_core_stats.append(cpu.stats)
            per_core_results.append(None)
            if core_segments is not None:
                core_segments.append([(0.0, horizon, None, cpu.frequency)])
            continue
        sub_taskset = partition.sub_taskset(taskset, core)
        sub_specs = [s for i in indices for s in by_spec[taskset[i].name]]
        sub_trace = WorkloadTrace(sub_taskset, horizon, sub_specs)
        sched = factory()
        if scheduler_name is None:
            scheduler_name = sched.name
        engine = Engine(
            sub_trace,
            sched,
            platform.processor(),
            record_trace=record_trace,
            observer=_CoreObserver(observer, core) if observer is not None else None,
            checker=checker_factory() if checker_factory is not None else None,
        )
        result = engine.run()
        if checker is not None:
            collected_violations.extend(checker.violations)
        per_core_stats.append(result.processor_stats)
        per_core_results.append(result)
        all_jobs.extend(result.jobs)
        if core_segments is not None and result.trace is not None:
            core_segments.append(
                [(s.start, s.end, s.job_key, s.frequency) for s in result.trace.segments]
            )

    if checker is not None:
        checker.violations = collected_violations

    uncore_energy = platform.active_power * active * horizon
    combined = _combine_stats(per_core_stats, uncore_energy)
    metrics = Metrics(taskset, all_jobs, combined, horizon)
    return MPSimulationResult(
        scheduler_name=scheduler_name if scheduler_name is not None else "scheduler",
        mode="partitioned",
        cores=platform.cores,
        metrics=metrics,
        processor_stats=combined,
        per_core_stats=per_core_stats,
        jobs=all_jobs,
        horizon=horizon,
        migrations=0,
        uncore_energy=uncore_energy,
        core_of_task=partition.core_of(taskset),
        partition=partition,
        core_segments=core_segments,
        per_core_results=per_core_results,
        configuration=configuration,
    )


# ----------------------------------------------------------------------
# Global mode
# ----------------------------------------------------------------------
class GlobalEngine:
    """Global multicore run: :class:`~repro.sim.engine.Engine` over one
    fresh processor per core, its result packed as an
    :class:`MPSimulationResult` (uncore energy, per-core stats,
    migrations, per-core segments).  At m > 1 the engine rejects DVS
    switch *time* here, at construction."""

    def __init__(
        self,
        workload: WorkloadTrace,
        scheduler: Scheduler,
        platform: MulticorePlatform,
        observer: Optional[Observer] = None,
    ):
        self.platform = platform
        self.engine = Engine(
            workload,
            scheduler,
            [platform.processor() for _ in range(platform.cores)],
            observer=observer,
        )

    def run(self) -> MPSimulationResult:
        engine = self.engine
        result = engine.run()
        m = len(engine.cores)
        horizon = result.horizon
        per_core_stats = [cpu.stats for cpu in engine.cores]
        uncore_energy = self.platform.active_power * m * horizon
        combined = _combine_stats(per_core_stats, uncore_energy)
        return MPSimulationResult(
            scheduler_name=result.scheduler_name,
            mode="global",
            cores=m,
            metrics=Metrics(engine.workload.taskset, result.jobs, combined, horizon),
            processor_stats=combined,
            per_core_stats=per_core_stats,
            jobs=result.jobs,
            horizon=horizon,
            migrations=engine.migrations,
            uncore_energy=uncore_energy,
            core_segments=engine.core_segments,
        )


def simulate_global(
    workload: WorkloadTrace,
    scheduler: SchedulerSpecLike,
    platform: MulticorePlatform,
    observer: Optional[Observer] = None,
) -> MPSimulationResult:
    """Global multicore run over ``workload`` (see :class:`GlobalEngine`)."""
    sched = _scheduler_factory(scheduler)()
    return GlobalEngine(workload, sched, platform, observer=observer).run()


# ----------------------------------------------------------------------
def simulate_mp(
    workload: WorkloadTrace,
    scheduler: SchedulerSpecLike,
    platform: MulticorePlatform,
    mode: str = "partitioned",
    strategy: str = "wfd",
    auto_cores: bool = False,
    observer: Optional[Observer] = None,
    check: bool = False,
    record_trace: bool = False,
    checker=None,
) -> MPSimulationResult:
    """Run a multicore simulation in ``mode`` ("partitioned"/"global").

    ``check=True`` additionally runs the multicore invariant suite on
    the finished result (:func:`repro.check.check_mp_result`) — and, in
    partitioned mode, a per-core uniprocessor
    :class:`~repro.check.InvariantChecker` during the run.  A shared
    ``checker`` instance (partitioned mode only) audits every core and
    accumulates violations across them.
    """
    if mode not in MP_MODES:
        raise ValueError(f"unknown mp mode {mode!r}; choose from {MP_MODES}")
    if mode == "partitioned":
        result = simulate_partitioned(
            workload,
            scheduler,
            platform,
            strategy=strategy,
            auto_cores=auto_cores,
            observer=observer,
            check=check,
            record_trace=record_trace,
            checker=checker,
        )
    else:
        if checker is not None:
            raise SimulationError(
                "global mode has no per-core InvariantChecker hooks; "
                "use check=True for the multicore invariant suite"
            )
        result = simulate_global(workload, scheduler, platform, observer=observer)
    if check:
        from ..check import check_mp_result

        check_mp_result(result)
    return result
