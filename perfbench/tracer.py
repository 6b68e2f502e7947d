"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions of ``repro`` with timing
wrappers for the length of a traced run and restores them afterwards;
nothing under ``src/`` knows it is being traced.  Every wrapped call is
a span: the wrapper's duration is the span's total, and its *self* time
is the total minus the time its child spans cover.  All wrapped
functions are synchronous and run on one thread, so child spans nest
strictly inside their parent and their durations simply add up.

Spans are folded into per-name records as they close (count, total,
self, optional per-call samples), plus a tally of which span each name
was called from, so a long traced campaign keeps memory flat.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from common import median, percentile, tail_percentile


@dataclass
class SpanStats:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    samples: Optional[List[float]] = None


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    #: ``(name, parent name or None) → calls``.
    parents: Dict[Tuple[str, Optional[str]], int] = field(default_factory=dict)
    #: Free-form counters that hooks fill (accepted probes, ready sizes …).
    counts: Dict[str, float] = field(default_factory=dict)
    _stack: List[list] = field(default_factory=list)
    _patches: List[tuple] = field(default_factory=list)

    # -- recording -----------------------------------------------------
    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, samples: bool):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        if parent == name:
            # A re-entrant call (a subclass calling its base) folds into
            # the outer span instead of counting twice.
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        record = self.spans.get(name)
        if record is None:
            record = self.spans[name] = SpanStats(samples=[] if samples else None)
        key = (name, parent)
        self.parents[key] = self.parents.get(key, 0) + 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            record.failed += 1
            raise
        finally:
            duration = self.clock() - start
            stack.pop()
            record.count += 1
            record.total_s += duration
            record.self_s += duration - frame[1]
            if record.samples is not None:
                record.samples.append(duration)
            if stack:
                stack[-1][1] += duration

    # -- installation --------------------------------------------------
    def wrap(
        self,
        target: str,
        attr: str,
        name: str,
        samples: bool = False,
        after: Optional[Callable] = None,
    ) -> None:
        """Wrap ``<target>.<attr>`` (``target`` a dotted module, or
        ``module:Class``) in a span named ``name``.  ``after(tracer,
        result, args)`` runs on every successful return."""
        owner = _resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs, samples)
            if after is not None:
                after(tracer, result, args)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------
    def get(self, name: str) -> SpanStats:
        return self.spans.get(name) or SpanStats(samples=[])

    def calls_from(self, name: str, parent: Optional[str]) -> int:
        return self.parents.get((name, parent), 0)

    def us_percentile(self, name: str, q: float) -> float:
        """``q``-th percentile of ``name``'s call durations in µs, by the
        percentile rule; 0 when the layer was never called."""
        samples = self.get(name).samples or []
        if not samples:
            return 0.0
        if q == 50.0:
            return median(samples) * 1e6
        return percentile(samples, min(q, tail_percentile(len(samples)) or 50.0)) * 1e6


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


# ----------------------------------------------------------------------
# The layers the benchmark traces
# ----------------------------------------------------------------------
def _after_build(tracer, result, _args):
    tracer.count("workload.jobs", len(result[1]))


def _after_sim(tracer, result, _args):
    tracer.count("sim.jobs", result.metrics.released)


def _after_mp(tracer, result, _args):
    tracer.count("mp.migrations", result.migrations)


def _after_decide(tracer, _result, args):
    tracer.count("core.ready", len(args[1].ready))


def _after_probe(tracer, result, _args):
    if result >= 0:
        tracer.count("core.sigma_accepts")


def _after_submit(tracer, result, args):
    tracer.count(f"svc_core.{result.status}")
    tracer.peak("svc_core.ready_max", len(args[0].ready))


def _after_core_decide(tracer, _result, args):
    tracer.peak("svc_core.ready_max", len(args[0].ready))


def _after_uam_check(tracer, result, _args):
    if result is not None:
        tracer.count("runtime.violations")


def install_core(tracer: Tracer) -> None:
    """EUA*, EDF and the frequency pass: shared by every workload."""
    tracer.wrap("repro.core.eua:EUAStar", "decide", "core.decide", True, _after_decide)
    tracer.wrap("repro.core.eua", "decide_freq", "core.decide_freq")
    tracer.wrap("repro.core.feasibility:IncrementalSchedule", "try_insert",
                "core.sigma_probe", after=_after_probe)
    tracer.wrap("repro.core.eua", "offline_computing", "core.offline")
    tracer.wrap("repro.sched.edf:EDFStatic", "decide", "sched.decide")
    tracer.wrap("repro.sim.scheduler:Scheduler", "decide_frequency", "mp.decide_frequency")
    tracer.wrap("repro.core.eua:EUAStar", "decide_frequency", "mp.decide_frequency")
    tracer.wrap("repro.obs.observer:Observer", "emit", "obs.emit")


def install_campaign(tracer: Tracer) -> None:
    """Campaign layers: stats, workload, arrivals, the two engines."""
    from repro.arrivals.generators import ArrivalGenerator

    tracer.wrap("repro.stats.campaign", "run_campaign", "stats.campaign")
    tracer.wrap("repro.stats.campaign", "_run_replication", "stats.replication")
    tracer.wrap("repro.experiments.parallel:WorkloadSpec", "build", "workload.build",
                after=_after_build)
    todo = [ArrivalGenerator]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "generate" in cls.__dict__ and not getattr(cls.generate, "__isabstractmethod__", False):
            tracer.wrap(f"{cls.__module__}:{cls.__qualname__}", "generate", "arrivals.generate")
    tracer.wrap("repro.sim.runner", "simulate", "sim.simulate", after=_after_sim)
    tracer.wrap("repro.mp", "simulate_mp", "mp.simulate", after=_after_mp)
    install_core(tracer)


def install_service(tracer: Tracer) -> None:
    """Service layers, installed inside the server process."""
    tracer.wrap("repro.svc.core:ServiceCore", "submit", "svc_core.submit", True, _after_submit)
    tracer.wrap("repro.svc.core:ServiceCore", "decide", "svc_core.decide", True,
                _after_core_decide)
    tracer.wrap("repro.runtime.monitor:UAMComplianceMonitor", "check", "runtime.uam_check",
                True, _after_uam_check)
    tracer.wrap("repro.runtime.admission:AdmissionController", "evaluate",
                "runtime.admission", True)
    install_core(tracer)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics every traced run reports, by name.

    A layer the workload never called reports zeros.
    """
    g = tracer.get
    c = tracer.counts.get
    decide, probe = g("core.decide"), g("core.sigma_probe")
    sim, mp = g("sim.simulate"), g("mp.simulate")
    sim_decisions = tracer.calls_from("core.decide", "sim.simulate") + tracer.calls_from(
        "sched.decide", "sim.simulate")
    mp_decisions = tracer.calls_from("core.decide", "mp.simulate") + tracer.calls_from(
        "sched.decide", "mp.simulate")
    submit = g("svc_core.submit")
    return {
        "stats.campaign_s": g("stats.campaign").total_s,
        "stats.self_s": g("stats.campaign").self_s + g("stats.replication").self_s,
        "stats.replications": g("stats.replication").count,
        "stats.failed": g("stats.replication").failed,
        "workload.builds": g("workload.build").count,
        "workload.build_s": g("workload.build").total_s,
        "workload.jobs": c("workload.jobs", 0.0),
        "arrivals.generate_calls": g("arrivals.generate").count,
        "arrivals.generate_s": g("arrivals.generate").total_s,
        "sim.runs": sim.count,
        "sim.simulate_s": sim.total_s,
        "sim.self_s": sim.self_s,
        "sim.decisions": sim_decisions,
        "sim.decisions_per_s": sim_decisions / sim.total_s if sim.total_s else 0.0,
        "sim.jobs_per_s": c("sim.jobs", 0.0) / sim.total_s if sim.total_s else 0.0,
        "mp.runs": mp.count,
        "mp.simulate_s": mp.total_s,
        "mp.self_s": mp.self_s,
        "mp.decisions": mp_decisions,
        "mp.decisions_per_s": mp_decisions / mp.total_s if mp.total_s else 0.0,
        "mp.freq_calls": g("mp.decide_frequency").count,
        "mp.migrations": c("mp.migrations", 0.0),
        "core.decide_calls": decide.count,
        "core.decide_us.p50": tracer.us_percentile("core.decide", 50.0),
        "core.decide_us.p99": tracer.us_percentile("core.decide", 99.0),
        "core.decide_self_s": decide.self_s,
        "core.decide_freq_calls": g("core.decide_freq").count,
        "core.decide_freq_s": g("core.decide_freq").total_s,
        "core.sigma_probes": probe.count,
        "core.sigma_probe_s": probe.total_s,
        "core.sigma_accept_ratio": c("core.sigma_accepts", 0.0) / probe.count if probe.count else 0.0,
        "core.ready_mean": c("core.ready", 0.0) / decide.count if decide.count else 0.0,
        "core.offline_s": g("core.offline").total_s,
        "sched.decide_calls": g("sched.decide").count,
        "sched.decide_s": g("sched.decide").total_s,
        "svc_core.submits": submit.count,
        "svc_core.submit_us.p50": tracer.us_percentile("svc_core.submit", 50.0),
        "svc_core.submit_us.p99": tracer.us_percentile("svc_core.submit", 99.0),
        "svc_core.decides": g("svc_core.decide").count,
        "svc_core.decide_us.p50": tracer.us_percentile("svc_core.decide", 50.0),
        "svc_core.decide_us.p99": tracer.us_percentile("svc_core.decide", 99.0),
        "svc_core.ready_max": c("svc_core.ready_max", 0.0),
        "svc_core.admitted": c("svc_core.admitted", 0.0),
        "svc_core.deferred": c("svc_core.deferred", 0.0),
        "svc_core.shed": c("svc_core.shed", 0.0),
        "svc_core.rejected": c("svc_core.rejected", 0.0),
        "runtime.uam_checks": g("runtime.uam_check").count,
        "runtime.uam_check_us.p50": tracer.us_percentile("runtime.uam_check", 50.0),
        "runtime.admission_us.p50": tracer.us_percentile("runtime.admission", 50.0),
        "runtime.admission_us.p99": tracer.us_percentile("runtime.admission", 99.0),
        "runtime.violations": c("runtime.violations", 0.0),
        "obs.emits": g("obs.emit").count,
        "obs.emit_s": g("obs.emit").total_s,
    }
