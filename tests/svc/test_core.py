"""ServiceCore tests: the synchronous ingestion + dispatch state
machine, driven with literal (fake) time."""

import numpy as np
import pytest

from repro.experiments import synthesize_taskset
from repro.obs import EventKind, events_from_jsonl, events_to_jsonl
from repro.runtime import ViolationPolicy
from repro.svc import ServiceCore, SubmitOutcome, UnknownTaskError


@pytest.fixture()
def taskset():
    return synthesize_taskset(0.8, np.random.default_rng(11))


@pytest.fixture()
def core(taskset):
    return ServiceCore(taskset)


def _burst(core, task, n, t=0.0):
    return [core.submit(task.name, t) for _ in range(n)]


class TestSubmit:
    def test_compliant_submission_admitted(self, core, taskset):
        task = taskset[0]
        outcome = core.submit(task.name, 0.0)
        assert outcome.status == "admitted"
        assert outcome.accepted
        assert outcome.job is not None
        assert core.counters["submitted"] == 1
        assert core.counters["admitted"] == 1
        assert len(core.ready) == 1

    def test_unknown_task_raises(self, core):
        with pytest.raises(UnknownTaskError):
            core.submit("no-such-task", 0.0)
        assert core.counters["submitted"] == 0

    def test_explicit_demand_overrides_allocation(self, core, taskset):
        task = taskset[0]
        core.submit(task.name, 0.0, demand=task.allocation / 2)
        assert core.ready[0].demand == pytest.approx(task.allocation / 2)

    @pytest.mark.parametrize(
        "demand", [-5, 0, 0.0, "nan", float("inf"), "abc", 10**400],
        ids=["negative", "zero", "zero-float", "nan-text", "inf", "text", "huge-int"],
    )
    def test_bad_demand_is_neither_counted_nor_charged(self, core, taskset, demand):
        task = taskset[0]
        with pytest.raises(ValueError, match="demand"):
            core.submit(task.name, 0.0, demand=demand)
        assert core.counters["submitted"] == 0
        assert core.stats()["uam_violations"] == 0
        assert core.ready == []
        # The envelope still has all a_i slots for valid submissions.
        outcomes = _burst(core, task, task.uam.max_arrivals)
        assert all(o.status != "shed" for o in outcomes)
        assert core.counters["shed_uam"] == 0

    def test_numeric_string_demand_is_accepted(self, core, taskset):
        core.submit(taskset[0].name, 0.0, demand="12.5")
        assert core.ready[0].demand == 12.5

    def test_outcome_to_dict_round_trips(self):
        out = SubmitOutcome("deferred", job="T0#1", reason="uam-deferral",
                            release=1.25)
        assert out.to_dict() == {
            "status": "deferred", "reason": "uam-deferral",
            "job": "T0#1", "release": 1.25,
        }


class TestUAMGate:
    def test_burst_beyond_envelope_is_shed(self, core, taskset):
        task = taskset[0]
        a = task.uam.max_arrivals
        _burst(core, task, a)
        outcome = core.submit(task.name, 0.0)
        assert outcome.status == "shed"
        assert outcome.reason == "uam-violation"
        assert not outcome.accepted
        assert core.counters["shed_uam"] == 1
        assert core.stats()["uam_violations"] == 1

    def test_defer_policy_grants_future_release(self, taskset):
        core = ServiceCore(taskset, policy=ViolationPolicy.DEFER)
        task = taskset[0]
        a = task.uam.max_arrivals
        _burst(core, task, a)
        outcome = core.submit(task.name, 0.0)
        assert outcome.status == "deferred"
        assert outcome.accepted
        assert outcome.release is not None and outcome.release > 0.0
        assert core.counters["deferred"] == 1
        assert core.stats()["deferred_pending"] == 1

    def test_deferred_job_admitted_at_grant(self, taskset):
        core = ServiceCore(taskset, policy=ViolationPolicy.DEFER)
        task = taskset[0]
        _burst(core, task, task.uam.max_arrivals)
        outcome = core.submit(task.name, 0.0)
        admitted_before = core.counters["admitted"]
        assert core.activate_due(outcome.release) == 1
        assert core.counters["admitted"] == admitted_before + 1
        assert core.stats()["deferred_pending"] == 0

    def test_admit_and_flag_lets_burst_through(self, taskset):
        core = ServiceCore(taskset, policy=ViolationPolicy.ADMIT_AND_FLAG)
        task = taskset[0]
        a = task.uam.max_arrivals
        _burst(core, task, a)
        outcome = core.submit(task.name, 0.0)
        assert outcome.status in ("admitted", "rejected")  # past the gate
        assert core.counters["shed_uam"] == 0
        assert core.stats()["uam_violations"] == 1


class TestAdmissionGate:
    def test_overload_rejects_and_evicts(self, taskset):
        # Admission projects Chebyshev *budgets*; to overload it the
        # burst must get past the UAM gate, so flag-only policy here.
        core = ServiceCore(taskset, policy=ViolationPolicy.ADMIT_AND_FLAG)
        rejected_outcome = None
        for _round in range(100):
            for task in taskset:
                outcome = core.submit(task.name, 0.0)
                if outcome.status == "rejected":
                    rejected_outcome = outcome
            if core.counters["rejected"] and core.counters["evicted"]:
                break
        assert core.counters["rejected"] > 0
        assert core.counters["evicted"] > 0
        assert rejected_outcome is not None
        assert not rejected_outcome.accepted
        # Evicted victims left the ready set.
        assert len(core.ready) == core.counters["admitted"] - core.counters["evicted"]


class TestDispatch:
    def test_empty_ready_decides_idle(self, core):
        decision = core.decide(0.0)
        assert decision.job is None
        assert decision.frequency == core.platform.scale.f_max

    def test_decide_advance_complete_cycle(self, core, taskset):
        task = taskset[0]
        core.submit(task.name, 0.0)
        decision = core.decide(0.0)
        job = decision.job
        assert job is not None
        dt = job.remaining_demand / decision.frequency
        core.advance(job, dt, decision.frequency)
        assert core.complete_if_done(job, dt)
        assert core.counters["completed"] == 1
        assert core.counters["deadline_hits"] == (1 if dt <= job.critical_time else 0)
        assert core.utility_accrued == pytest.approx(job.accrued_utility)
        assert job not in core.ready

    def test_partial_progress_does_not_complete(self, core, taskset):
        task = taskset[0]
        core.submit(task.name, 0.0)
        decision = core.decide(0.0)
        job = decision.job
        core.advance(job, job.remaining_demand / decision.frequency / 2,
                     decision.frequency)
        assert not core.complete_if_done(job, 0.001)
        assert job in core.ready

    def test_overdue_jobs_expire(self, core, taskset):
        task = taskset[0]
        core.submit(task.name, 0.0)
        job = core.ready[0]
        core.decide(job.termination + 1.0)
        assert core.counters["expired"] == 1
        assert job not in core.ready

    def test_next_timer_tracks_termination_and_deferrals(self, core, taskset):
        assert core.next_timer(0.0) is None
        task = taskset[0]
        core.submit(task.name, 0.0)
        timer = core.next_timer(0.0)
        assert timer == pytest.approx(core.ready[0].termination)


class TestObservability:
    def test_decision_stream_is_obs_wire_format(self, core, taskset):
        task = taskset[0]
        core.submit(task.name, 0.0)
        decision = core.decide(0.0)
        job = decision.job
        core.advance(job, job.remaining_demand / decision.frequency,
                     decision.frequency)
        core.complete_if_done(job, 0.01)
        text = events_to_jsonl(core.observer.events)
        log = events_from_jsonl(text)
        kinds = [e.kind for e in log.events]
        assert EventKind.RELEASE in kinds
        assert EventKind.ADMISSION_DECISION in kinds
        assert EventKind.DISPATCH in kinds
        assert EventKind.COMPLETE in kinds
        assert all(e.source == "svc" for e in log.events
                   if e.kind is EventKind.ADMISSION_DECISION)

    def test_stats_snapshot_keys(self, core, taskset):
        core.submit(taskset[0].name, 0.0)
        stats = core.stats()
        for key in ("submitted", "admitted", "ready_depth", "deferred_pending",
                    "utility_accrued", "uam_violations", "tasks", "events"):
            assert key in stats
        assert stats["ready_depth"] == 1
        assert stats["tasks"] == len(taskset)
        assert stats["events"] > 0
