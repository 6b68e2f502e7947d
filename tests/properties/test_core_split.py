"""The global engine's per-core task split against its per-event form.

At m > 1 the engine divides the task set between the busy cores before
each per-core frequency decision: every picked job's task is pinned to
its core, and the remaining tasks are dealt worst-fit in density order.
:class:`repro.sim.engine._TaskSplit` computes the rates and the density
order once per run; ``_reference_split`` below is the per-event form
that sorted the unpinned tasks at every event.  Both must give the same
per-core member lists and the same ``loads`` floats, compared with
``==`` — a last-ULP difference would move a task to another core.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import UAMSpec
from repro.demand import DeterministicDemand
from repro.sim import Job, Task, TaskSet
from repro.sim.engine import _TaskSplit
from repro.tuf import StepTUF


def _reference_split(taskset, assigned):
    """Per-event split: pin picked tasks, sort the rest, deal worst-fit."""
    m = len(assigned)
    pinned = {}
    for k in range(m):
        pick = assigned[k]
        if pick is not None:
            pinned.setdefault(id(pick[0].task), []).append(k)

    loads = [0.0] * m
    members = [[] for _ in range(m)]
    rest = []
    for i, task in enumerate(taskset):
        cores_of_task = pinned.get(id(task))
        if cores_of_task is None:
            rest.append(i)
            continue
        for k in cores_of_task:
            members[k].append(i)
            loads[k] += task.min_feasible_frequency
    rest.sort(
        key=lambda i: (
            -taskset[i].min_feasible_frequency,
            -(taskset[i].tuf.max_utility / taskset[i].allocation),
            i,
        )
    )
    for i in rest:
        k = min(range(m), key=lambda q: (loads[q], q))
        members[k].append(i)
        loads[k] += taskset[i].min_feasible_frequency
    return members, loads


@st.composite
def split_cases(draw):
    """A task set and one event's picks on m ∈ {2, 3, 4} cores.

    Demands, windows and utilities come from small pools so that equal
    rates and equal density keys (the tie-breaks) occur often.  Half
    the cases pick one task on two cores at once.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    tasks = []
    for i in range(n):
        window = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.7]))
        cycles = draw(st.sampled_from([5.0, 10.0, 20.0, 33.3, 90.0]))
        umax = draw(st.sampled_from([1.0, 2.5, 10.0, 64.0]))
        tasks.append(Task(f"T{i}", StepTUF(umax, window), DeterministicDemand(cycles),
                          UAMSpec(1, window)))
    taskset = TaskSet(tasks)
    m = draw(st.sampled_from([2, 3, 4]))
    picks = draw(st.lists(st.one_of(st.none(), st.integers(0, n - 1)),
                          min_size=m, max_size=m))
    if draw(st.booleans()):
        first, second = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2,
                                      unique=True))
        picks[first] = picks[second] = draw(st.integers(0, n - 1))
    assigned = [
        None if i is None else (Job(taskset[i], k, 0.0, taskset[i].allocation), 1000.0)
        for k, i in enumerate(picks)
    ]
    return taskset, assigned


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_hoisted_split_equals_per_event_split(case):
    taskset, assigned = case
    split = _TaskSplit(taskset)
    members, loads = split.split(assigned)
    ref_members, ref_loads = _reference_split(taskset, assigned)
    assert members == ref_members
    assert loads == ref_loads
    # Every busy core's share covers its own pick.
    for k, pick in enumerate(assigned):
        if pick is not None:
            assert list(taskset).index(pick[0].task) in members[k]


@settings(max_examples=50, deadline=None)
@given(split_cases())
def test_subset_is_memoised_in_taskset_order(case):
    taskset, assigned = case
    split = _TaskSplit(taskset)
    members, _ = split.split(assigned)
    for share in filter(None, members):
        sub, ids = split.subset(share)
        assert [t.name for t in sub] == [taskset[i].name for i in sorted(share)]
        assert ids == {id(taskset[i]) for i in share}
        assert split.subset(list(reversed(share)))[0] is sub
