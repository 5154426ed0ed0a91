"""The kept-sorted wait queue against a ``sorted()`` reference.

Under a time-invariant policy (``sjf``) the queue is kept in the
policy's own order; under an aging one (``prb_ewt``) it is kept by job
id and the policy sorts it each pass.  Either way ``planning_order``
must equal the policy's ``order`` of the same jobs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.jobs.job import Job, JobState, JobType
from repro.sched.registry import get_policy
from repro.sim.wait_queue import WaitQueue
from repro.util.errors import SimulationError


def queued_job(job_id, kind, submit, size, runtime):
    job = Job(
        job_id=job_id,
        job_type=kind,
        submit_time=submit,
        size=size,
        min_size=1 if kind is JobType.MALLEABLE else None,
        runtime=runtime,
        estimate=runtime * 1.5,
    )
    job.set_state(JobState.QUEUED)
    return job


job_fields = st.tuples(
    st.sampled_from(list(JobType)),
    # few distinct values, so keys tie and the job id decides
    st.sampled_from([0.0, 10.0, 20.0]),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([100.0, 200.0]),
)


def ids(jobs):
    return [j.job_id for j in jobs]


@pytest.mark.parametrize("name", ["sjf", "prb_ewt"])
@pytest.mark.parametrize("prioritize_ondemand", [True, False])
@settings(max_examples=60, deadline=None)
@given(
    fields=st.lists(job_fields, min_size=1, max_size=12),
    steps=st.lists(st.integers(min_value=0, max_value=11), max_size=40),
    now=st.floats(min_value=0.0, max_value=1e5),
)
def test_random_adds_and_removes_match_sorted_reference(
    name, prioritize_ondemand, fields, steps, now
):
    policy = get_policy(name)
    jobs = [queued_job(i, *f) for i, f in enumerate(fields)]
    queue = WaitQueue(policy, prioritize_ondemand)
    inside = set()
    for step in steps:
        job = jobs[step % len(jobs)]
        # each step toggles one job: in if it is out, out if it is in
        if job.job_id in inside:
            queue.remove(job)
            inside.discard(job.job_id)
        else:
            queue.add(job)
            inside.add(job.job_id)
        members = [j for j in jobs if j.job_id in inside]
        if policy.time_invariant:
            expected = policy.order(members, now, prioritize_ondemand)
        else:
            expected = sorted(members, key=lambda j: j.job_id)
        assert ids(queue.jobs) == ids(expected)
        assert ids(queue.planning_order(now)) == ids(
            policy.order(members, now, prioritize_ondemand)
        )
        assert ids(queue.waiting_ondemand()) == ids(
            sorted(
                (j for j in members if j.is_ondemand),
                key=lambda j: (j.submit_time, j.job_id),
            )
        )
        queue.validate()


def three_queued(policy_name="fcfs"):
    queue = WaitQueue(get_policy(policy_name), prioritize_ondemand=True)
    jobs = [
        queued_job(0, JobType.RIGID, 0.0, 1, 100.0),
        queued_job(1, JobType.ONDEMAND, 5.0, 1, 100.0),
        queued_job(2, JobType.MALLEABLE, 10.0, 2, 100.0),
    ]
    for job in jobs:
        queue.add(job)
    queue.validate()
    return queue, jobs


def test_removing_an_absent_job_raises():
    queue, jobs = three_queued()
    queue.remove(jobs[0])
    for job in (jobs[0], queued_job(7, JobType.RIGID, 0.0, 1, 100.0)):
        with pytest.raises(SimulationError, match="not in the wait queue"):
            queue.remove(job)
    assert ids(queue.jobs) == [1, 2]


def test_validate_catches_a_swapped_pair():
    queue, _ = three_queued()
    assert ids(queue.jobs) == [1, 0, 2]  # the on-demand job first
    queue.jobs[1], queue.jobs[2] = queue.jobs[2], queue.jobs[1]
    with pytest.raises(SimulationError, match="key order"):
        queue.validate()


def test_validate_catches_a_stale_ondemand_index():
    queue, jobs = three_queued()
    del queue._ondemand[jobs[1].job_id]
    with pytest.raises(SimulationError, match="on-demand index"):
        queue.validate()


def test_validate_catches_a_job_not_queued():
    queue, jobs = three_queued()
    jobs[2].set_state(JobState.RUNNING)
    with pytest.raises(SimulationError, match="in queue but state"):
        queue.validate()
