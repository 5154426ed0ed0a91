"""``predict_wall`` of the execution models against the simulator's
earlier computation (``tests/wall_reference.py``), bit for bit.

A queued job is predicted from its retained progress: the cases cover a
job in each state a queued job can be in — never started, preempted
(after a checkpoint, or in the middle of its setup), resized before a
preemption — plus a rigid job restarted in place after a failure.
"""

import sys

from hypothesis import given, settings, strategies as st

from repro.jobs import new_execution
from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job, JobType

sys.path.insert(0, "tests")
from wall_reference import reference_wall  # noqa: E402

checkpoints = st.builds(
    CheckpointModel,
    node_mtbf_s=st.floats(min_value=1e5, max_value=1e9),
    interval_multiplier=st.sampled_from([0.5, 1.0, 2.0]),
    enabled=st.booleans(),
)


@st.composite
def jobs(draw, kind):
    size = draw(st.integers(min_value=1, max_value=4096))
    runtime = draw(st.floats(min_value=1.0, max_value=2e5))
    return Job(
        job_id=1,
        job_type=kind,
        submit_time=0.0,
        size=size,
        min_size=(
            draw(st.integers(min_value=1, max_value=size))
            if kind is JobType.MALLEABLE
            else None
        ),
        runtime=runtime,
        estimate=runtime * draw(st.floats(min_value=1.0, max_value=3.0)),
        setup_time=draw(st.floats(min_value=0.0, max_value=2000.0)),
    )


def assert_matches(job, ex, nodes, ckpt, started):
    expected = reference_wall(job, ex, nodes, ckpt, started)
    assert ex.predict_wall(nodes) == expected


fractions = st.floats(min_value=0.0, max_value=0.999)


@settings(max_examples=200, deadline=None)
@given(job=jobs(JobType.RIGID), ckpt=checkpoints, fracs=st.lists(fractions, max_size=3))
def test_rigid_fresh_and_after_preemptions(job, ckpt, fracs):
    ex = new_execution(job, ckpt)
    assert_matches(job, ex, job.size, ckpt, started=False)
    t = 0.0
    for frac in fracs:
        ex.start_segment(t, job.size)
        assert ex.predicted_finish() == t + ex.predict_wall(job.size)
        t += frac * (ex.finish_time() - t)
        ex.preempt(t)
        assert_matches(job, ex, job.size, ckpt, started=True)
        t += 60.0


@settings(max_examples=200, deadline=None)
@given(
    job=jobs(JobType.RIGID),
    ckpt=checkpoints,
    frac=fractions,
    delay=st.floats(min_value=0.0, max_value=600.0),
)
def test_rigid_failed_and_restarted(job, ckpt, frac, delay):
    ex = new_execution(job, ckpt)
    ex.start_segment(0.0, job.size)
    failed_at = frac * ex.finish_time()
    ex.preempt(failed_at)
    restart = failed_at + delay
    ex.start_segment(restart, job.size)
    assert_matches(job, ex, job.size, ckpt, started=True)
    # while it runs, the predicted finish is its segment start plus the
    # wall predicted from the offset it restarted from
    assert ex.predicted_finish() == restart + ex.predict_wall(job.size)


@settings(max_examples=200, deadline=None)
@given(job=jobs(JobType.MALLEABLE), ckpt=checkpoints, data=st.data())
def test_malleable_never_started(job, ckpt, data):
    ex = new_execution(job, ckpt)
    nodes = data.draw(st.integers(min_value=job.smallest_size, max_value=job.size))
    assert_matches(job, ex, nodes, ckpt, started=False)


@settings(max_examples=200, deadline=None)
@given(job=jobs(JobType.MALLEABLE), ckpt=checkpoints, data=st.data())
def test_malleable_preempted_mid_setup(job, ckpt, data):
    ex = new_execution(job, ckpt)
    sizes = st.integers(min_value=job.smallest_size, max_value=job.size)
    ex.start_segment(0.0, data.draw(sizes))
    ex.preempt(data.draw(fractions) * job.setup_time)
    assert_matches(job, ex, data.draw(sizes), ckpt, started=True)


@settings(max_examples=200, deadline=None)
@given(job=jobs(JobType.MALLEABLE), ckpt=checkpoints, data=st.data())
def test_malleable_resized_then_preempted(job, ckpt, data):
    ex = new_execution(job, ckpt)
    sizes = st.integers(min_value=job.smallest_size, max_value=job.size)
    t = 0.0
    ex.start_segment(t, data.draw(sizes))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        t += data.draw(fractions) * (ex.finish_time() - t)
        ex.resize(t, data.draw(sizes))
    t += data.draw(fractions) * (ex.finish_time() - t)
    ex.preempt(t)
    assert_matches(job, ex, data.draw(sizes), ckpt, started=True)


@settings(max_examples=200, deadline=None)
@given(job=jobs(JobType.ONDEMAND), ckpt=checkpoints)
def test_ondemand(job, ckpt):
    ex = new_execution(job, ckpt)
    assert ex.predict_wall(job.size) == job.setup_time + job.estimate
    assert_matches(job, ex, job.size, ckpt, started=False)
    ex.start_segment(5.0, job.size)
    assert ex.predicted_finish() == 5.0 + ex.predict_wall(job.size)
