"""Differential tests: conservative planner against a full-queue oracle.

``ConservativeBackfillPlanner.plan`` stops at the capacity cutoff and
``AvailabilityProfile.reserve`` updates only the segments inside the
reserved window.  The oracle below is the plain form of both: it
reserves every queued job and walks the whole profile on each reserve.
The two must make identical decisions and leave identical profiles.
"""

from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.jobs.job import Job, JobType
from repro.sched.conservative import ConservativeBackfillPlanner
from repro.sched.profile import (
    AvailabilityProfile,
    AvailabilityTimeline,
    ProfileView,
)

EPS = 1e-6


# ----------------------------------------------------------------------
# Reference oracle: full-queue plan over a whole-profile reserve
# ----------------------------------------------------------------------
def ref_insert_breakpoint(times, avail, t):
    if t <= times[0] + EPS:
        return
    i = bisect_left(times, t - EPS)
    if i < len(times) and abs(times[i] - t) <= EPS:
        return
    if i == len(times):
        times.append(t)
        avail.append(avail[-1])
    else:
        times.insert(i, t)
        avail.insert(i, avail[i - 1])


def ref_earliest_start(times, avail, nodes, duration):
    i = 0
    while i < len(times):
        if avail[i] < nodes:
            i += 1
            continue
        start = times[i]
        end = start + duration
        j = i + 1
        ok = True
        while j < len(times) and times[j] < end - EPS:
            if avail[j] < nodes:
                ok = False
                break
            j += 1
        if ok:
            return start
        i = j
    raise AssertionError("no feasible start")


def ref_reserve(times, avail, start, duration, nodes):
    end = start + duration
    ref_insert_breakpoint(times, avail, start)
    ref_insert_breakpoint(times, avail, end)
    for i, t in enumerate(times):
        if start - EPS <= t < end - EPS:
            avail[i] -= nodes
            if avail[i] < 0:
                raise AssertionError(f"profile went negative at t={t}")


def ref_plan(view, queue, walls):
    """Reserve every queued job in order; starts are those at ``now``."""
    prof = view.build_profile()
    times, avail = list(prof.times), list(prof.avail)
    decisions = []
    blocked_seen = False
    for job in queue:
        wall = walls[job.job_id]
        start = ref_earliest_start(times, avail, job.size, wall)
        ref_reserve(times, avail, start, wall, job.size)
        if start <= view.now + EPS:
            decisions.append((job.job_id, job.size, job.size, blocked_seen))
        else:
            blocked_seen = True
    return decisions


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
#: release offsets from ``now``: well past it, and within EPS either side
offsets = st.one_of(
    st.floats(min_value=0.0, max_value=5000.0),
    st.floats(min_value=-EPS, max_value=EPS),
    st.sampled_from([0.0, EPS, 2 * EPS, -EPS]),
)


@st.composite
def planning_inputs(draw):
    now = draw(st.sampled_from([0.0, 100.0, 3.0e6]))
    free = draw(st.integers(min_value=0, max_value=64))
    running = draw(
        st.lists(
            st.tuples(offsets, st.integers(min_value=1, max_value=32)),
            max_size=12,
        )
    )
    # reservation pseudo-blocks are clamped past now, as the simulator does
    overlay = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=3000.0),
                st.integers(min_value=1, max_value=16),
            ),
            max_size=3,
        )
    )
    running = [(now + off, n) for off, n in running]
    overlay = [(max(now + off, now + 2 * EPS), n) for off, n in overlay]
    total = free + sum(n for _, n in running) + sum(n for _, n in overlay)
    if total == 0:
        free = total = 1
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=total), max_size=20)
    )
    walls = draw(
        st.lists(
            st.one_of(
                st.floats(min_value=1.0, max_value=8000.0),
                st.sampled_from([EPS / 2, 1000.0]),
            ),
            min_size=len(sizes),
            max_size=len(sizes),
        )
    )
    return now, free, running, overlay, sizes, walls


def rigid(job_id, size):
    return Job(
        job_id=job_id,
        job_type=JobType.RIGID,
        submit_time=0.0,
        size=size,
        runtime=1.0,
        estimate=1.0,
    )


def views(now, free, running, overlay):
    """The same availability as a timeline-backed and a static view."""
    tl = AvailabilityTimeline()
    for key, (t, n) in enumerate(running):
        tl.set_block(key, t, n)
    yield ProfileView(now, free, timeline=tl, overlay=list(overlay))
    yield ProfileView.from_blocks(now, free, running + overlay)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(planning_inputs())
def test_planner_matches_full_queue_oracle(inputs):
    now, free, running, overlay, sizes, walls = inputs
    queue = [rigid(i, size) for i, size in enumerate(sizes)]
    wall_of = {i: w for i, w in enumerate(walls)}
    for view in views(now, free, running, overlay):
        got = ConservativeBackfillPlanner().plan(
            profile=view,
            ordered_queue=queue,
            loanable=[],
            predict_wall=lambda job, nodes: wall_of[job.job_id],
        )
        assert [
            (d.job.job_id, d.nodes, d.free_used, d.backfilled) for d in got
        ] == ref_plan(view, queue, wall_of)


@settings(max_examples=400, deadline=None)
@given(
    planning_inputs(),
    st.lists(
        st.tuples(
            offsets,
            st.floats(min_value=EPS / 2, max_value=6000.0),
            st.integers(min_value=1, max_value=40),
        ),
        max_size=10,
    ),
)
def test_windowed_reserve_matches_full_walk(inputs, reserves):
    now, free, running, overlay, _, _ = inputs
    prof = next(views(now, free, running, overlay)).build_profile()
    times, avail = list(prof.times), list(prof.avail)
    for off, duration, nodes in reserves:
        start = now + off
        try:
            ref_reserve(times, avail, start, duration, nodes)
        except AssertionError:
            # the windowed reserve must refuse the same over-subscription
            with pytest.raises(AssertionError, match="went negative"):
                prof.reserve(start, duration, nodes)
            return
        prof.reserve(start, duration, nodes)
        assert prof.times == times
        assert prof.avail == avail


def test_cutoff_still_reserves_jobs_ahead_of_a_small_one():
    # 10 free now: the 40-node head cannot start, but the 5-node job
    # behind it can, so the head must still be planned and reserved
    # first (it takes the release at t=100 and blocks the 8-node job)
    view = ProfileView.from_blocks(0.0, 10, [(100.0, 40)])
    queue = [rigid(0, 40), rigid(1, 5), rigid(2, 8)]
    walls = {0: 1000.0, 1: 50.0, 2: 500.0}
    got = ConservativeBackfillPlanner().plan(
        profile=view,
        ordered_queue=queue,
        loanable=[],
        predict_wall=lambda job, nodes: walls[job.job_id],
    )
    assert [(d.job.job_id, d.backfilled) for d in got] == [(1, True)]
    assert ref_plan(view, queue, walls) == [(1, 5, 5, True)]


def test_windowed_reserve_raises_on_negative_segment():
    p = AvailabilityProfile(0.0, 10, [(100.0, 20)])
    with pytest.raises(AssertionError, match="went negative"):
        # fits after t=100 (30 free) but not before it (10 free)
        p.reserve(50.0, 200.0, 25)
