"""Differential tests: conservative planner against a full-queue oracle.

``ConservativeBackfillPlanner.plan`` stops at the wall-aware capacity
cutoff, and ``AvailabilityProfile.reserve_earliest`` finds a start and
reserves it in one walk that touches only the segments inside the
window.  The oracle below is the plain form of both: it reserves every
queued job, finds each start with a separate search, and walks the
whole profile on each reserve.  The two must make identical decisions
and leave identical profiles.

Both follow one breakpoint rule: no two breakpoints lie within EPS of
each other.  A release within EPS of the previous breakpoint merges into
it when the profile is built, and a reserve boundary within EPS of an
existing breakpoint snaps to it.
"""

from bisect import bisect_left

import pytest
from hypothesis import example, given, settings, strategies as st

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
def ref_build_profile(view):
    """``(times, avail)`` of *view*'s free-node step function."""
    times, avail = [view.now], [view.free]
    for t, nodes in sorted(view.releases()):
        if t <= times[-1] + EPS:  # merges into the previous breakpoint
            avail[-1] += nodes
        else:
            times.append(t)
            avail.append(avail[-1] + nodes)
    return times, avail


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
    if end - EPS <= start:
        # a window of EPS or less touches no segment; its end may still
        # round to more than EPS past a start breakpoint, and inserting
        # it would put it before that breakpoint
        return
    ref_insert_breakpoint(times, avail, start)
    ref_insert_breakpoint(times, avail, end)
    for i, t in enumerate(times):
        if start - EPS <= t < end - EPS:
            avail[i] -= nodes
            if avail[i] < 0:
                raise AssertionError(f"profile went negative at t={t}")


def ref_plan(view, queue, walls):
    """Reserve every queued job in order; starts are those at ``now``."""
    times, avail = ref_build_profile(view)
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
# two releases past now + EPS but less than EPS apart: reserving at the
# later one used to hit the earlier one too and drive it negative
@example((0.0, 1, [(1.27e-6, 1), (2e-6, 1)], [], [2, 1], [1.0, 1.0]))
# the head's reservation empties [100, 1100); the 5-node job behind it
# still fits in avail[0] = 10, but its 500 s window reaches t=100, so
# the wall-aware cutoff stops the pass there
@example((0.0, 10, [(100.0, 30)], [], [40, 5, 8], [1000.0, 500.0, 600.0]))
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
            st.one_of(
                st.floats(min_value=EPS / 2, max_value=6000.0),
                st.sampled_from([EPS / 2, EPS, 2 * EPS]),
            ),
            st.integers(min_value=1, max_value=40),
        ),
        max_size=10,
    ),
)
# a window shorter than EPS whose earliest start is the later breakpoint
# t=100: no breakpoint is added and nothing is subtracted
@example((0.0, 0, [(100.0, 5)], [], [], []), [(EPS / 2, 3), (EPS / 2, 5)])
# at start 2.0 the end 2.0 + EPS lies more than EPS past the start once
# rounded, though the window ends at the start: still nothing reserved
@example((0.0, 1, [], [], [], []), [(1.0, 1), (1.0, 1), (EPS, 1)])
def test_windowed_reserve_matches_full_walk(inputs, reserves):
    now, free, running, overlay, _, _ = inputs
    view = next(views(now, free, running, overlay))
    prof = view.build_profile()
    times, avail = ref_build_profile(view)
    assert (prof.times, prof.avail) == (times, avail)
    for duration, nodes in reserves:
        if nodes > avail[-1]:
            # no segment ever holds that many nodes
            with pytest.raises(AssertionError):
                prof.reserve_earliest(nodes, duration)
            return
        start = ref_earliest_start(times, avail, nodes, duration)
        ref_reserve(times, avail, start, duration, nodes)
        assert prof.reserve_earliest(nodes, duration) == start
        assert prof.times == times
        assert prof.avail == avail
        assert min(prof.avail) >= 0


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


def test_wall_aware_cutoff_stops_before_a_short_segment(monkeypatch):
    # the head's reservation empties [100, 1100); avail[0] = 10 still
    # covers the 5- and 8-node jobs behind it, but both windows reach
    # t=100, so neither can start now and neither is reserved
    sizes = []
    reserve_earliest = AvailabilityProfile.reserve_earliest

    def counted(self, nodes, duration):
        sizes.append(nodes)
        return reserve_earliest(self, nodes, duration)

    monkeypatch.setattr(AvailabilityProfile, "reserve_earliest", counted)
    view = ProfileView.from_blocks(0.0, 10, [(100.0, 30)])
    queue = [rigid(0, 40), rigid(1, 5), rigid(2, 8)]
    walls = {0: 1000.0, 1: 500.0, 2: 600.0}
    got = ConservativeBackfillPlanner().plan(
        profile=view,
        ordered_queue=queue,
        loanable=[],
        predict_wall=lambda job, nodes: walls[job.job_id],
    )
    assert got == [] == ref_plan(view, queue, walls)
    assert sizes == [40]
