"""Differential tests for the event loop's fast paths.

Three shortcuts on the per-event and per-job path are checked against
plain references, bit for bit:

* ``RigidExecution.complete`` builds the completion accounting in
  closed form; the reference is ``RigidTimeline.accounting_until`` at
  the segment's natural finish, which re-derives progress, retained work
  and the finish through the general timeline math.
* ``RigidTimeline.finish_time`` and ``num_checkpoints`` return values
  computed once in ``__init__``; the reference is the formula over the
  public fields.
* ``EventQueue.pop_batch`` pops a heap of event tuples; the reference
  keeps every pending event in a list and sorts the whole list per
  batch, at clock values up to ``t ~ 1e9`` where same-instant events
  land a few ULPs apart.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.jobs.job import Job, JobType
from repro.jobs.rigid_exec import RigidExecution, RigidTimeline
from repro.sim.engine import EventQueue
from repro.sim.events import EventType
from repro.util.errors import InvariantViolation


def bits(values):
    """Floats as hex strings: equal exactly when bit-identical."""
    return [float(v).hex() for v in values]


# ----------------------------------------------------------------------
# Rigid segments: closed-form completion and the cached finish
# ----------------------------------------------------------------------
positive = st.floats(min_value=1e-3, max_value=1e7, allow_nan=False)
segment = st.fixed_dictionaries(
    {
        "start": st.floats(min_value=0.0, max_value=1e9),
        "setup": st.floats(min_value=0.0, max_value=1e4),
        "total_work": positive,
        # base_work as a fraction of total_work, so it stays below it
        "base_frac": st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=0.999)
        ),
        "interval": st.one_of(
            st.just(math.inf), st.floats(min_value=60.0, max_value=1e6)
        ),
        "cost": st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=5e3)
        ),
        "nodes": st.integers(min_value=1, max_value=4096),
    }
)


#: work a hair past a whole number of intervals: the checkpoint count's
#: ``- EPS`` decides whether a mark sits at the finish line
NEAR_MULTIPLE = {
    "start": 0.0, "setup": 100.0, "total_work": 9000.000001,
    "base_frac": 0.0, "interval": 3000.0, "cost": 600.0, "nodes": 4,
}


def _timeline(seg) -> RigidTimeline:
    return RigidTimeline(
        start=seg["start"],
        setup=seg["setup"],
        base_work=seg["total_work"] * seg["base_frac"],
        total_work=seg["total_work"],
        interval=seg["interval"],
        cost=seg["cost"],
    )


@settings(max_examples=400, deadline=None)
@given(seg=segment)
@example(seg=NEAR_MULTIPLE)
def test_closed_form_complete_matches_accounting_until(seg):
    job = Job(
        job_id=1,
        job_type=JobType.RIGID,
        submit_time=0.0,
        size=seg["nodes"],
        runtime=seg["total_work"],
        estimate=seg["total_work"],
        setup_time=seg["setup"],
    )
    ex = RigidExecution(job, interval=seg["interval"], cost=seg["cost"])
    ex.completed_work = seg["total_work"] * seg["base_frac"]
    ex.start_segment(seg["start"], seg["nodes"])
    reference_tl = _timeline(seg)
    finish = reference_tl.finish_time()
    try:
        expected = reference_tl.accounting_until(finish, seg["nodes"])
    except InvariantViolation:
        # node-second totals so large that float rounding exceeds the
        # identity check's absolute slack: the fast path must refuse too
        with pytest.raises(InvariantViolation):
            ex.complete(finish)
        return

    got = ex.complete(finish)

    assert type(got) is type(expected)
    assert got._fields == expected._fields
    assert bits(got) == bits(expected)
    assert ex.completed_work == seg["total_work"]
    assert ex.timeline is None


@settings(max_examples=400, deadline=None)
@given(seg=segment)
@example(seg=NEAR_MULTIPLE)
def test_cached_finish_time_equals_the_formula(seg):
    tl = _timeline(seg)
    remaining = tl.total_work - tl.base_work
    if math.isinf(tl.interval):
        n_checkpoints = 0
    else:
        n_checkpoints = max(0, math.ceil(remaining / tl.interval - 1e-6) - 1)
    formula = tl.start + tl.setup + remaining + n_checkpoints * tl.cost
    assert tl.num_checkpoints == n_checkpoints
    assert bits([tl.finish_time()]) == bits([formula])


# ----------------------------------------------------------------------
# pop_batch against a whole-list sort
# ----------------------------------------------------------------------
class ReferenceQueue:
    """Every pending event in one list, sorted whole for each batch."""

    def __init__(self) -> None:
        self.pending = []
        self.seq = 0
        self.now = 0.0

    def push(self, time, etype, job_id):
        self.pending.append((float(time), etype, self.seq, job_id, 0))
        self.seq += 1

    def pop_batch(self):
        if not self.pending:
            return []
        self.pending.sort()
        t = self.pending[0][0]
        tol = max(1e-9, 4.0 * math.ulp(t))
        batch = [ev for ev in self.pending if ev[0] - t <= tol]
        self.pending = [ev for ev in self.pending if ev[0] - t > tol]
        self.now = t
        return sorted(batch, key=lambda ev: (ev[1], ev[2]))


# a push lands 0..6 ULPs past the clock (a same-instant tie computed by
# another float expression), or a genuinely later time
offset = st.one_of(
    st.tuples(st.just("ulps"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("seconds"), st.floats(min_value=1e-10, max_value=5e3)),
)
push_round = st.lists(
    st.tuples(offset, st.sampled_from(list(EventType))), max_size=6
)


def _at(base: float, off) -> float:
    kind, amount = off
    if kind == "seconds":
        return base + amount
    t = base
    for _ in range(amount):
        t = math.nextafter(t, math.inf)
    return t


@settings(max_examples=300, deadline=None)
@given(
    origin=st.sampled_from([0.0, 100.0, 3.0e8, 1.0e9, 1.7e9]),
    rounds=st.lists(push_round, min_size=1, max_size=12),
)
def test_pop_batch_matches_whole_list_sort(origin, rounds):
    q, ref = EventQueue(), ReferenceQueue()
    job_id = 0
    for pushes in rounds:
        base = max(q.now, origin)
        for off, etype in pushes:
            t = _at(base, off)
            q.push(t, etype, job_id)
            ref.push(t, etype, job_id)
            job_id += 1
        got = q.pop_batch()
        assert [tuple(ev) for ev in got] == ref.pop_batch()
        assert bits([q.now]) == bits([ref.now])
    # drain what is left
    while len(q):
        assert [tuple(ev) for ev in q.pop_batch()] == ref.pop_batch()
        assert bits([q.now]) == bits([ref.now])
    assert ref.pending == []


def test_pop_batch_keeps_ulp_ties_at_a_billion_seconds():
    # three events a few ULPs apart at t ~ 1e9 form one batch, ordered by
    # (type, seq); the clock sits at the earliest of them
    t = 1.0e9
    q, ref = EventQueue(), ReferenceQueue()
    for time, etype, job_id in (
        (math.nextafter(t, math.inf), EventType.JOB_SUBMIT, 1),
        (t, EventType.JOB_SUBMIT, 2),
        (math.nextafter(math.nextafter(t, math.inf), math.inf),
         EventType.JOB_FINISH, 3),
    ):
        q.push(time, etype, job_id)
        ref.push(time, etype, job_id)
    batch = q.pop_batch()
    assert [ev.job_id for ev in batch] == [3, 1, 2]
    assert [tuple(ev) for ev in batch] == ref.pop_batch()
    assert q.now == t
