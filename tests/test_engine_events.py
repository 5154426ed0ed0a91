"""Unit tests for the event queue: ordering, batching, determinism."""

import pytest

from repro.sim.engine import EventQueue
from repro.sim.events import EventType
from repro.util.errors import SimulationError


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(5.0, EventType.JOB_SUBMIT)
        q.push(1.0, EventType.JOB_SUBMIT)
        q.push(3.0, EventType.JOB_SUBMIT)
        assert [q.pop().time for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_same_time_priority_order(self):
        """Finishes before planned preempts before notices before submits."""
        q = EventQueue()
        # the job id payload tags each event: 1=f, 2=p, 3=n, 4=s, 5=t
        q.push(10.0, EventType.JOB_SUBMIT, 4)
        q.push(10.0, EventType.JOB_FINISH, 1)
        q.push(10.0, EventType.RESERVATION_TIMEOUT, 5)
        q.push(10.0, EventType.ADVANCE_NOTICE, 3)
        q.push(10.0, EventType.PLANNED_PREEMPT, 2)
        tags = [q.pop().job_id for _ in range(5)]
        assert tags == [1, 2, 3, 4, 5]

    def test_fifo_within_type(self):
        q = EventQueue()
        q.push(10.0, EventType.JOB_SUBMIT, 1)
        q.push(10.0, EventType.JOB_SUBMIT, 2)
        q.push(10.0, EventType.JOB_SUBMIT, 3)
        assert [q.pop().job_id for _ in range(3)] == [1, 2, 3]

    def test_clock_advances_on_pop(self):
        q = EventQueue()
        q.push(4.0, EventType.JOB_SUBMIT)
        assert q.now == 0.0
        q.pop()
        assert q.now == 4.0

    def test_push_into_past_rejected(self):
        q = EventQueue()
        q.push(4.0, EventType.JOB_SUBMIT)
        q.pop()
        with pytest.raises(SimulationError):
            q.push(3.0, EventType.JOB_SUBMIT)

    def test_push_at_now_allowed(self):
        q = EventQueue()
        q.push(4.0, EventType.JOB_SUBMIT)
        q.pop()
        q.push(4.0, EventType.JOB_FINISH)
        assert q.pop().type is EventType.JOB_FINISH


class TestBatching:
    def test_batch_same_timestamp(self):
        q = EventQueue()
        q.push(1.0, EventType.JOB_SUBMIT)
        q.push(1.0, EventType.JOB_FINISH)
        q.push(2.0, EventType.JOB_SUBMIT)
        batch = q.pop_batch()
        assert len(batch) == 2
        assert batch[0].type is EventType.JOB_FINISH
        assert len(q) == 1

    def test_batch_empty(self):
        assert EventQueue().pop_batch() == []

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_counts_by_type(self):
        q = EventQueue()
        q.push(1.0, EventType.JOB_SUBMIT)
        q.push(2.0, EventType.JOB_SUBMIT)
        q.push(3.0, EventType.JOB_FINISH)
        assert q.counts_by_type() == {"JOB_SUBMIT": 2, "JOB_FINISH": 1}

    def test_peek(self):
        q = EventQueue()
        assert q.peek() is None
        q.push(1.0, EventType.JOB_SUBMIT)
        assert q.peek().time == 1.0
        assert len(q) == 1


class TestBatchPriority:
    def test_finish_a_hair_after_submit_runs_first(self):
        # the heap orders by time first, so without the batch re-sort the
        # submit at t pops before the finish at t + 1e-8 in one batch
        q = EventQueue()
        t = 1.0e8
        q.push(t + 1e-8, EventType.JOB_FINISH, 1)  # f
        q.push(t, EventType.JOB_SUBMIT, 2)  # s
        batch = q.pop_batch()
        assert [ev.job_id for ev in batch] == [1, 2]
        # the clock stays at the batch's first time, not the later one
        assert q.now == t

    def test_batch_sorted_by_type_then_seq(self):
        q = EventQueue()
        t = 3.0e8
        q.push(t, EventType.JOB_SUBMIT, 3)  # s1
        q.push(t + 1e-8, EventType.ADVANCE_NOTICE, 2)  # n
        q.push(t + 2e-8, EventType.JOB_SUBMIT, 4)  # s2
        q.push(t + 2e-8, EventType.JOB_FINISH, 1)  # f
        batch = q.pop_batch()
        assert [ev.job_id for ev in batch] == [1, 2, 3, 4]
        assert q.now == t
