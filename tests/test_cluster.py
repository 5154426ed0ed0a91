"""Unit tests for the cluster's free-pool accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cluster import Cluster
from repro.util.errors import InvariantViolation


class TestAllocation:
    def test_start_and_end(self):
        c = Cluster(100)
        c.allocate(30)
        assert c.free == 70
        c.release(30)
        assert c.free == 100

    def test_over_allocation_rejected(self):
        c = Cluster(100)
        with pytest.raises(InvariantViolation):
            c.allocate(101)
        assert c.free == 100

    def test_zero_nodes_rejected(self):
        with pytest.raises(InvariantViolation):
            Cluster(100).allocate(0)

    def test_zero_release_rejected(self):
        c = Cluster(100)
        c.allocate(10)
        with pytest.raises(InvariantViolation):
            c.release(0)

    def test_release_beyond_total_rejected(self):
        c = Cluster(100)
        c.allocate(10)
        with pytest.raises(InvariantViolation):
            c.release(11)
        assert c.free == 90

    def test_bad_total(self):
        with pytest.raises(ValueError):
            Cluster(0)


class TestResize:
    def test_shrink_and_expand(self):
        c = Cluster(100)
        c.allocate(50)
        assert c.resize(50, 30) == -20
        assert c.free == 70
        assert c.resize(30, 60) == 30
        assert c.free == 40
        assert c.resize(60, 60) == 0
        assert c.free == 40

    def test_expand_beyond_free_rejected(self):
        c = Cluster(100)
        c.allocate(50)
        c.allocate(50)
        with pytest.raises(InvariantViolation):
            c.resize(50, 60)
        assert c.free == 0

    def test_resize_to_zero_rejected(self):
        c = Cluster(100)
        c.allocate(50)
        with pytest.raises(InvariantViolation):
            c.resize(50, 0)
        assert c.free == 50


class TestTimeIntegral:
    def test_free_node_seconds(self):
        c = Cluster(100)
        c.advance(10.0)  # 100 free * 10s
        c.allocate(40)
        c.advance(20.0)  # 60 free * 10s
        assert c.free_node_seconds == pytest.approx(1000.0 + 600.0)

    def test_clock_backwards_rejected(self):
        c = Cluster(10)
        c.advance(5.0)
        with pytest.raises(InvariantViolation):
            c.advance(4.0)


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["start", "end", "resize"]),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=40),
        ),
        max_size=40,
    )
)
def test_conservation_under_random_ops(ops):
    """free + sum(allocations) == total holds through any op sequence.

    The allocations are tracked here, as the simulator tracks them on
    its running records; an op the cluster refuses must leave the free
    pool untouched, so the caller's copy stays right.
    """
    c = Cluster(100)
    alloc = {}
    for op, job_id, nodes in ops:
        try:
            if op == "start" and job_id not in alloc:
                c.allocate(nodes)
                alloc[job_id] = nodes
            elif op == "end" and job_id in alloc:
                c.release(alloc.pop(job_id))
            elif op == "resize" and job_id in alloc:
                c.resize(alloc[job_id], nodes)
                alloc[job_id] = nodes
        except InvariantViolation:
            pass  # illegal op correctly refused; state must stay consistent
        assert c.free + sum(alloc.values()) == c.total
        assert c.free >= 0
