"""Unit tests for the EASY backfill planner on hand-built scenarios."""

import math

import pytest

from repro.jobs.job import Job, JobType
from repro.sched.easy import BackfillPlanner
from repro.sched.profile import ProfileView


def rigid(job_id, size, estimate=1000.0, submit=0.0):
    return Job(
        job_id=job_id,
        job_type=JobType.RIGID,
        submit_time=submit,
        size=size,
        runtime=estimate,
        estimate=estimate,
    )


def malleable(job_id, size, min_size, estimate=1000.0):
    return Job(
        job_id=job_id,
        job_type=JobType.MALLEABLE,
        submit_time=0.0,
        size=size,
        min_size=min_size,
        runtime=estimate,
        estimate=estimate,
    )


def flat_wall(job, nodes):
    """Simple wall predictor: estimate scaled by the malleable size."""
    if job.is_malleable:
        return job.estimate * job.size / nodes
    return job.estimate


def plan(queue, free, loanable=(), blocks=(), planner=None, now=0.0):
    planner = planner or BackfillPlanner()
    return planner.plan(
        profile=ProfileView.from_blocks(now, free, list(blocks)),
        ordered_queue=queue,
        loanable=list(loanable),
        predict_wall=flat_wall,
    )


class TestHeadStarts:
    def test_starts_in_order_while_fitting(self):
        ds = plan([rigid(1, 30), rigid(2, 40), rigid(3, 40)], free=80)
        assert [(d.job.job_id, d.nodes) for d in ds] == [(1, 30), (2, 40)]
        assert not ds[0].backfilled

    def test_empty_queue(self):
        assert plan([], free=100) == []

    def test_head_blocks_when_too_big(self):
        ds = plan([rigid(1, 100)], free=50)
        assert ds == []

    def test_malleable_head_starts_at_available(self):
        ds = plan([malleable(1, 100, 20)], free=60)
        assert ds[0].nodes == 60

    def test_malleable_head_capped_at_max(self):
        ds = plan([malleable(1, 100, 20)], free=300)
        assert ds[0].nodes == 100

    def test_malleable_below_min_blocks(self):
        ds = plan([malleable(1, 100, 20)], free=10)
        assert ds == []

    def test_inflexible_malleable_needs_full_size(self):
        planner = BackfillPlanner(flexible_malleable=False)
        ds = plan([malleable(1, 100, 20)], free=60, planner=planner)
        assert ds == []
        ds = plan([malleable(1, 100, 20)], free=100, planner=planner)
        assert ds[0].nodes == 100


class TestBackfill:
    def test_short_job_backfills_within_window(self):
        # Head needs 100; one running job (80 nodes) ends at t=2000.
        queue = [rigid(1, 100, estimate=5000.0), rigid(2, 30, estimate=1000.0)]
        ds = plan(queue, free=40, blocks=[(2000.0, 80)])
        assert [d.job.job_id for d in ds] == [2]
        assert ds[0].backfilled

    def test_long_job_does_not_delay_head(self):
        queue = [rigid(1, 100, estimate=5000.0), rigid(2, 30, estimate=9000.0)]
        ds = plan(queue, free=40, blocks=[(2000.0, 80)])
        # shadow=2000, extra=40+80-100=20 < 30, and 9000 > 2000 -> no fit
        assert ds == []

    def test_long_job_fits_on_extra_nodes(self):
        # free 40, release 80 at t=2000 -> extra = 120-100 = 20
        queue = [rigid(1, 100, estimate=5000.0), rigid(2, 20, estimate=9000.0)]
        ds = plan(queue, free=40, blocks=[(2000.0, 80)])
        assert [d.job.job_id for d in ds] == [2]

    def test_backfill_disabled(self):
        planner = BackfillPlanner(backfill_depth=0)
        queue = [rigid(1, 100, estimate=5000.0), rigid(2, 30, estimate=1000.0)]
        ds = plan(queue, free=40, blocks=[(2000.0, 80)], planner=planner)
        assert ds == []

    def test_backfill_depth_limits_scan(self):
        planner = BackfillPlanner(backfill_depth=1)
        queue = [
            rigid(1, 100, estimate=5000.0),
            rigid(2, 90, estimate=1000.0),  # depth-1 candidate, too big
            rigid(3, 30, estimate=1000.0),  # would fit but is beyond depth
        ]
        ds = plan(queue, free=40, blocks=[(2000.0, 80)], planner=planner)
        assert ds == []

    def test_multiple_backfills_deplete_free(self):
        queue = [
            rigid(1, 100, estimate=5000.0),
            rigid(2, 20, estimate=1000.0),
            rigid(3, 20, estimate=1000.0),
            rigid(4, 20, estimate=1000.0),
        ]
        ds = plan(queue, free=40, blocks=[(2000.0, 80)])
        assert [d.job.job_id for d in ds] == [2, 3]

    def test_malleable_backfill_sizes_to_window(self):
        # window 2000s; malleable work 1000*100 node-s; at 100 nodes -> 1000s
        queue = [rigid(1, 140, estimate=5000.0), malleable(2, 100, 10, estimate=1000.0)]
        ds = plan(queue, free=100, blocks=[(2000.0, 80)])
        assert ds and ds[0].job.job_id == 2
        assert ds[0].nodes == 100

    def test_shadow_from_now_when_head_fits_later_pool(self):
        """Head fits immediately after accounting -> shadow at now."""
        queue = [rigid(1, 100, estimate=5000.0)]
        ds = plan(queue, free=100)
        assert ds[0].job.job_id == 1


class TestLoans:
    def test_backfill_borrows_reserved_nodes(self):
        queue = [rigid(1, 200, estimate=9000.0), rigid(2, 50, estimate=1000.0)]
        ds = plan(
            queue,
            free=20,
            loanable=[(900, 40)],
            blocks=[(2000.0, 180), (5000.0, 40)],
        )
        assert ds and ds[0].job.job_id == 2
        assert ds[0].free_used == 20
        assert ds[0].loans == {900: 30}

    def test_loans_disabled(self):
        planner = BackfillPlanner(allow_loans=False)
        queue = [rigid(1, 200, estimate=9000.0), rigid(2, 50, estimate=1000.0)]
        ds = plan(
            queue,
            free=20,
            loanable=[(900, 40)],
            blocks=[(2000.0, 180)],
            planner=planner,
        )
        assert ds == []

    def test_loans_never_delay_head(self):
        """A job on loaned nodes with a long runtime must still fit: loans
        are invisible to the shadow."""
        queue = [rigid(1, 200, estimate=5000.0), rigid(2, 40, estimate=99000.0)]
        ds = plan(
            queue,
            free=0,
            loanable=[(900, 40)],
            blocks=[(2000.0, 200)],
        )
        assert ds and ds[0].loans == {900: 40}
        assert ds[0].free_used == 0

    def test_loan_pool_depletes(self):
        queue = [
            rigid(1, 200, estimate=5000.0),
            rigid(2, 30, estimate=99000.0),
            rigid(3, 30, estimate=99000.0),
        ]
        ds = plan(
            queue,
            free=0,
            loanable=[(900, 40)],
            blocks=[(2000.0, 200)],
        )
        assert len(ds) == 1  # only 40 loanable nodes


class TestShadowMath:
    def test_shadow_accumulates_releases(self):
        view = ProfileView.from_blocks(
            0.0, 20, [(500.0, 30), (900.0, 60), (1500.0, 50)]
        )
        info = view.shadow(100)
        assert info.time == 900.0
        assert info.extra_nodes == 10

    def test_shadow_infinite_when_unreachable(self):
        view = ProfileView.from_blocks(0.0, 20, [(500.0, 30)])
        assert math.isinf(view.shadow(100).time)

    def test_shadow_immediate(self):
        info = ProfileView.from_blocks(7.0, 50, []).shadow(10)
        assert info.time == 7.0
        assert info.extra_nodes == 40

    def test_shadow_free_override_after_phase1(self):
        """Phase 1 consumes free nodes; the shadow sees the reduced pool."""
        view = ProfileView.from_blocks(0.0, 50, [(500.0, 80)])
        info = view.shadow(100, free=20)
        assert info.time == 500.0
        assert info.extra_nodes == 0
