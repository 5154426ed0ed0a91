"""Tests for the fine-grained metric breakdowns."""

import pytest

from repro.core.mechanisms import Mechanism
from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job, JobType, NoticeClass
from repro.metrics.breakdown import (
    ondemand_by_notice_class,
    utilization_series,
    utilization_sparkline,
    waste_by_type,
)
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulation
from repro.util.timeconst import HOUR


def cfg():
    return SimConfig(
        system_size=100,
        checkpoint=CheckpointModel.disabled(),
        validate_invariants=True,
    )


def trace():
    return [
        Job(job_id=1, job_type=JobType.RIGID, submit_time=0.0, size=100,
            runtime=2 * HOUR, estimate=2 * HOUR),
        Job(job_id=2, job_type=JobType.ONDEMAND, submit_time=HOUR, size=40,
            runtime=HOUR, estimate=HOUR),
        Job(job_id=3, job_type=JobType.ONDEMAND, submit_time=1.5 * HOUR,
            size=20, runtime=0.5 * HOUR, estimate=0.5 * HOUR,
            notice_class=NoticeClass.ACCURATE, notice_time=HOUR,
            estimated_arrival=1.5 * HOUR),
    ]


@pytest.fixture(scope="module")
def result():
    return Simulation(trace(), cfg(), Mechanism.parse("N&PAA")).run()


class TestNoticeClassBreakdown:
    def test_groups_cover_all_classes(self, result):
        rows = ondemand_by_notice_class(result)
        assert {r.notice_class for r in rows} == {
            "none", "accurate", "early", "late"
        }

    def test_counts(self, result):
        rows = {r.notice_class: r for r in ondemand_by_notice_class(result)}
        assert rows["none"].count == 1
        assert rows["accurate"].count == 1
        assert rows["early"].count == 0

    def test_instant_rates(self, result):
        rows = {r.notice_class: r for r in ondemand_by_notice_class(result)}
        assert rows["none"].instant_rate == 1.0
        assert rows["accurate"].instant_rate == 1.0


class TestWasteByType:
    def test_victim_type_carries_waste(self, result):
        w = waste_by_type(result)
        assert w["rigid"]["preemptions"] >= 1
        assert w["rigid"]["lost_compute_node_h"] > 0
        assert w["ondemand"]["lost_compute_node_h"] == 0.0


class TestUtilizationSeries:
    def test_series_bounds(self, result):
        series = utilization_series(result)
        assert series
        assert all(0.0 <= u <= 1.0 for u in series)

    def test_first_hour_fully_used(self, result):
        series = utilization_series(result)
        # the rigid job holds the whole machine in hour 0
        assert series[0] > 0.9

    def test_sparkline_renders(self, result):
        line = utilization_sparkline(result)
        assert isinstance(line, str)
        assert len(line) == len(utilization_series(result))

    def test_sparkline_width_cap(self, result):
        assert len(utilization_series(result)) > 2
        line = utilization_sparkline(result, width=2)
        assert len(line) == 2

    def test_hand_computed_bins(self):
        """Hour bins of a run with a malleable shrink + expand inside one
        segment, a preemption gap, and a resumed segment spanning three
        bins."""
        jobs = [
            # 60 nodes at 0, shrunk to 40 at 0.5 h by job 2, expanded
            # back to 60 at 1 h: 30 + 20 + 10 node-h of work by 7/6 h
            Job(job_id=1, job_type=JobType.MALLEABLE, submit_time=0.0,
                size=60, min_size=20, runtime=HOUR, estimate=HOUR),
            Job(job_id=2, job_type=JobType.ONDEMAND, submit_time=0.5 * HOUR,
                size=60, runtime=0.5 * HOUR, estimate=0.5 * HOUR),
            # the whole machine at 2 h, preempted at 3 h by job 4 and
            # resumed from scratch at 3.5 h until 5.5 h
            Job(job_id=3, job_type=JobType.RIGID, submit_time=2 * HOUR,
                size=100, runtime=2 * HOUR, estimate=2 * HOUR),
            Job(job_id=4, job_type=JobType.ONDEMAND, submit_time=3 * HOUR,
                size=60, runtime=0.5 * HOUR, estimate=0.5 * HOUR),
        ]
        res = Simulation(jobs, cfg(), Mechanism.parse("N&SPAA")).run()
        assert res.accumulator.bin_s == HOUR
        # job 1's segment counts at its mean, 60 node-h / (7/6) h
        mean_1 = 60.0 / (7.0 / 6.0)
        want = [
            (mean_1 * 1.0 + 60 * 0.5) / 100,  # job 1 + job 2's half hour
            (mean_1 / 6.0) / 100,  # job 1's last 10 minutes
            1.0,  # job 3
            (60 * 0.5 + 100 * 0.5) / 100,  # the gap holds job 4 only
            1.0,  # job 3 resumed
            0.5,  # job 3's last half hour
        ]
        assert utilization_series(res) == pytest.approx(want, abs=1e-12)

    def test_series_reaches_the_last_end(self):
        """A last segment too short to be recorded still ends inside
        the horizon, which keeps its (empty) bin."""
        res = Simulation(
            [Job(job_id=1, job_type=JobType.RIGID, submit_time=2 * HOUR,
                 size=10, runtime=1e-7, estimate=1e-7)],
            cfg(),
        ).run()
        assert len(res.accumulator.usage_ns) == 0
        assert utilization_series(res) == [0.0, 0.0, 0.0]

    def test_long_run_folds(self):
        """A run past 2^14 hour bins folds once into two-hour bins."""
        two_years = 2 * 365 * 24 * HOUR
        res = Simulation(
            [Job(job_id=1, job_type=JobType.RIGID, submit_time=0.0,
                 size=100, runtime=two_years, estimate=two_years)],
            cfg(),
        ).run()
        assert res.accumulator.bin_s == 2 * HOUR
        series = utilization_series(res)
        # 8,760 full bins, then the empty bin holding the last end
        assert len(series) == 8_761
        assert series[:-1] == pytest.approx([1.0] * 8_760)
        assert series[-1] == 0.0
