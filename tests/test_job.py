"""Unit tests for the Job model: validation, state machine, derived values."""

import math

import pytest

from repro.jobs.job import Job, JobState, JobType, NoticeClass
from repro.util.errors import ConfigurationError


def rigid(job_id=0, **kw):
    base = dict(
        job_id=job_id,
        job_type=JobType.RIGID,
        submit_time=0.0,
        size=128,
        runtime=3600.0,
        estimate=7200.0,
    )
    base.update(kw)
    return Job(**base)


def malleable(job_id=0, **kw):
    base = dict(
        job_id=job_id,
        job_type=JobType.MALLEABLE,
        submit_time=0.0,
        size=100,
        min_size=20,
        runtime=3600.0,
        estimate=7200.0,
    )
    base.update(kw)
    return Job(**base)


def ondemand(job_id=0, **kw):
    base = dict(
        job_id=job_id,
        job_type=JobType.ONDEMAND,
        submit_time=1800.0,
        size=64,
        runtime=600.0,
        estimate=1200.0,
    )
    base.update(kw)
    return Job(**base)


class TestValidation:
    def test_estimate_below_runtime_rejected(self):
        with pytest.raises(ConfigurationError):
            rigid(estimate=100.0, runtime=3600.0)

    def test_estimate_equal_runtime_ok(self):
        assert rigid(estimate=3600.0).estimate == 3600.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"size": 0},
            {"runtime": 0},
            {"runtime": -5},
            {"setup_time": -1},
            {"submit_time": -1},
            {"job_id": -1},
        ],
    )
    def test_bad_scalars(self, kw):
        with pytest.raises(ConfigurationError):
            rigid(**kw)

    def test_malleable_requires_min_size(self):
        with pytest.raises(ConfigurationError):
            malleable(min_size=None)

    @pytest.mark.parametrize("min_size", [0, 101, -1])
    def test_malleable_min_size_bounds(self, min_size):
        with pytest.raises(ConfigurationError):
            malleable(min_size=min_size)

    def test_rigid_with_min_size_rejected(self):
        with pytest.raises(ConfigurationError):
            rigid(min_size=64)

    def test_rigid_min_size_equal_size_tolerated(self):
        assert rigid(min_size=128).smallest_size == 128

    def test_notice_only_for_ondemand(self):
        with pytest.raises(ConfigurationError):
            rigid(notice_class=NoticeClass.ACCURATE)

    def test_od_notice_requires_fields(self):
        with pytest.raises(ConfigurationError):
            ondemand(notice_class=NoticeClass.ACCURATE)

    def test_od_notice_after_arrival_rejected(self):
        with pytest.raises(ConfigurationError):
            ondemand(
                notice_class=NoticeClass.ACCURATE,
                notice_time=2000.0,
                estimated_arrival=1800.0,
            )

    def test_od_valid_notice(self):
        j = ondemand(
            notice_class=NoticeClass.ACCURATE,
            notice_time=900.0,
            estimated_arrival=1800.0,
        )
        assert j.notice_time == 900.0


class TestDerived:
    def test_work_node_seconds(self):
        assert malleable().work_node_seconds == 3600.0 * 100

    def test_smallest_size(self):
        assert rigid().smallest_size == 128
        assert malleable().smallest_size == 20
        assert ondemand().smallest_size == 64

    def test_type_flags(self):
        assert rigid().is_rigid and not rigid().is_malleable
        assert malleable().is_malleable
        assert ondemand().is_ondemand

    def test_turnaround_nan_until_done(self):
        j = rigid()
        assert math.isnan(j.turnaround)
        j.stats.end_time = 5000.0
        assert j.turnaround == 5000.0

    def test_start_delay(self):
        j = ondemand()
        assert math.isnan(j.start_delay)
        j.stats.first_start = 1800.0
        assert j.start_delay == 0.0


class TestStateMachine:
    def test_normal_path(self):
        j = rigid()
        j.set_state(JobState.QUEUED)
        j.set_state(JobState.RUNNING)
        j.set_state(JobState.COMPLETED)

    def test_preemption_cycle(self):
        j = rigid()
        j.set_state(JobState.QUEUED)
        j.set_state(JobState.RUNNING)
        j.set_state(JobState.QUEUED)
        j.set_state(JobState.RUNNING)
        j.set_state(JobState.COMPLETED)

    def test_notice_path(self):
        j = ondemand(
            notice_class=NoticeClass.ACCURATE,
            notice_time=900.0,
            estimated_arrival=1800.0,
        )
        j.set_state(JobState.NOTICED)
        j.set_state(JobState.QUEUED)

    @pytest.mark.parametrize(
        "path",
        [
            [JobState.RUNNING],
            [JobState.COMPLETED],
            [JobState.QUEUED, JobState.COMPLETED],
            [JobState.QUEUED, JobState.RUNNING, JobState.NOTICED],
        ],
    )
    def test_illegal_transitions(self, path):
        j = rigid()
        with pytest.raises(ConfigurationError):
            for state in path:
                j.set_state(state)

    def test_completed_is_terminal(self):
        j = rigid()
        j.set_state(JobState.QUEUED)
        j.set_state(JobState.RUNNING)
        j.set_state(JobState.COMPLETED)
        with pytest.raises(ConfigurationError):
            j.set_state(JobState.QUEUED)


class TestStats:
    def test_waste_accounting(self):
        j = rigid()
        j.stats.lost_node_seconds = 100.0
        j.stats.wasted_setup_node_seconds = 50.0
        assert j.stats.waste_node_seconds == 150.0
