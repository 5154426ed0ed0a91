"""Edge-case and configuration-propagation tests for the simulator."""

import pytest

from repro.core.mechanisms import Mechanism
from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job, JobState, JobType
from repro.sim.config import SimConfig
from repro.sim.failures import FailureModel
from repro.sim.simulator import Simulation
from repro.util.errors import ConfigurationError


def rigid(job_id, submit=0.0, size=10, runtime=100.0, estimate=None):
    return Job(
        job_id=job_id,
        job_type=JobType.RIGID,
        submit_time=submit,
        size=size,
        runtime=runtime,
        estimate=estimate or runtime,
    )


def cfg(**kw):
    base = dict(
        system_size=100,
        checkpoint=CheckpointModel.disabled(),
        validate_invariants=True,
    )
    base.update(kw)
    return SimConfig(**base)


class TestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation([rigid(1), rigid(1)], cfg())

    def test_oversized_job_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation([rigid(1, size=101)], cfg())

    def test_stale_jobs_rejected(self):
        jobs = [rigid(1)]
        Simulation(jobs, cfg()).run()
        with pytest.raises(ConfigurationError):
            Simulation(jobs, cfg())

    def test_empty_trace_runs(self):
        res = Simulation([], cfg()).run()
        assert res.jobs == []
        assert res.makespan == 0.0


class TestConfigPropagation:
    def test_backfill_disabled_serialises_queue(self):
        jobs = [
            rigid(1, 0.0, size=60, runtime=5000.0),
            rigid(2, 10.0, size=100, runtime=1000.0),
            rigid(3, 20.0, size=30, runtime=100.0),
        ]
        res = Simulation(jobs, cfg(backfill_depth=0)).run()
        j3 = next(j for j in res.jobs if j.job_id == 3)
        # without backfilling, job3 waits behind the blocked head
        assert j3.stats.first_start >= 5000.0

    def test_backfill_depth_zero_equals_disabled(self):
        jobs = [
            rigid(1, 0.0, size=60, runtime=5000.0),
            rigid(2, 10.0, size=100, runtime=1000.0),
            rigid(3, 20.0, size=30, runtime=100.0),
        ]
        res = Simulation(jobs, cfg(backfill_depth=0)).run()
        j3 = next(j for j in res.jobs if j.job_id == 3)
        assert j3.stats.first_start >= 5000.0

    def test_instant_threshold_affects_metric_only(self):
        from repro.metrics.summary import summarize

        def jobs():
            return [
                rigid(1, 0.0, size=100, runtime=1000.0),
                Job(job_id=2, job_type=JobType.ONDEMAND, submit_time=500.0,
                    size=10, runtime=100.0, estimate=100.0),
            ]

        strict = Simulation(jobs(), cfg(instant_threshold_s=60.0)).run()
        lenient = Simulation(jobs(), cfg(instant_threshold_s=600.0)).run()
        # the threshold changes no decision: every job runs identically
        assert [
            (j.job_id, j.stats.first_start, j.stats.end_time)
            for j in strict.jobs
        ] == [
            (j.job_id, j.stats.first_start, j.stats.end_time)
            for j in lenient.jobs
        ]
        od = next(j for j in strict.jobs if j.is_ondemand)
        assert od.start_delay == pytest.approx(500.0)
        assert summarize(strict).instant_start_rate == 0.0
        assert summarize(lenient).instant_start_rate == 1.0
        # the run's own threshold may be named explicitly
        assert summarize(lenient, instant_threshold_s=600.0).to_dict() == (
            summarize(lenient).to_dict()
        )

    def test_summary_at_a_mismatched_threshold_is_rejected(self):
        from repro.metrics.breakdown import ondemand_by_notice_class
        from repro.metrics.summary import summarize

        res = Simulation([rigid(1)], cfg(instant_threshold_s=60.0)).run()
        assert res.jobs  # a materialized run, with its job list
        with pytest.raises(ValueError, match="instant_threshold_s"):
            summarize(res, instant_threshold_s=600.0)
        with pytest.raises(ValueError, match="instant_threshold_s"):
            ondemand_by_notice_class(res, instant_threshold_s=600.0)


class TestPolicyPlugin:
    def test_sjf_reorders_queue(self):
        # both queued behind a blocker; SJF runs the short one first
        jobs = [
            rigid(1, 0.0, size=100, runtime=1000.0),
            rigid(2, 10.0, size=100, runtime=5000.0),
            rigid(3, 20.0, size=100, runtime=100.0),
        ]
        res = Simulation(jobs, cfg(policy="sjf")).run()
        j2 = next(j for j in res.jobs if j.job_id == 2)
        j3 = next(j for j in res.jobs if j.job_id == 3)
        assert j3.stats.first_start < j2.stats.first_start

    def test_ljf_reorders_queue(self):
        jobs = [
            rigid(1, 0.0, size=100, runtime=1000.0),
            rigid(2, 10.0, size=20, runtime=500.0),
            rigid(3, 20.0, size=90, runtime=500.0),
        ]
        res = Simulation(jobs, cfg(backfill_depth=0, policy="ljf")).run()
        j2 = next(j for j in res.jobs if j.job_id == 2)
        j3 = next(j for j in res.jobs if j.job_id == 3)
        assert j3.stats.first_start < j2.stats.first_start

    def test_mechanisms_compose_with_sjf(self):
        jobs = [
            rigid(1, 0.0, size=100, runtime=10000.0),
            Job(job_id=2, job_type=JobType.ONDEMAND, submit_time=500.0,
                size=10, runtime=100.0, estimate=100.0),
        ]
        res = Simulation(
            jobs, cfg(policy="sjf"), Mechanism.parse("N&PAA")
        ).run()
        od = next(j for j in res.jobs if j.is_ondemand)
        assert od.start_delay == pytest.approx(0.0)
        assert res.policy == "sjf"


class TestResultRecord:
    def test_result_fields(self):
        res = Simulation([rigid(1, submit=5.0)], cfg()).run()
        assert res.system_size == 100
        assert res.policy == "fcfs"
        assert res.mechanism is None
        assert res.wall_time_s > 0
        assert res.first_submit == 5.0

    def test_usage_series_covers_allocated(self):
        jobs = [
            rigid(1, size=100, runtime=20_000.0),
            rigid(2, submit=100.0, size=30, runtime=8_000.0),
            Job(job_id=3, job_type=JobType.ONDEMAND, submit_time=5_000.0,
                size=40, runtime=3_000.0, estimate=3_000.0),
        ]
        res = Simulation(
            jobs,
            cfg(
                failures=FailureModel(enabled=True, node_mtbf_s=1e6),
                failure_seed=1,
            ),
            Mechanism.parse("N&PAA"),
        ).run()
        acc = res.accumulator
        assert acc.by_type[JobType.RIGID].preemptions > 0
        assert res.failures_injected > 0
        assert sum(acc.usage_ns) == pytest.approx(acc.allocated_node_seconds)


class TestCliExtensions:
    def test_cli_conservative_and_failures(self, capsys):
        from repro.experiments.cli import main as cli_main

        rc = cli_main(
            [
                "compare",
                "--days", "2",
                "--traces", "1",
                "--load", "0.5",
                "--mechanisms", "N&PAA",
                "--backfill", "conservative",
                "--failure-mtbf-days", "300",
                "--noshow-frac", "0.2",
            ]
        )
        assert rc == 0
        assert "N&PAA" in capsys.readouterr().out
