"""Tests for the node-failure injection extension."""

import gc
import sys
import tracemalloc

import pytest

sys.path.insert(0, "tests")
from test_simulator_invariants import SYSTEM, random_trace  # noqa: E402

from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job, JobState, JobType
from repro.sim.config import SimConfig
from repro.sim.failures import FailureModel
from repro.sim.simulator import Simulation
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.timeconst import HOUR


def rigid(job_id=1, submit=0.0, size=50, runtime=10000.0, setup=100.0):
    return Job(
        job_id=job_id,
        job_type=JobType.RIGID,
        submit_time=submit,
        size=size,
        runtime=runtime,
        estimate=runtime * 1.2,
        setup_time=setup,
    )


def malleable(job_id=2, submit=0.0, size=50, min_size=10, runtime=5000.0):
    return Job(
        job_id=job_id,
        job_type=JobType.MALLEABLE,
        submit_time=submit,
        size=size,
        min_size=min_size,
        runtime=runtime,
        estimate=runtime * 1.2,
        setup_time=50.0,
    )


class TestFailureModel:
    def test_job_mtbf_series(self):
        fm = FailureModel(enabled=True, node_mtbf_s=1e6)
        assert fm.job_mtbf(100) == pytest.approx(1e4)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            FailureModel(node_mtbf_s=0)

    def test_disabled_factory(self):
        assert FailureModel.disabled().enabled is False

    def test_draw_positive(self):
        import numpy as np

        fm = FailureModel(enabled=True, node_mtbf_s=1e5)
        rng = np.random.default_rng(0)
        draws = [fm.draw_time_to_failure(10, rng) for _ in range(100)]
        assert all(d >= 0 for d in draws)
        # mean of Exp(1e4) over 100 draws lands in a loose band
        assert 2e3 < sum(draws) / len(draws) < 5e4


def run_with_failures(jobs, node_mtbf_s, mechanism=None, ckpt=None, seed=1):
    config = SimConfig(
        system_size=100,
        checkpoint=ckpt or CheckpointModel(node_mtbf_s=1.0, min_interval_s=2000.0),
        failures=FailureModel(enabled=True, node_mtbf_s=node_mtbf_s),
        failure_seed=seed,
        validate_invariants=True,
    )
    return Simulation(jobs, config, mechanism).run()


class TestFailureInjection:
    def test_rigid_job_survives_failures(self):
        """With an aggressive failure rate the job still completes, at a
        wall-clock cost, rolled back to checkpoints."""
        res = run_with_failures([rigid()], node_mtbf_s=50 * 10000.0)
        j = res.jobs[0]
        assert j.state is JobState.COMPLETED
        if res.failures_injected:
            assert j.stats.failures == res.failures_injected
            # restarts pay extra setups, counted as waste
            assert j.stats.wasted_setup_node_seconds > 0
            # and the finish is later than the failure-free timeline
            assert j.stats.end_time > 100.0 + 10000.0

    def test_work_conserved_under_failures(self):
        res = run_with_failures([rigid()], node_mtbf_s=50 * 8000.0)
        j = res.jobs[0]
        assert j.stats.retained_node_seconds == pytest.approx(
            j.runtime * j.size, rel=1e-6
        )

    def test_malleable_loses_no_work_on_failure(self):
        res = run_with_failures([malleable()], node_mtbf_s=50 * 3000.0)
        j = res.jobs[0]
        assert j.state is JobState.COMPLETED
        assert j.stats.lost_node_seconds == pytest.approx(0.0, abs=1e-6)
        assert j.stats.retained_node_seconds == pytest.approx(
            j.work_node_seconds, rel=1e-6
        )

    def test_failures_deterministic_per_seed(self):
        r1 = run_with_failures([rigid()], node_mtbf_s=50 * 8000.0, seed=5)
        r2 = run_with_failures([rigid()], node_mtbf_s=50 * 8000.0, seed=5)
        assert r1.failures_injected == r2.failures_injected
        assert r1.jobs[0].stats.end_time == r2.jobs[0].stats.end_time

    def test_different_seed_different_failures(self):
        ends = {
            run_with_failures(
                [rigid()], node_mtbf_s=50 * 5000.0, seed=s
            ).jobs[0].stats.end_time
            for s in range(6)
        }
        assert len(ends) > 1

    def test_disabled_injects_nothing(self):
        config = SimConfig(
            system_size=100,
            checkpoint=CheckpointModel.disabled(),
            validate_invariants=True,
        )
        res = Simulation([rigid()], config).run()
        assert res.failures_injected == 0
        assert res.jobs[0].stats.failures == 0

    def test_failures_compose_with_mechanisms(self):
        jobs = [
            rigid(job_id=1, size=100, runtime=20000.0),
            Job(
                job_id=2,
                job_type=JobType.ONDEMAND,
                submit_time=5000.0,
                size=40,
                runtime=1000.0,
                estimate=1000.0,
            ),
        ]
        res = run_with_failures(
            jobs, node_mtbf_s=100 * 15000.0, mechanism=Mechanism.parse("N&PAA")
        )
        assert all(j.state is JobState.COMPLETED for j in res.jobs)
        od = next(j for j in res.jobs if j.is_ondemand)
        assert od.start_delay == pytest.approx(0.0)

    def test_frequent_checkpoints_lose_less_under_failures(self):
        """Daly's regime: with failures as the only interruptions, more
        checkpoints means less rolled-back compute."""

        def lost(interval):
            total = 0.0
            for seed in range(8):
                res = run_with_failures(
                    [rigid(runtime=20000.0)],
                    node_mtbf_s=50 * 15000.0,
                    ckpt=CheckpointModel(node_mtbf_s=1.0, min_interval_s=interval),
                    seed=seed,
                )
                total += res.jobs[0].stats.lost_node_seconds
            return total

        assert lost(1000.0) <= lost(16000.0)


MECHS = [None] + list(ALL_MECHANISMS)


@pytest.mark.parametrize(
    "mechanism", MECHS, ids=[m.name if m else "baseline" for m in MECHS]
)
@pytest.mark.parametrize("seed", range(8))
def test_failure_fuzz_completes_and_conserves_node_seconds(mechanism, seed):
    """Failures on a mixed random trace, under every mechanism: every
    job completes, and the node-seconds the machine held are the ones
    the jobs' segments account for."""
    config = SimConfig(
        system_size=SYSTEM,
        checkpoint=CheckpointModel(node_mtbf_s=1.0, min_interval_s=900.0),
        failures=FailureModel(enabled=True, node_mtbf_s=20 * HOUR),
        failure_seed=seed,
        validate_invariants=True,
    )
    sim = Simulation(random_trace(seed, 80), config, mechanism)
    res = sim.run()
    assert all(j.state is JobState.COMPLETED for j in res.jobs)
    cluster = sim.cluster
    held = cluster.total * cluster.clock - cluster.free_node_seconds
    allocated = sum(j.stats.allocated_node_seconds for j in res.jobs)
    assert held == pytest.approx(allocated, rel=1e-9)


def test_unaccounted_node_seconds_fail_the_run():
    """The end-of-run conservation check catches nodes held outside
    every job segment's accounting."""
    sim = Simulation([rigid()], SimConfig(system_size=100))
    fold = sim._fold_segment

    def leaky(rj, acc, preempted):
        fold(rj, acc, preempted)
        rj.job.stats.allocated_node_seconds -= 1.0

    sim._fold_segment = leaky
    with pytest.raises(SimulationError, match="node-seconds not conserved"):
        sim.run()


def _restart_storm_peak(node_mtbf_s):
    """tracemalloc peak and failure count of one 100-node rigid job
    under failures and checkpoints at *node_mtbf_s*."""
    config = SimConfig(
        system_size=100,
        checkpoint=CheckpointModel(node_mtbf_s=node_mtbf_s),
        failures=FailureModel(enabled=True, node_mtbf_s=node_mtbf_s),
        failure_seed=1,
    )
    job = rigid(size=100, runtime=20_000.0, setup=100.0)
    gc.collect()
    tracemalloc.start()
    try:
        res = Simulation([job], config).run()
        return tracemalloc.get_traced_memory()[1], res.failures_injected
    finally:
        tracemalloc.stop()


def test_restart_storm_keeps_per_job_state_constant():
    """A job restarting thousands of times peaks near one that fails
    once: per-job state is O(1) in the restart count.

    The storm's one remaining extra is the event heap's stale finish
    events, one per restart whose superseded finish time is still ahead
    of the clock (about 160 KiB here); a per-restart record would add
    over 600 KiB on top."""
    _restart_storm_peak(1e6)  # one-time imports and caches
    calm, calm_failures = _restart_storm_peak(1e6)
    storm, storm_failures = _restart_storm_peak(25_000.0)
    assert calm_failures == 1
    assert storm_failures > 5_000
    assert storm - calm < 256 * 1024, (
        f"heap peak {storm / 1024:.0f} KiB over {storm_failures} restarts "
        f"vs {calm / 1024:.0f} KiB over one"
    )
