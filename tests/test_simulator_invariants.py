"""Fuzz tests: random small traces under every mechanism, with the
simulator's cross-component invariant validation enabled.

These catch node-accounting leaks, event staleness bugs, and work
conservation violations that hand-built scenarios miss.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job, JobState, JobType, NoticeClass
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulation
from repro.util.errors import SimulationError
from repro.util.rng import RngStreams

SYSTEM = 64


def random_trace(seed: int, n_jobs: int) -> list:
    """A small random mixed trace on a 64-node machine."""
    rng = RngStreams(seed).get("fuzz")
    jobs = []
    t = 0.0
    for i in range(n_jobs):
        t += float(rng.exponential(300.0))
        kind = rng.choice(["rigid", "malleable", "ondemand"], p=[0.5, 0.3, 0.2])
        size = int(rng.integers(1, SYSTEM + 1))
        runtime = float(rng.uniform(60.0, 4000.0))
        estimate = runtime * float(rng.uniform(1.0, 2.0))
        if kind == "rigid":
            jobs.append(
                Job(
                    job_id=i,
                    job_type=JobType.RIGID,
                    submit_time=t,
                    size=size,
                    runtime=runtime,
                    estimate=estimate,
                    setup_time=float(rng.uniform(0, 0.1)) * runtime,
                )
            )
        elif kind == "malleable":
            jobs.append(
                Job(
                    job_id=i,
                    job_type=JobType.MALLEABLE,
                    submit_time=t,
                    size=size,
                    min_size=max(1, int(0.2 * size)),
                    runtime=runtime,
                    estimate=estimate,
                    setup_time=float(rng.uniform(0, 0.05)) * runtime,
                )
            )
        else:
            size = min(size, SYSTEM // 2)
            cls = rng.choice(["none", "accurate", "early", "late"])
            notice = estimated = None
            submit = t
            if cls != "none":
                lead = float(rng.uniform(900.0, 1800.0))
                estimated = t
                notice = max(0.0, estimated - lead)
                if cls == "early":
                    submit = float(rng.uniform(notice, estimated))
                elif cls == "late":
                    submit = estimated + float(rng.uniform(0.0, 1800.0))
            jobs.append(
                Job(
                    job_id=i,
                    job_type=JobType.ONDEMAND,
                    submit_time=submit,
                    size=size,
                    runtime=runtime,
                    estimate=estimate,
                    notice_class=NoticeClass(cls),
                    notice_time=notice,
                    estimated_arrival=estimated,
                )
            )
    return jobs


def check_run(jobs, mechanism, policy=None):
    config = SimConfig(
        system_size=SYSTEM,
        checkpoint=CheckpointModel(node_mtbf_s=1.0, min_interval_s=900.0),
        validate_invariants=True,
    )
    result = Simulation(jobs, config, mechanism, policy=policy).run()

    # 1. every job completed exactly once
    assert all(j.state is JobState.COMPLETED for j in result.jobs)

    # 2. work conservation: retained compute == the job's demand
    for j in result.jobs:
        expected = j.work_node_seconds if j.is_malleable else j.runtime * j.size
        assert j.stats.retained_node_seconds == pytest.approx(expected, rel=1e-6), (
            f"job {j.job_id} ({j.job_type.value}) retained "
            f"{j.stats.retained_node_seconds} != {expected}"
        )

    # 3. allocation decomposition per job
    for j in result.jobs:
        st_ = j.stats
        total = (
            st_.retained_node_seconds
            + st_.lost_node_seconds
            + st_.setup_node_seconds
            + st_.checkpoint_node_seconds
        )
        assert st_.allocated_node_seconds == pytest.approx(total, rel=1e-6, abs=1e-3)

    # 4. on-demand jobs are never preempted or shrunk
    for j in result.jobs:
        if j.is_ondemand:
            assert j.stats.preemptions == 0
            assert j.stats.shrinks == 0

    # 5. timeline sanity
    for j in result.jobs:
        assert j.stats.first_start is not None
        assert j.stats.first_start >= j.submit_time - 1e-6
        assert j.stats.end_time > j.stats.first_start - 1e-6

    # 6. capacity: at no point did allocations exceed the machine — implied
    # by cluster invariants (validate_invariants), plus global node-seconds:
    alloc = sum(j.stats.allocated_node_seconds for j in result.jobs)
    assert alloc <= SYSTEM * result.makespan * (1 + 1e-9)
    return result


@pytest.mark.parametrize("mechanism", [None, *ALL_MECHANISMS],
                         ids=lambda m: m.name if m else "baseline")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_traces_all_mechanisms(mechanism, seed):
    jobs = random_trace(seed * 7 + 1, n_jobs=60)
    check_run(jobs, mechanism)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mech_idx=st.integers(min_value=0, max_value=len(ALL_MECHANISMS) - 1),
    n_jobs=st.integers(min_value=5, max_value=40),
)
def test_hypothesis_fuzz(seed, mech_idx, n_jobs):
    jobs = random_trace(seed, n_jobs=n_jobs)
    check_run(jobs, ALL_MECHANISMS[mech_idx])


def test_dense_ondemand_storm():
    """Many overlapping on-demand jobs force queueing + lease churn."""
    rng = RngStreams(99).get("storm")
    jobs = []
    jobs.append(
        Job(
            job_id=0,
            job_type=JobType.MALLEABLE,
            submit_time=0.0,
            size=SYSTEM,
            min_size=8,
            runtime=20000.0,
            estimate=30000.0,
        )
    )
    for i in range(1, 25):
        jobs.append(
            Job(
                job_id=i,
                job_type=JobType.ONDEMAND,
                submit_time=float(rng.uniform(100.0, 5000.0)),
                size=int(rng.integers(8, 40)),
                runtime=float(rng.uniform(100.0, 2000.0)),
                estimate=3000.0,
            )
        )
    for mech in ALL_MECHANISMS:
        check_run([Job(**{f: getattr(j, f) for f in (
            "job_id", "job_type", "submit_time", "size", "runtime",
            "estimate", "setup_time", "min_size", "project",
            "notice_class", "notice_time", "estimated_arrival")})
            for j in jobs], mech)


def test_simultaneous_events_deterministic():
    """Identical traces give bit-identical results across runs."""
    jobs1 = random_trace(5, 50)
    jobs2 = random_trace(5, 50)
    r1 = check_run(jobs1, Mechanism.parse("CUP&SPAA"))
    r2 = check_run(jobs2, Mechanism.parse("CUP&SPAA"))
    for a, b in zip(r1.jobs, r2.jobs):
        assert a.stats.end_time == b.stats.end_time
        assert a.stats.first_start == b.stats.first_start
        assert a.stats.preemptions == b.stats.preemptions


def test_checkpointing_disabled_also_safe():
    jobs = random_trace(11, 40)
    config = SimConfig(
        system_size=SYSTEM,
        checkpoint=CheckpointModel.disabled(),
        validate_invariants=True,
    )
    result = Simulation(jobs, config, Mechanism.parse("CUA&SPAA")).run()
    assert all(j.state is JobState.COMPLETED for j in result.jobs)
    # checkpoint time is zero up to float residue of the accounting algebra
    assert all(j.stats.checkpoint_node_seconds < 1e-6 for j in result.jobs)


@pytest.mark.parametrize("mech_name", ["CUP&SPAA", "N&PAA"])
def test_reservation_book_is_empty_after_the_run(mech_name):
    """Closed reservations leave the book: its memory is O(open)."""
    jobs = random_trace(3, n_jobs=150)
    assert sum(j.is_ondemand for j in jobs) >= 20
    config = SimConfig(system_size=SYSTEM, validate_invariants=True)
    sim = Simulation(jobs, config, Mechanism.parse(mech_name))
    result = sim.run()
    assert result.reserved_idle_node_seconds > 0
    book = sim.coordinator.book
    assert book._by_od == {}
    assert book._ordered == []
    assert book._planned_on == {}
    assert book._earmarks_on == {}


def test_validate_state_checks_the_kept_sorted_queue():
    jobs = random_trace(3, n_jobs=40)
    sim = Simulation(
        jobs, SimConfig(system_size=SYSTEM), Mechanism.parse("N&PAA")
    )
    od = [j for j in jobs if j.is_ondemand][:2]
    for job in [*jobs[:4], *od]:
        if job.state is JobState.PENDING:
            job.set_state(JobState.QUEUED)
            sim._enqueue(job)
    # on-demand jobs first, then FCFS
    assert sim.queue[: len(od)] == od
    sim.validate_state()
    sim.queue[0], sim.queue[-1] = sim.queue[-1], sim.queue[0]
    with pytest.raises(SimulationError, match="key order"):
        sim.validate_state()
    sim.queue[0], sim.queue[-1] = sim.queue[-1], sim.queue[0]
    del sim._waiting_od[od[0].job_id]
    with pytest.raises(SimulationError, match="on-demand index"):
        sim.validate_state()
