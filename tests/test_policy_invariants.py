"""Registry-driven invariant harness: every registered policy must obey
the simulator's safety properties under both planners, discovered via
``policy_names()`` alone — a newly registered policy is picked up with
zero test edits (the grid and its ids: ``tests/policy_cases.py``).

Set ``REPRO_POLICY=<name>`` to restrict the module to one policy (the
CI policy-matrix job runs one shard per registered name).

Invariants checked per policy:

* the fuzz-trace battery from ``test_simulator_invariants.check_run``
  (completion, work conservation, allocation decomposition, timeline
  sanity, capacity) across mechanisms and seeds;
* decision-log replay: no job starts before submit, and the replayed
  allocation never oversubscribes the machine at any instant;
* work conservation on an idle machine: a lone job starts instantly no
  matter how the policy orders the (singleton) queue;
* reservations honored: an accurate-notice on-demand job under a
  reservation mechanism starts by its estimated arrival even when an
  aging policy would love to run something else.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

sys.path.insert(0, "tests")
from policy_cases import POLICY_CASES  # noqa: E402
from test_simulator_invariants import (  # noqa: E402
    SYSTEM,
    check_run,
    random_trace,
)

from repro.core.mechanisms import Mechanism
from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job, JobType, NoticeClass
from repro.sim.config import SimConfig
from repro.sim.schedlog import LogKind
from repro.sim.simulator import Simulation

MECHANISMS = [None, "N&PAA", "CUA&SPAA"]


def _mech(name):
    return Mechanism.parse(name) if name else None


@pytest.mark.parametrize("policy,backfill_mode", POLICY_CASES)
@pytest.mark.parametrize("mechanism", MECHANISMS,
                         ids=lambda m: m or "baseline")
@pytest.mark.parametrize("seed", [1, 8])
def test_fuzz_traces_every_policy(policy, backfill_mode, mechanism, seed):
    jobs = random_trace(seed, n_jobs=50)
    check_run(jobs, _mech(mechanism), policy, backfill_mode)


# ----------------------------------------------------------------------
# Decision-log replay: submit ordering and machine capacity
# ----------------------------------------------------------------------
def _replay_log(entries, submit_times, system_size):
    """Replay a decision log, asserting per-event sanity; returns the
    peak concurrent allocation seen."""
    alloc = {}
    peak = 0
    for e in entries:
        if e.kind is LogKind.START:
            assert e.time >= submit_times[e.job_id] - 1e-6, (
                f"job {e.job_id} started at {e.time} before submit "
                f"{submit_times[e.job_id]}"
            )
            alloc[e.job_id] = alloc.get(e.job_id, 0) + e.nodes
        elif e.kind in (LogKind.FINISH, LogKind.PREEMPT):
            alloc[e.job_id] = alloc.get(e.job_id, 0) - e.nodes
        elif e.kind is LogKind.SHRINK:
            alloc[e.job_id] = alloc.get(e.job_id, 0) - e.nodes
        elif e.kind is LogKind.EXPAND:
            alloc[e.job_id] = alloc.get(e.job_id, 0) + e.nodes
        # FAILURE keeps the allocation: the job restarts in place
        assert all(v >= 0 for v in alloc.values()), (
            f"negative allocation after {e.to_json_line()}"
        )
        total = sum(alloc.values())
        assert total <= system_size, (
            f"oversubscribed: {total} > {system_size} nodes "
            f"after {e.to_json_line()}"
        )
        peak = max(peak, total)
    assert all(v == 0 for v in alloc.values()), (
        f"allocation leaked at end of log: {alloc}"
    )
    return peak


@pytest.mark.parametrize("policy,backfill_mode", POLICY_CASES)
@pytest.mark.parametrize("mechanism", MECHANISMS,
                         ids=lambda m: m or "baseline")
def test_log_replay_no_oversubscription(policy, backfill_mode, mechanism):
    jobs = random_trace(17, n_jobs=60)
    submit_times = {j.job_id: j.submit_time for j in jobs}
    config = SimConfig(
        system_size=SYSTEM,
        checkpoint=CheckpointModel.disabled(),
        log_decisions=True,
        validate_invariants=True,
        policy=policy,
        backfill_mode=backfill_mode,
    )
    result = Simulation(jobs, config, _mech(mechanism)).run()
    peak = _replay_log(result.log.entries, submit_times, SYSTEM)
    assert peak > 0, "the trace should actually allocate nodes"


# ----------------------------------------------------------------------
# Work conservation: an idle machine never makes a lone job wait
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy,backfill_mode", POLICY_CASES)
def test_idle_machine_starts_instantly(policy, backfill_mode):
    jobs = [
        Job(
            job_id=0,
            job_type=JobType.RIGID,
            submit_time=123.0,
            size=SYSTEM // 2,
            runtime=500.0,
            estimate=700.0,
        )
    ]
    config = SimConfig(
        system_size=SYSTEM,
        checkpoint=CheckpointModel.disabled(),
        policy=policy,
        backfill_mode=backfill_mode,
    )
    result = Simulation(jobs, config, None).run()
    (job,) = result.jobs
    assert job.stats.first_start == pytest.approx(123.0, abs=1e-6)


# ----------------------------------------------------------------------
# Reservations honored under every ordering
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy,backfill_mode", POLICY_CASES)
def test_reservation_honored(policy, backfill_mode):
    """An accurate-notice on-demand job under SPAA must start by its
    estimated arrival regardless of how the policy orders the queue."""
    jobs = [
        Job(
            job_id=0,
            job_type=JobType.MALLEABLE,
            submit_time=0.0,
            size=SYSTEM,
            min_size=8,
            runtime=40_000.0,
            estimate=60_000.0,
        ),
        Job(
            job_id=1,
            job_type=JobType.ONDEMAND,
            submit_time=6_000.0,
            size=16,
            runtime=1_000.0,
            estimate=2_000.0,
            notice_class=NoticeClass.ACCURATE,
            notice_time=4_000.0,
            estimated_arrival=6_000.0,
        ),
    ]
    config = SimConfig(
        system_size=SYSTEM,
        checkpoint=CheckpointModel.disabled(),
        validate_invariants=True,
        policy=policy,
        backfill_mode=backfill_mode,
    )
    result = Simulation(jobs, config, Mechanism.parse("N&SPAA")).run()
    od = next(j for j in result.jobs if j.is_ondemand)
    assert od.stats.first_start == pytest.approx(6_000.0, abs=1.0), (
        f"policy {policy!r} under {backfill_mode} backfill delayed a "
        f"reserved on-demand job to {od.stats.first_start}"
    )


# ----------------------------------------------------------------------
# Hypothesis fuzz across the whole zoo
# ----------------------------------------------------------------------
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_jobs=st.integers(min_value=5, max_value=35),
    case_idx=st.integers(min_value=0, max_value=len(POLICY_CASES) - 1),
    mech_idx=st.integers(min_value=0, max_value=len(MECHANISMS) - 1),
)
def test_hypothesis_fuzz_policy_zoo(seed, n_jobs, case_idx, mech_idx):
    jobs = random_trace(seed, n_jobs=n_jobs)
    policy, backfill_mode = POLICY_CASES[case_idx].values
    check_run(jobs, _mech(MECHANISMS[mech_idx]), policy, backfill_mode)
