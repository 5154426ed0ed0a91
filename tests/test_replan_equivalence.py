"""Differential property tests: incremental scheduling == full replan.

The incremental core (shared availability timeline + pass skipping) is a
pure performance refactor: for any workload, any mechanism, and either
backfill planner, :class:`~repro.sim.simulator.Simulation` must produce
**byte-identical** simulation outcomes to the full-replan oracle
(:class:`replan_oracle.FullReplanSimulation`, which rebuilds every
pass's profile from the running set and never skips a stale batch) —
per-job timings and statistics, the decision log, and every
:class:`SummaryMetrics` field except the wall-clock ones and the
executed/skipped pass counters.

Scenarios come from the invariant suite's seeded random trace generator
(mixed rigid/malleable/on-demand with all notice classes), so every
§III-B decision path — reservations, loans, CUP planned preemptions,
PAA/SPAA arms, timeouts — is crossed with the skip logic.
"""

import io
import json
import sys

import pytest

sys.path.insert(0, "tests")
from policy_cases import POLICY_CASES  # noqa: E402
from replan_oracle import replan_invariant_view, run_full_replan  # noqa: E402
from test_simulator_invariants import SYSTEM, random_trace  # noqa: E402

from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.jobs.checkpoint import CheckpointModel
from repro.metrics.summary import summarize
from repro.sim.config import SimConfig
from repro.sim.failures import FailureModel
from repro.sim.simulator import Simulation
from repro.workload.trace import clone_jobs

def _config(**kw) -> SimConfig:
    base = dict(
        system_size=SYSTEM,
        checkpoint=CheckpointModel(node_mtbf_s=1.0, min_interval_s=900.0),
        validate_invariants=True,
    )
    base.update(kw)
    return SimConfig(**base)


def _job_outcomes(result) -> list:
    """The full per-job simulation outcome (stronger than the summary)."""
    out = []
    for job in sorted(result.jobs, key=lambda j: j.job_id):
        st = job.stats
        out.append(
            (
                job.job_id,
                job.state.value,
                st.first_start,
                st.last_start,
                st.end_time,
                st.preemptions,
                st.shrinks,
                st.expands,
                st.failures,
                round(st.allocated_node_seconds, 6),
                round(st.retained_node_seconds, 6),
                round(st.lost_node_seconds, 6),
            )
        )
    return out


def _run_both(jobs, config, mechanism):
    """Run the simulator and the oracle; their decision logs (every
    start's node count and time, preemption, resize and failure) must
    be identical."""
    inc_log, full_log = io.StringIO(), io.StringIO()
    incremental = Simulation(
        clone_jobs(jobs), config, mechanism, decision_log=inc_log
    ).run()
    full = run_full_replan(
        clone_jobs(jobs), config, mechanism, decision_log=full_log
    )
    assert inc_log.getvalue()
    assert inc_log.getvalue() == full_log.getvalue()
    return incremental, full


def assert_equivalent(jobs, config, mechanism):
    incremental, full = _run_both(jobs, config, mechanism)
    assert _job_outcomes(incremental) == _job_outcomes(full)
    inc_view = json.dumps(
        replan_invariant_view(summarize(incremental)), sort_keys=True
    )
    full_view = json.dumps(
        replan_invariant_view(summarize(full)), sort_keys=True
    )
    assert inc_view == full_view
    # and the pass split itself behaves as documented: the same batches,
    # of which the oracle skips only the empty-queue ones
    assert incremental.events_processed == full.events_processed
    assert (
        incremental.schedule_passes + incremental.passes_skipped
        == full.schedule_passes + full.passes_skipped
    )
    assert full.passes_skipped <= incremental.passes_skipped
    return incremental, full


MECHS = [None] + list(ALL_MECHANISMS)


@pytest.mark.parametrize(
    "mech", MECHS, ids=[m.name if m else "baseline" for m in MECHS]
)
@pytest.mark.parametrize("seed", [3, 17, 2022])
def test_easy_all_mechanisms(mech, seed):
    jobs = random_trace(seed, 40)
    assert_equivalent(jobs, _config(), mech)


@pytest.mark.parametrize("mech_name", [None, "N&PAA", "CUP&SPAA"])
@pytest.mark.parametrize("seed", [5, 29])
def test_conservative_backfill(mech_name, seed):
    jobs = random_trace(seed, 30)
    mech = Mechanism.parse(mech_name) if mech_name else None
    assert_equivalent(jobs, _config(backfill_mode="conservative"), mech)


@pytest.mark.parametrize("seed", [11, 47])
def test_with_failure_injection(seed):
    """Failure restarts leave stale finish events behind — the prime
    source of skippable no-op batches; the metrics must not move."""
    jobs = random_trace(seed, 35)
    config = _config(
        failures=FailureModel(enabled=True, node_mtbf_s=2e5),
        failure_seed=seed,
    )
    incremental, _full = assert_equivalent(
        jobs, config, Mechanism.parse("CUA&SPAA")
    )
    assert incremental.failures_injected > 0, "scenario injected nothing"


@pytest.mark.parametrize("policy,backfill_mode", POLICY_CASES)
def test_registry_policies_replan_equivalence(policy, backfill_mode):
    """Every registered policy under both planners — including
    time-varying aging ones, which disable the stale-batch skip but keep
    the empty-queue skip — must plan identically in incremental and
    full-replan modes.  New registrations are covered automatically via
    ``policy_names()``."""
    jobs = random_trace(41, 30)
    assert_equivalent(
        jobs,
        _config(policy=policy, backfill_mode=backfill_mode),
        Mechanism.parse("N&SPAA"),
    )


def test_backfill_variants():
    jobs = random_trace(59, 30)
    for kw in (
        {"backfill_depth": 0},
        {"backfill_depth": 2},
        {"allow_reserved_loans": False},
        {"flexible_malleable": False},
    ):
        assert_equivalent(jobs, _config(**kw), Mechanism.parse("CUA&PAA"))


def test_no_time_skip_with_clock_tracking_reservation_block():
    """A reservation pseudo-block whose release is clamped to ``now``
    moves with the clock — the stale-batch skip's time-invariance
    argument does not apply and the pass must run.  That happens for
    every *arrived* reservation (release ``now + estimate``) and for a
    pending one past ``estimated_arrival + estimate`` (reachable with
    LATE-notice jobs whose estimate is shorter than their lateness)."""
    jobs = random_trace(3, 10)
    sim = Simulation(clone_jobs(jobs), _config(), Mechanism.parse("CUA&PAA"))
    od = next(j for j in sim.jobs if j.is_ondemand)
    sim._admit(od)  # bring the reservation's owner into the window
    sim.queue.add(sim.jobs[0])  # non-empty queue, clean dirty bit
    sim._sched_dirty = False
    assert sim._can_skip_pass()
    res = sim.coordinator.book.create(
        od_job_id=od.job_id,
        need=8,
        notice_time=0.0,
        estimated_arrival=sim.now + 10_000.0,
        expiry_time=float("inf"),
        collecting=True,
    )
    res.held = 4
    # pending, release (arrival + estimate) far in the future: fixed
    assert sim._can_skip_pass()
    res.arrived = True  # release now tracks the clock
    assert not sim._can_skip_pass()
    res.arrived = False
    res.estimated_arrival = -od.estimate  # overdue: clamped to now
    assert not sim._can_skip_pass()
    res.held = 0  # no held nodes -> no pseudo-block at all
    assert sim._can_skip_pass()


def test_incremental_actually_skips_passes():
    """The equivalence is only interesting if skipping really happens."""
    jobs = random_trace(101, 60)
    incremental, full = _run_both(
        jobs, _config(), Mechanism.parse("CUP&SPAA")
    )
    assert incremental.passes_skipped > full.passes_skipped
    assert incremental.schedule_passes < full.schedule_passes
