"""The streaming simulation core: generator-backed workloads, the O(1)
metrics funnel, and the at-scale correctness fixes that ride along.

Covers the three equivalence contracts the streaming path promises:

* ``iter_jobs()`` / ``iter_swf()`` yield *exactly* the jobs their
  materializing counterparts build — same ids, same fields, same order;
* a simulation fed a generator produces byte-identical summaries,
  breakdowns, and scheduler decision logs to one fed the same trace as
  a list (in any order — the list is admitted in submit order), for
  the baseline and every paper mechanism, while retaining no job list
  (``result.jobs == []``);
* the bugfix satellites: ``EventQueue.pop_batch`` must not split
  same-instant batches at month-scale timestamps (the seed's absolute
  ``1e-9`` tolerance did, past ``t ~ 1e8`` s), and a stream whose
  notices outrun its declared horizon is rejected at admission.
"""

import gc
import io
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.jobs.job import Job, JobType, NoticeClass
from repro.metrics.breakdown import (
    ondemand_by_notice_class,
    utilization_series,
    waste_by_type,
)
from repro.metrics.summary import deterministic_view, summarize
from repro.perf.record import canonical_json
from repro.perf.scenarios import bench_sim_config, stream_synth_jobs
from repro.sim.config import SimConfig
from repro.sim.engine import EventQueue
from repro.sim.events import EventType
from repro.sim.simulator import LatencyStats, Simulation
from repro.util.errors import ConfigurationError
from repro.workload.spec import theta_spec
from repro.workload.stream import JobStream, as_stream
from repro.workload.swf import iter_swf, load_swf, stream_swf
from repro.workload.theta import ThetaWorkloadGenerator

sys.path.insert(0, "tests")
from metrics_reference import (  # noqa: E402
    ondemand_by_notice_class_per_job,
    summarize_per_job,
    waste_by_type_per_job,
)
from policy_cases import POLICY_CASES  # noqa: E402
from test_simulator_invariants import SYSTEM, random_trace  # noqa: E402

#: small but fully featured: every job type, every notice class, a few
#: hundred jobs — enough for preemptions, loans, and shrinks to occur
SPEC = theta_spec(days=4, target_load=0.85)


def _sim_config(**overrides) -> SimConfig:
    return SimConfig(system_size=SPEC.system_size, **overrides)


def _run_logged(jobs, config, mechanism=None):
    """Simulate *jobs*; returns (result, decision log text)."""
    log = io.StringIO()
    result = Simulation(jobs, config, mechanism, decision_log=log).run()
    return result, log.getvalue()


# ----------------------------------------------------------------------
# Workload producers: lazy == materialized, job for job
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 7, 2022])
def test_iter_jobs_matches_generate(seed):
    materialized = ThetaWorkloadGenerator(SPEC, seed=seed).generate()
    streamed = list(ThetaWorkloadGenerator(SPEC, seed=seed).iter_jobs())
    assert len(materialized) > 100  # non-trivial trace
    assert streamed == materialized  # dataclass equality: every field


def test_iter_jobs_declares_the_spec_notice_horizon():
    gen = ThetaWorkloadGenerator(SPEC, seed=0)
    stream = gen.iter_jobs()
    assert stream.notice_horizon_s == (
        SPEC.notice_lead_range_s[1] + SPEC.late_window_s
    )
    # the declared horizon really bounds submit - notice
    for job in stream:
        if job.notice_time is not None:
            assert (
                job.submit_time - job.notice_time
                <= stream.notice_horizon_s + 1e-9
            )


SWF_TEXT = """\
; SWF header comment
; UnixStartTime: 0

1 1000 10 3600 64 0 0 64 7200 0 1 11 21 31 0 0 0 0
2 1010 -1 -1 32 0 0 32 -1 0 1 12 22 32 0 0 0 0
3 1200 5 30 16 0 0 16 10 0 1 13 23 -1 0 0 0 0
4 1300 0 7200 128 0 0 128 3600 0 1 14 24 34 0 0 0 0
"""


def test_iter_swf_matches_load_swf(tmp_path):
    path = tmp_path / "trace.swf"
    path.write_text(SWF_TEXT)
    materialized = load_swf(str(path))
    streamed = list(iter_swf(str(path)))
    assert streamed == materialized
    # job 2 is cleaned (non-positive runtime); ids stay dense
    assert [j.job_id for j in materialized] == [0, 1, 2]
    # submit times are normalized to the first *kept* job's submit
    assert materialized[0].submit_time == 0.0
    assert materialized[1].submit_time == 200.0
    # job 3's estimate (10 s) undershoots the cleaned runtime
    assert materialized[1].runtime == 60.0  # min_runtime_s clamp
    assert materialized[1].estimate == 60.0
    # group id -1 falls back to the user id
    assert materialized[1].project == 13
    # SWF jobs carry no notices: the stream admits at the event clock
    assert stream_swf(str(path)).notice_horizon_s == 0.0
    assert list(iter_swf(str(path), max_jobs=2)) == materialized[:2]


# ----------------------------------------------------------------------
# Streamed simulation == materialized simulation, byte for byte
# ----------------------------------------------------------------------
def _canonical(result) -> bytes:
    """Everything the metrics layer derives, in canonical JSON bytes."""
    return canonical_json(
        {
            "summary": deterministic_view(summarize(result)),
            "by_notice": [
                vars(o) for o in ondemand_by_notice_class(result)
            ],
            "waste": waste_by_type(result),
            "utilization": utilization_series(result),
        }
    ).encode()


@pytest.mark.parametrize(
    "mechanism",
    [None] + list(ALL_MECHANISMS),
    ids=lambda m: str(m) if m else "baseline",
)
def test_streamed_matches_materialized(mechanism):
    gen = ThetaWorkloadGenerator(SPEC, seed=3)
    config = _sim_config()
    mat, mat_log = _run_logged(gen.generate(), config, mechanism)
    st, st_log = _run_logged(
        ThetaWorkloadGenerator(SPEC, seed=3).iter_jobs(), config, mechanism
    )
    assert st.jobs == []  # the stream was never materialized
    assert _canonical(st) == _canonical(mat)
    # the full decision transcript is identical too: same starts, same
    # preemptions, same reservations, in the same order
    assert st_log == mat_log
    assert (
        st.events_processed,
        st.schedule_passes,
        st.makespan,
        st.first_submit,
        st.last_end,
    ) == (
        mat.events_processed,
        mat.schedule_passes,
        mat.makespan,
        mat.first_submit,
        mat.last_end,
    )


@pytest.mark.parametrize("policy,backfill_mode", POLICY_CASES)
def test_streamed_matches_materialized_every_policy(policy, backfill_mode):
    """Stream == materialized holds for every *registered* policy under
    both planners, new entries included automatically — aging policies
    (time-varying keys) exercise the pass-skip interplay hardest."""
    spec = theta_spec(days=2, target_load=0.85)
    config = SimConfig(
        system_size=spec.system_size,
        policy=policy,
        backfill_mode=backfill_mode,
    )
    mechanism = ALL_MECHANISMS[0]
    mat, mat_log = _run_logged(
        ThetaWorkloadGenerator(spec, seed=9).generate(), config, mechanism
    )
    st, st_log = _run_logged(
        ThetaWorkloadGenerator(spec, seed=9).iter_jobs(), config, mechanism
    )
    assert st.jobs == []
    assert _canonical(st) == _canonical(mat)
    assert st_log == mat_log


def test_any_iterable_is_accepted_as_a_stream():
    jobs = ThetaWorkloadGenerator(SPEC, seed=5).generate()
    mat = Simulation(jobs, _sim_config()).run()
    st = Simulation(
        iter(ThetaWorkloadGenerator(SPEC, seed=5).generate()), _sim_config()
    ).run()
    assert st.jobs == []
    assert _canonical(st) == _canonical(mat)


# ----------------------------------------------------------------------
# A list is admitted as a stream: order-free input, order-kept output
# ----------------------------------------------------------------------
def _distinct_submit_jobs():
    """A noticed-rich trace with one job per submit time, so admission
    order is fully determined by submit time."""
    seen = set()
    jobs = []
    for job in ThetaWorkloadGenerator(SPEC, seed=3).generate():
        if job.submit_time not in seen:
            seen.add(job.submit_time)
            jobs.append(job)
    assert sum(j.notice_time is not None for j in jobs) > 10
    return jobs


def test_shuffled_list_matches_sorted_list():
    config = _sim_config()
    mechanism = ALL_MECHANISMS[0]
    ordered, ordered_log = _run_logged(
        _distinct_submit_jobs(), config, mechanism
    )
    shuffled_jobs = _distinct_submit_jobs()
    random.Random(7).shuffle(shuffled_jobs)
    shuffled, shuffled_log = _run_logged(shuffled_jobs, config, mechanism)
    assert _canonical(shuffled) == _canonical(ordered)
    assert shuffled_log == ordered_log


def test_result_keeps_a_list_in_the_callers_order_and_no_stream():
    jobs = _distinct_submit_jobs()
    random.Random(11).shuffle(jobs)
    result = Simulation(jobs, _sim_config(), ALL_MECHANISMS[0]).run()
    assert len(result.jobs) == len(jobs)
    assert all(a is b for a, b in zip(result.jobs, jobs))
    assert all(
        j.stats.end_time is not None for j in result.jobs if not j.no_show
    )
    streamed = Simulation(
        as_stream(iter(_distinct_submit_jobs())),
        _sim_config(),
        ALL_MECHANISMS[0],
    ).run()
    assert streamed.jobs == []


def _under_declared_horizon_trace():
    """Rigid jobs at 0 s and 2000 s plus an on-demand job that submits
    at 5000 s with its advance notice at 1000 s (a 4000 s lead)."""
    return [
        Job(0, JobType.RIGID, 0.0, 8, 100.0, 100.0),
        Job(1, JobType.RIGID, 2000.0, 8, 100.0, 100.0),
        Job(
            2, JobType.ONDEMAND, 5000.0, 8, 100.0, 100.0,
            notice_class=NoticeClass.ACCURATE,
            notice_time=1000.0,
            estimated_arrival=5000.0,
        ),
    ]


def test_under_declared_notice_horizon_fails_fast():
    """A notice leading its submission by more than the declared horizon
    is rejected when the job is admitted: admitted that late, the notice
    (1000 s) can already lie behind the clock (2100 s)."""
    config = SimConfig(system_size=64)
    mechanism = Mechanism.parse("N&PAA")
    stream = JobStream(_under_declared_horizon_trace(), notice_horizon_s=0.0)
    with pytest.raises(
        ConfigurationError, match=r"job 2: .* 4000 s, .* horizon of 0 s"
    ):
        Simulation(stream, config, mechanism).run()
    stream = JobStream(
        _under_declared_horizon_trace(), notice_horizon_s=4000.0
    )
    result = Simulation(stream, config, mechanism).run()
    assert result.accumulator.n_jobs == 3


def test_unsorted_stream_is_rejected():
    jobs = ThetaWorkloadGenerator(SPEC, seed=0).generate()
    jobs[10], jobs[40] = jobs[40], jobs[10]
    with pytest.raises(ConfigurationError, match="sorted by submit"):
        Simulation(as_stream(jobs), _sim_config()).run()


def test_streamed_result_rejects_per_job_consumers():
    st = Simulation(
        ThetaWorkloadGenerator(SPEC, seed=0).iter_jobs(), _sim_config()
    ).run()
    # the accumulator was built for the configured threshold; asking for
    # a different one needs the per-job list streamed runs do not keep
    with pytest.raises(ValueError):
        summarize(st, instant_threshold_s=1.0)
    with pytest.raises(ValueError):
        ondemand_by_notice_class(st, instant_threshold_s=1.0)


def _streamed_heap_peak(n_jobs, decision_log):
    """tracemalloc peak of one streamed synth run writing its decision
    log to *decision_log* (``None``: no log)."""
    gc.collect()
    tracemalloc.start()
    try:
        Simulation(
            stream_synth_jobs(n_jobs),
            bench_sim_config(),
            decision_log=decision_log,
        ).run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decision_log_keeps_memory_o_in_flight(tmp_path):
    """Writing the decision log costs no heap that grows with the run:
    a 10k-job streamed run peaks within 1 MiB of the same run without a
    log (an in-memory list of its ~30k decisions would add ~4 MiB)."""
    _streamed_heap_peak(200, None)  # one-time imports and caches
    without = _streamed_heap_peak(10_000, None)
    path = tmp_path / "decisions.jsonl"
    with open(path, "w", encoding="utf-8") as log:
        with_log = _streamed_heap_peak(10_000, log)
    with open(path, encoding="utf-8") as fh:
        n_decisions = sum(1 for _ in fh)
    assert n_decisions > 20_000
    assert abs(with_log - without) < 2**20, (
        f"heap peak {with_log / 2**20:.1f} MiB with the decision log vs "
        f"{without / 2**20:.1f} MiB without"
    )


def _assert_close(got, want, where):
    """Equal, with floats to float-summation-order precision."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), where
    else:
        assert got == want, where


def test_materialized_summary_dispatch_matches_legacy_grouping():
    """The accumulator-backed summary agrees with the per-job reference
    grouping on a materialized run.  Agreement is to
    float-summation-order precision: the accumulator folds in finish
    order, the reference in job-list order, so sums can differ by an
    ULP (exactness is asserted where it matters — streamed vs
    materialized, which share the accumulator).
    """
    config = _sim_config()
    result = Simulation(
        ThetaWorkloadGenerator(SPEC, seed=9).generate(),
        config,
        ALL_MECHANISMS[0],
    ).run()
    via_acc = deterministic_view(summarize(result))
    via_jobs = deterministic_view(
        summarize_per_job(result, config.instant_threshold_s)
    )
    assert set(via_acc) == set(via_jobs)
    for key, value in via_jobs.items():
        _assert_close(via_acc[key], value, key)


BREAKDOWN_MECHANISMS = (None, "N&PAA", "CUP&SPAA")


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    n_jobs=st.integers(10, 60),
    mech_name=st.sampled_from(BREAKDOWN_MECHANISMS),
)
def test_breakdowns_match_per_job_reference(seed, n_jobs, mech_name):
    """``ondemand_by_notice_class`` and ``waste_by_type`` read only the
    accumulator; on random mixed traces they agree with the per-job
    reference grouping, to the same precision as the summary."""
    config = SimConfig(system_size=SYSTEM, validate_invariants=True)
    mechanism = Mechanism.parse(mech_name) if mech_name else None
    result = Simulation(random_trace(seed, n_jobs), config, mechanism).run()

    got = [vars(o) for o in ondemand_by_notice_class(result)]
    want = [
        vars(o)
        for o in ondemand_by_notice_class_per_job(
            result, config.instant_threshold_s
        )
    ]
    assert [g["notice_class"] for g in got] == [
        w["notice_class"] for w in want
    ]
    for g, w in zip(got, want):
        for key, value in w.items():
            _assert_close(g[key], value, (w["notice_class"], key))

    got_waste = waste_by_type(result)
    want_waste = waste_by_type_per_job(result)
    assert list(got_waste) == list(want_waste)
    for jtype, fields in want_waste.items():
        assert set(got_waste[jtype]) == set(fields)
        for key, value in fields.items():
            _assert_close(got_waste[jtype][key], value, (jtype, key))


# ----------------------------------------------------------------------
# Satellite fix: pop_batch tie tolerance at large timestamps
# ----------------------------------------------------------------------
def test_pop_batch_keeps_ulp_ties_together_at_large_times():
    # a month-scale replay clock: ulp(3e8) ~ 6e-8 > the seed's absolute
    # 1e-9 tolerance, so two same-instant events computed by different
    # float expressions used to land in *separate* batches
    q = EventQueue()
    t = 3.0e8
    q.push(t, EventType.JOB_SUBMIT, 1)
    q.push(math.nextafter(t, math.inf), EventType.JOB_SUBMIT, 2)
    batch = q.pop_batch()
    assert [e.job_id for e in batch] == [1, 2]
    assert len(q) == 0


def test_pop_batch_still_splits_genuinely_distinct_times():
    q = EventQueue()
    t = 3.0e8
    q.push(t, EventType.JOB_SUBMIT, 1)
    q.push(t + 1.0, EventType.JOB_SUBMIT, 2)
    assert len(q.pop_batch()) == 1
    assert len(q.pop_batch()) == 1


def test_pop_batch_small_time_tolerance_unchanged():
    # at ordinary trace times the seed's 1e-9 still applies
    q = EventQueue()
    q.push(100.0, EventType.JOB_SUBMIT, 1)
    q.push(100.0 + 5e-10, EventType.JOB_SUBMIT, 2)
    q.push(100.0 + 1e-6, EventType.JOB_SUBMIT, 3)
    assert len(q.pop_batch()) == 2
    assert len(q.pop_batch()) == 1


def test_pop_batch_reuses_the_out_list():
    q = EventQueue()
    q.push(1.0, EventType.JOB_SUBMIT, 1)
    q.push(2.0, EventType.JOB_SUBMIT, 2)
    out = []
    first = q.pop_batch(out)
    assert first is out and len(out) == 1
    second = q.pop_batch(out)
    assert second is out and len(out) == 1
    assert out[0].job_id == 2


# ----------------------------------------------------------------------
# Decision latency: one fixed-bucket recorder per run
# ----------------------------------------------------------------------
def test_decision_latency_is_the_coordinator_histogram():
    jobs = ThetaWorkloadGenerator(SPEC, seed=3).generate()
    arrivals = sum(1 for j in jobs if j.is_ondemand and not j.no_show)
    sim = Simulation(jobs, _sim_config(), Mechanism.parse("CUA&SPAA"))
    result = sim.run()
    histogram = sim.coordinator.decision_latency
    assert result.decision_latency == LatencyStats.from_histogram(histogram)
    assert result.decision_latency.count == arrivals > 0
