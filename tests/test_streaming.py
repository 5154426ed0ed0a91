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
  ``1e-9`` tolerance did, past ``t ~ 1e8`` s),
  ``LatencyStats.from_samples`` percentiles are nearest-rank
  (``int(p*n)`` indexed one past the rank whenever ``p*n`` was
  integral), and a stream whose notices outrun its declared horizon
  is rejected at admission.
"""

import math
import os
import random

import pytest

from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.jobs.job import Job, JobType, NoticeClass
from repro.sched.registry import policy_names
from repro.metrics.breakdown import (
    ondemand_by_notice_class,
    utilization_series,
    waste_by_type,
)
from repro.metrics.summary import deterministic_view, summarize
from repro.obs.registry import Histogram
from repro.perf.record import canonical_json
from repro.sim.config import SimConfig
from repro.sim.engine import EventQueue
from repro.sim.events import EventType
from repro.sim.simulator import LatencyStats, Simulation
from repro.util.errors import ConfigurationError
from repro.workload.spec import theta_spec
from repro.workload.stream import JobStream, as_stream
from repro.workload.swf import iter_swf, load_swf, stream_swf
from repro.workload.theta import ThetaWorkloadGenerator

#: small but fully featured: every job type, every notice class, a few
#: hundred jobs — enough for preemptions, loans, and shrinks to occur
SPEC = theta_spec(days=4, target_load=0.85)

_ONLY = os.environ.get("REPRO_POLICY")
STREAM_POLICIES = tuple(
    n for n in policy_names() if not _ONLY or n == _ONLY
)


def _sim_config(**overrides) -> SimConfig:
    return SimConfig(system_size=SPEC.system_size, **overrides)


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
        }
    ).encode()


@pytest.mark.parametrize(
    "mechanism",
    [None] + list(ALL_MECHANISMS),
    ids=lambda m: str(m) if m else "baseline",
)
def test_streamed_matches_materialized(mechanism):
    gen = ThetaWorkloadGenerator(SPEC, seed=3)
    config = _sim_config(log_decisions=True)
    mat = Simulation(gen.generate(), config, mechanism).run()
    st = Simulation(
        ThetaWorkloadGenerator(SPEC, seed=3).iter_jobs(), config, mechanism
    ).run()
    assert st.jobs == []  # the stream was never materialized
    assert _canonical(st) == _canonical(mat)
    # the full decision transcript is identical too: same starts, same
    # preemptions, same reservations, in the same order
    assert [e.to_json_line() for e in st.log.entries] == [
        e.to_json_line() for e in mat.log.entries
    ]
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


@pytest.mark.parametrize("policy", STREAM_POLICIES)
def test_streamed_matches_materialized_every_policy(policy):
    """Stream == materialized holds for every *registered* policy, new
    entries included automatically — aging policies (time-varying keys)
    exercise the pass-skip interplay hardest."""
    spec = theta_spec(days=2, target_load=0.85)
    config = SimConfig(
        system_size=spec.system_size, log_decisions=True, policy=policy
    )
    mechanism = ALL_MECHANISMS[0]
    mat = Simulation(
        ThetaWorkloadGenerator(spec, seed=9).generate(), config, mechanism
    ).run()
    st = Simulation(
        ThetaWorkloadGenerator(spec, seed=9).iter_jobs(), config, mechanism
    ).run()
    assert st.jobs == []
    assert _canonical(st) == _canonical(mat)
    assert [e.to_json_line() for e in st.log.entries] == [
        e.to_json_line() for e in mat.log.entries
    ]


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
    config = _sim_config(log_decisions=True)
    mechanism = ALL_MECHANISMS[0]
    ordered = Simulation(_distinct_submit_jobs(), config, mechanism).run()
    shuffled_jobs = _distinct_submit_jobs()
    random.Random(7).shuffle(shuffled_jobs)
    shuffled = Simulation(shuffled_jobs, config, mechanism).run()
    assert _canonical(shuffled) == _canonical(ordered)
    assert [e.to_json_line() for e in shuffled.log.entries] == [
        e.to_json_line() for e in ordered.log.entries
    ]


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
    with pytest.raises(ValueError):
        utilization_series(st)


def test_materialized_summary_dispatch_matches_legacy_grouping():
    """The accumulator path and the legacy per-job grouping agree on a
    materialized run — the differential that guards ``summarize``'s
    dispatch.  Agreement is to float-summation-order precision: the
    accumulator folds in finish order, the legacy grouping in job-id
    order, so sums can differ by an ULP (exactness is asserted where it
    matters — streamed vs materialized, which share the accumulator).
    """
    result = Simulation(
        ThetaWorkloadGenerator(SPEC, seed=9).generate(),
        _sim_config(),
        ALL_MECHANISMS[0],
    ).run()
    via_acc = deterministic_view(summarize(result))
    result.accumulator = None  # force the legacy per-job path
    via_jobs = deterministic_view(summarize(result))
    assert set(via_acc) == set(via_jobs)
    for key, value in via_jobs.items():
        got = via_acc[key]
        if isinstance(value, float):
            assert got == pytest.approx(value, rel=1e-12, abs=1e-12), key
        else:
            assert got == value, key


# ----------------------------------------------------------------------
# Satellite fix: pop_batch tie tolerance at large timestamps
# ----------------------------------------------------------------------
def test_pop_batch_keeps_ulp_ties_together_at_large_times():
    # a month-scale replay clock: ulp(3e8) ~ 6e-8 > the seed's absolute
    # 1e-9 tolerance, so two same-instant events computed by different
    # float expressions used to land in *separate* batches
    q = EventQueue()
    t = 3.0e8
    q.push(t, EventType.JOB_SUBMIT, job_id=1)
    q.push(math.nextafter(t, math.inf), EventType.JOB_SUBMIT, job_id=2)
    batch = q.pop_batch()
    assert [e.payload["job_id"] for e in batch] == [1, 2]
    assert len(q) == 0


def test_pop_batch_still_splits_genuinely_distinct_times():
    q = EventQueue()
    t = 3.0e8
    q.push(t, EventType.JOB_SUBMIT, job_id=1)
    q.push(t + 1.0, EventType.JOB_SUBMIT, job_id=2)
    assert len(q.pop_batch()) == 1
    assert len(q.pop_batch()) == 1


def test_pop_batch_small_time_tolerance_unchanged():
    # at ordinary trace times the seed's 1e-9 still applies
    q = EventQueue()
    q.push(100.0, EventType.JOB_SUBMIT, job_id=1)
    q.push(100.0 + 5e-10, EventType.JOB_SUBMIT, job_id=2)
    q.push(100.0 + 1e-6, EventType.JOB_SUBMIT, job_id=3)
    assert len(q.pop_batch()) == 2
    assert len(q.pop_batch()) == 1


def test_pop_batch_reuses_the_out_list():
    q = EventQueue()
    q.push(1.0, EventType.JOB_SUBMIT, job_id=1)
    q.push(2.0, EventType.JOB_SUBMIT, job_id=2)
    out = []
    first = q.pop_batch(out)
    assert first is out and len(out) == 1
    second = q.pop_batch(out)
    assert second is out and len(out) == 1
    assert out[0].payload["job_id"] == 2


# ----------------------------------------------------------------------
# Satellite fix: nearest-rank percentiles
# ----------------------------------------------------------------------
def test_latency_percentiles_are_nearest_rank():
    s = LatencyStats.from_samples([1.0, 2.0, 3.0, 4.0])
    # p50 of 4 samples is the 2nd smallest; int(0.5 * 4) indexed the 3rd
    assert s.p50_s == 2.0
    assert s.max_s == 4.0

    s = LatencyStats.from_samples([float(i) for i in range(1, 101)])
    assert (s.p50_s, s.p95_s, s.p99_s) == (50.0, 95.0, 99.0)

    s = LatencyStats.from_samples([7.0])
    assert (s.p50_s, s.p95_s, s.p99_s, s.max_s) == (7.0, 7.0, 7.0, 7.0)


def test_from_histogram_agrees_with_from_samples_on_bucket_bounds():
    # samples that sit exactly on bucket bounds: the two constructors
    # must agree (both are ceil-rank); before the fix from_samples
    # returned the next sample up whenever p*n was integral
    samples = [1.0, 2.0, 3.0, 4.0]
    h = Histogram("t", bounds=(1.0, 2.0, 3.0, 4.0))
    for v in samples:
        h.observe(v)
    exact = LatencyStats.from_samples(samples)
    approx = LatencyStats.from_histogram(h)
    assert approx.count == exact.count
    assert approx.p50_s == exact.p50_s == 2.0
    assert approx.max_s == exact.max_s
    assert approx.mean_s == exact.mean_s
