"""Per-job reference implementations of the summary and breakdowns.

:func:`repro.metrics.summary.summarize` and :mod:`repro.metrics.breakdown`
read only the streaming :class:`~repro.metrics.accumulators.SummaryAccumulator`.
These functions recompute the same quantities the direct way — group a
materialized run's job list after the fact — so the differential tests
can check the accumulator against them.  Sums run in the job list's
order, the accumulator's in completion order, so float fields agree to
summation-order precision, not bit for bit.
"""

import math
from typing import Dict, List

from repro.jobs.job import Job, JobType, NoticeClass
from repro.metrics.breakdown import NoticeClassOutcome
from repro.metrics.summary import SummaryMetrics
from repro.util.timeconst import HOUR


def _mean(values) -> float:
    vals = [v for v in values if not math.isnan(v)]
    return sum(vals) / len(vals) if vals else math.nan


def _is_instant(job: Job, instant_threshold_s: float) -> bool:
    return job.start_delay <= instant_threshold_s + 1e-9


def summarize_per_job(result, instant_threshold_s: float) -> SummaryMetrics:
    """:func:`~repro.metrics.summary.summarize` from ``result.jobs``."""
    noshows = [j for j in result.jobs if j.no_show]
    jobs = [j for j in result.jobs if not j.no_show]
    by_type: Dict[JobType, List[Job]] = {t: [] for t in JobType}
    for j in jobs:
        by_type[j.job_type].append(j)
    rigid = by_type[JobType.RIGID]
    malleable = by_type[JobType.MALLEABLE]
    ondemand = by_type[JobType.ONDEMAND]

    capacity = result.system_size * result.horizon
    allocated = sum(j.stats.allocated_node_seconds for j in jobs)
    lost = sum(j.stats.lost_node_seconds for j in jobs)
    wasted_setup = sum(j.stats.wasted_setup_node_seconds for j in jobs)
    ckpt = sum(j.stats.checkpoint_node_seconds for j in jobs)
    instant = [j for j in ondemand if _is_instant(j, instant_threshold_s)]

    def ratio(group: List[Job], attr: str) -> float:
        if not group:
            return 0.0
        return sum(1 for j in group if getattr(j.stats, attr) > 0) / len(group)

    def turnaround_h(group: List[Job]) -> float:
        return _mean([j.turnaround for j in group]) / HOUR

    latency = result.decision_latency
    return SummaryMetrics(
        mechanism=result.mechanism,
        n_jobs=len(jobs),
        n_rigid=len(rigid),
        n_malleable=len(malleable),
        n_ondemand=len(ondemand),
        n_noshow=len(noshows),
        avg_turnaround_h=turnaround_h(jobs),
        avg_turnaround_rigid_h=turnaround_h(rigid),
        avg_turnaround_malleable_h=turnaround_h(malleable),
        avg_turnaround_ondemand_h=turnaround_h(ondemand),
        instant_start_rate=(len(instant) / len(ondemand)) if ondemand else 0.0,
        avg_ondemand_delay_s=_mean([j.start_delay for j in ondemand]),
        preemption_ratio_rigid=ratio(rigid, "preemptions"),
        preemption_ratio_malleable=ratio(malleable, "preemptions"),
        shrink_ratio_malleable=ratio(malleable, "shrinks"),
        system_utilization=max(0.0, (allocated - lost - wasted_setup))
        / capacity,
        allocated_frac=allocated / capacity,
        lost_compute_frac=lost / capacity,
        wasted_setup_frac=wasted_setup / capacity,
        checkpoint_frac=ckpt / capacity,
        reserved_idle_frac=result.reserved_idle_node_seconds / capacity,
        decision_latency_p50_s=latency.p50_s,
        decision_latency_p95_s=latency.p95_s,
        decision_latency_p99_s=latency.p99_s,
        decision_latency_mean_s=latency.mean_s,
        decision_latency_max_s=latency.max_s,
        makespan_h=result.makespan / HOUR,
        lease_resumes=result.lease_resumes,
        lease_expands=result.lease_expands,
        wall_time_s=result.wall_time_s,
        events_processed=result.events_processed,
        schedule_passes=result.schedule_passes,
        passes_skipped=result.passes_skipped,
    )


def ondemand_by_notice_class_per_job(
    result, instant_threshold_s: float
) -> List[NoticeClassOutcome]:
    """:func:`~repro.metrics.breakdown.ondemand_by_notice_class` from
    ``result.jobs``."""
    groups: Dict[NoticeClass, List[Job]] = {c: [] for c in NoticeClass}
    for j in result.jobs:
        if j.is_ondemand and not j.no_show:
            groups[j.notice_class].append(j)
    out = []
    for cls, jobs in groups.items():
        instant = [j for j in jobs if _is_instant(j, instant_threshold_s)]
        out.append(
            NoticeClassOutcome(
                notice_class=cls.value,
                count=len(jobs),
                instant_rate=(len(instant) / len(jobs)) if jobs else 0.0,
                avg_delay_s=(
                    sum(j.start_delay for j in jobs) / len(jobs)
                    if jobs
                    else 0.0
                ),
                avg_turnaround_h=(
                    sum(j.turnaround for j in jobs) / len(jobs) / HOUR
                    if jobs
                    else 0.0
                ),
            )
        )
    return out


def waste_by_type_per_job(result) -> Dict[str, Dict[str, float]]:
    """:func:`~repro.metrics.breakdown.waste_by_type` from ``result.jobs``."""
    out = {}
    for jtype in JobType:
        jobs = [
            j for j in result.jobs if j.job_type is jtype and not j.no_show
        ]
        out[jtype.value] = {
            "lost_compute_node_h": sum(
                j.stats.lost_node_seconds for j in jobs
            )
            / HOUR,
            "wasted_setup_node_h": sum(
                j.stats.wasted_setup_node_seconds for j in jobs
            )
            / HOUR,
            "checkpoint_node_h": sum(
                j.stats.checkpoint_node_seconds for j in jobs
            )
            / HOUR,
            "preemptions": float(sum(j.stats.preemptions for j in jobs)),
        }
    return out
