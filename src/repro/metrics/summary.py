"""Aggregate metrics from one simulation run."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from typing import TYPE_CHECKING

from repro.jobs.job import JobType
from repro.metrics.accumulators import SummaryAccumulator
from repro.util.timeconst import HOUR

if TYPE_CHECKING:  # runtime import would be circular: the simulator
    # imports the accumulator module, which lives in this package
    from repro.sim.simulator import SimulationResult


@dataclass(frozen=True)
class SummaryMetrics:
    """Flat record of everything the paper's figures plot."""

    mechanism: Optional[str]
    n_jobs: int
    n_rigid: int
    n_malleable: int
    n_ondemand: int
    #: announced on-demand jobs that never arrived (excluded elsewhere)
    n_noshow: int

    #: hours, averaged over completed jobs
    avg_turnaround_h: float
    avg_turnaround_rigid_h: float
    avg_turnaround_malleable_h: float
    avg_turnaround_ondemand_h: float

    #: §IV-D.2 — fraction of on-demand jobs started within the threshold
    instant_start_rate: float
    #: mean start delay of on-demand jobs, seconds
    avg_ondemand_delay_s: float

    #: §IV-D.3 — fraction of jobs of the type preempted at least once
    preemption_ratio_rigid: float
    preemption_ratio_malleable: float
    #: fraction of malleable jobs shrunk at least once (SPAA footprint)
    shrink_ratio_malleable: float

    #: §IV-D.4 — (allocated - lost - wasted setup) / capacity
    system_utilization: float
    #: decomposition, as fractions of total capacity over the horizon
    allocated_frac: float
    lost_compute_frac: float
    wasted_setup_frac: float
    checkpoint_frac: float
    reserved_idle_frac: float

    #: Observation 10 — scheduler decision latency (seconds)
    decision_latency_p50_s: float
    decision_latency_max_s: float

    makespan_h: float
    lease_resumes: int
    lease_expands: int

    # -- simulator throughput (defaults keep pre-existing stored
    #    summaries loadable; see PERF_METRICS) --------------------------
    decision_latency_p95_s: float = 0.0
    decision_latency_p99_s: float = 0.0
    decision_latency_mean_s: float = 0.0
    #: host wall-clock seconds the simulation took
    wall_time_s: float = 0.0
    #: events the simulator dispatched
    events_processed: int = 0
    #: scheduling passes actually executed
    schedule_passes: int = 0
    #: batches whose pass was skipped as a provable no-op (an empty
    #: queue, or nothing planning-relevant changed)
    passes_skipped: int = 0

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)

    def to_dict(self) -> Dict[str, object]:
        """Strict-JSON-safe dict: non-finite floats become sentinel strings.

        ``json.dumps`` would otherwise emit bare ``NaN``/``Infinity``
        literals, which are not valid JSON and break strict parsers; the
        campaign result store round-trips summaries through this form.
        Inverse of :meth:`from_dict`.
        """
        out: Dict[str, object] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                if math.isnan(value):
                    value = "NaN"
                else:
                    value = "Infinity" if value > 0 else "-Infinity"
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SummaryMetrics":
        """Rebuild a summary from :meth:`to_dict` output, losslessly."""
        decode = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}
        kwargs: Dict[str, object] = {}
        for name, fld in cls.__dataclass_fields__.items():
            if name not in data and name in PERF_METRICS:
                continue  # summary stored before the throughput fields
            value = data[name]
            if value in decode and fld.type != "Optional[str]":
                value = decode[value]  # type: ignore[index]
            elif fld.type == "float" and value is not None:
                value = float(value)  # type: ignore[arg-type]
            kwargs[name] = value
        return cls(**kwargs)  # type: ignore[arg-type]


#: metrics measured from the host's wall clock rather than simulation
#: state — the only SummaryMetrics fields that legitimately differ
#: between two runs of the same cell (O10 asserts their magnitude, so
#: they stay in the summary; equivalence checks should mask them)
WALLCLOCK_METRICS = frozenset(
    {
        "decision_latency_p50_s",
        "decision_latency_p95_s",
        "decision_latency_p99_s",
        "decision_latency_mean_s",
        "decision_latency_max_s",
        "wall_time_s",
    }
)

#: simulator-throughput fields added after the first stored campaigns;
#: :meth:`SummaryMetrics.from_dict` defaults them when absent so old
#: result stores keep loading
PERF_METRICS = WALLCLOCK_METRICS | frozenset(
    {"events_processed", "schedule_passes", "passes_skipped"}
)


def deterministic_view(summary) -> dict:
    """A summary dict minus wall-clock metrics: equal across machines,
    processes, and runs for identical cells.  Accepts a
    :class:`SummaryMetrics` or its ``to_dict()`` shape."""
    if isinstance(summary, SummaryMetrics):
        summary = summary.to_dict()
    return {k: v for k, v in summary.items() if k not in WALLCLOCK_METRICS}


def _mean(values: Sequence[float]) -> float:
    vals = [v for v in values if not math.isnan(v)]
    return sum(vals) / len(vals) if vals else math.nan


def checked_accumulator(
    result: SimulationResult, instant_threshold_s: Optional[float] = None
) -> SummaryAccumulator:
    """The run's :class:`SummaryAccumulator`, the one source of its
    summary and breakdown metrics.

    The accumulator counts instant starts at the threshold the
    simulation was configured with; asking for any other
    *instant_threshold_s* (``None`` asks for none) raises
    ``ValueError`` — rerun with ``SimConfig(instant_threshold_s=...)``.
    """
    acc = result.accumulator
    if instant_threshold_s is not None and not math.isclose(
        acc.instant_threshold_s, instant_threshold_s, abs_tol=1e-12
    ):
        raise ValueError(
            f"the run counted instant starts at {acc.instant_threshold_s} s "
            f"and cannot be summarised at {instant_threshold_s} s; rerun "
            "with SimConfig(instant_threshold_s=...)"
        )
    return acc


def summarize(
    result: SimulationResult, instant_threshold_s: Optional[float] = None
) -> SummaryMetrics:
    """Reduce a run to the paper's metrics.

    Read from the run's streaming accumulator (see
    :func:`checked_accumulator` for *instant_threshold_s*), whose sums
    are folded in job-completion order — the same order for a streamed
    and a materialized run of one trace, which is what makes their
    summaries byte-identical.
    """
    acc = checked_accumulator(result, instant_threshold_s)
    rigid = acc.by_type[JobType.RIGID]
    malleable = acc.by_type[JobType.MALLEABLE]
    ondemand = acc.by_type[JobType.ONDEMAND]
    n_rigid = rigid.turnaround.count
    n_malleable = malleable.turnaround.count
    n_ondemand = ondemand.turnaround.count

    capacity = result.system_size * result.horizon
    allocated = acc.allocated_node_seconds
    lost = acc.lost_node_seconds
    wasted_setup = acc.wasted_setup_node_seconds
    ckpt = acc.checkpoint_node_seconds

    return SummaryMetrics(
        mechanism=result.mechanism,
        n_jobs=acc.n_jobs,
        n_rigid=n_rigid,
        n_malleable=n_malleable,
        n_ondemand=n_ondemand,
        n_noshow=acc.n_noshow,
        avg_turnaround_h=acc.turnaround_all.mean / HOUR,
        avg_turnaround_rigid_h=rigid.turnaround.mean / HOUR,
        avg_turnaround_malleable_h=malleable.turnaround.mean / HOUR,
        avg_turnaround_ondemand_h=ondemand.turnaround.mean / HOUR,
        instant_start_rate=(
            acc.od_instant / n_ondemand if n_ondemand else 0.0
        ),
        avg_ondemand_delay_s=acc.od_delay.mean,
        preemption_ratio_rigid=(
            rigid.preempted / n_rigid if n_rigid else 0.0
        ),
        preemption_ratio_malleable=(
            malleable.preempted / n_malleable if n_malleable else 0.0
        ),
        shrink_ratio_malleable=(
            malleable.shrunk / n_malleable if n_malleable else 0.0
        ),
        system_utilization=max(0.0, (allocated - lost - wasted_setup))
        / capacity,
        allocated_frac=allocated / capacity,
        lost_compute_frac=lost / capacity,
        wasted_setup_frac=wasted_setup / capacity,
        checkpoint_frac=ckpt / capacity,
        reserved_idle_frac=result.reserved_idle_node_seconds / capacity,
        decision_latency_p50_s=result.decision_latency.p50_s,
        decision_latency_p95_s=result.decision_latency.p95_s,
        decision_latency_p99_s=result.decision_latency.p99_s,
        decision_latency_mean_s=result.decision_latency.mean_s,
        decision_latency_max_s=result.decision_latency.max_s,
        makespan_h=result.makespan / HOUR,
        lease_resumes=result.lease_resumes,
        lease_expands=result.lease_expands,
        wall_time_s=result.wall_time_s,
        events_processed=result.events_processed,
        schedule_passes=result.schedule_passes,
        passes_skipped=result.passes_skipped,
    )


def average_summaries(summaries: Sequence[SummaryMetrics]) -> SummaryMetrics:
    """Field-wise mean across trace replicas (Fig. 6 averages ten traces)."""
    if not summaries:
        raise ValueError("no summaries to average")
    first = summaries[0]
    kwargs = {}
    for name in first.__dataclass_fields__:
        values = [getattr(s, name) for s in summaries]
        if name == "mechanism":
            kwargs[name] = first.mechanism
        elif isinstance(values[0], int):
            kwargs[name] = int(round(statistics.mean(values)))
        else:
            kwargs[name] = float(_mean(values))
    return SummaryMetrics(**kwargs)
