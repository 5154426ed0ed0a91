"""Streaming metric accumulators: O(in-flight) summaries for O(trace) runs.

Grouping per-job lists after the run is fine at 10k jobs and fatal at
month-scale SWF volume, where the job list *is* the memory wall.  So
:func:`repro.metrics.summary.summarize` and
:mod:`repro.metrics.breakdown` read this module instead: the
simulator feeds every job through a :class:`SummaryAccumulator`
exactly once, at the moment it leaves the in-flight set (completion,
or admission for announced no-shows), and the accumulator keeps only
count/sum cells per job-type/notice-class group — O(1) state per
group, O(1) work per job.

Beside the groups it keeps one sim-time series, the allocated
node-seconds per ``bin_s`` of simulated time, fed as each running
segment closes.  Its bins start at one hour; a segment ending past
:data:`USAGE_MAX_BINS` bins folds adjacent pairs and doubles
``bin_s``, so the series stays bounded however long the clock runs.

Every run feeds the funnel through the simulator's one admission path,
so a run fed a job list and one fed a generator of the same trace see
the same completion order, which is what makes their summaries
byte-identical (asserted by the differential tests).  Group sums are
accumulated in job-completion order; totals across groups add the group
subtotals in :class:`~repro.jobs.job.JobType` declaration order.
"""

from __future__ import annotations

import math
from array import array
from operator import add
from typing import Dict

from repro.jobs.job import Job, JobType, NoticeClass
from repro.util.timeconst import HOUR

#: bound on the usage series' length: 2^14 doubles are 128 KiB, about
#: 1.9 simulated years of hourly bins
USAGE_MAX_BINS = 1 << 14


class RunningStat:
    """Count / sum of a value stream, O(1) state.

    ``mean`` reproduces :func:`repro.metrics.summary._mean` on the same
    stream: NaN for an empty stream, a left-fold sum divided by the
    count otherwise.
    """

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan


class TypeGroup:
    """Per-job-type accumulator cell."""

    __slots__ = (
        "turnaround",
        "preempted",
        "shrunk",
        "preemptions",
        "allocated_ns",
        "lost_ns",
        "wasted_setup_ns",
        "checkpoint_ns",
    )

    def __init__(self) -> None:
        self.turnaround = RunningStat()
        #: jobs preempted / shrunk at least once
        self.preempted = 0
        self.shrunk = 0
        #: total preemption events (waste_by_type reports these)
        self.preemptions = 0
        self.allocated_ns = 0.0
        self.lost_ns = 0.0
        self.wasted_setup_ns = 0.0
        self.checkpoint_ns = 0.0


class NoticeGroup:
    """Per-notice-class accumulator cell (arrived on-demand jobs)."""

    __slots__ = ("count", "instant", "delay", "turnaround")

    def __init__(self) -> None:
        self.count = 0
        self.instant = 0
        self.delay = RunningStat()
        self.turnaround = RunningStat()


class SummaryAccumulator:
    """The job-finish funnel feeding every summary and breakdown metric.

    The simulator calls :meth:`observe_noshow` when an announced
    no-show enters the trace, :meth:`observe_finished` exactly once
    per completed job, after its ``stats.end_time`` is final, and
    :meth:`observe_segment` for every running segment it closes.
    Nothing here retains a :class:`~repro.jobs.job.Job` reference.
    """

    __slots__ = (
        "instant_threshold_s",
        "n_noshow",
        "turnaround_all",
        "by_type",
        "od_delay",
        "od_instant",
        "by_notice",
        "bin_s",
        "usage_ns",
        "_type_cells",
        "_notice_cells",
    )

    def __init__(self, instant_threshold_s: float = 60.0) -> None:
        self.instant_threshold_s = float(instant_threshold_s)
        self.n_noshow = 0
        self.turnaround_all = RunningStat()
        self.by_type: Dict[JobType, TypeGroup] = {
            t: TypeGroup() for t in JobType
        }
        self.od_delay = RunningStat()
        self.od_instant = 0
        self.by_notice: Dict[NoticeClass, NoticeGroup] = {
            c: NoticeGroup() for c in NoticeClass
        }
        #: allocated node-seconds per ``bin_s`` of simulated time; bin
        #: ``b`` covers ``[b * bin_s, (b + 1) * bin_s)``
        self.bin_s = HOUR
        self.usage_ns = array("d")
        # the same cells indexed by the member's ordinal: the per-job
        # lookup then never hashes an enum member
        self._type_cells = list(self.by_type.values())
        self._notice_cells = list(self.by_notice.values())

    # ------------------------------------------------------------------
    def observe_noshow(self, job: Job) -> None:
        """Count an announced job that will never arrive."""
        self.n_noshow += 1

    def observe_finished(self, job: Job) -> None:
        """Fold one completed job into every group it belongs to."""
        st = job.stats
        group = self._type_cells[job.job_type.ordinal]
        turnaround = job.turnaround
        self.turnaround_all.observe(turnaround)
        group.turnaround.observe(turnaround)
        if st.preemptions > 0:
            group.preempted += 1
        if st.shrinks > 0:
            group.shrunk += 1
        group.preemptions += st.preemptions
        group.allocated_ns += st.allocated_node_seconds
        group.lost_ns += st.lost_node_seconds
        group.wasted_setup_ns += st.wasted_setup_node_seconds
        group.checkpoint_ns += st.checkpoint_node_seconds
        if job.is_ondemand:
            delay = job.start_delay
            instant = delay <= self.instant_threshold_s + 1e-9
            self.od_delay.observe(delay)
            if instant:
                self.od_instant += 1
            ng = self._notice_cells[job.notice_class.ordinal]
            ng.count += 1
            ng.delay.observe(delay)
            ng.turnaround.observe(turnaround)
            if instant:
                ng.instant += 1

    def observe_segment(
        self, start: float, end: float, allocated: float
    ) -> None:
        """Spread a closed segment's *allocated* node-seconds evenly
        over ``[start, end)`` (``end > start``), so a resize within the
        segment counts at the segment's mean node count."""
        bin_s = self.bin_s
        b1 = int(end // bin_s)
        while b1 >= USAGE_MAX_BINS:
            self._fold()
            bin_s = self.bin_s
            b1 = int(end // bin_s)
        usage = self.usage_ns
        if b1 >= len(usage):
            usage.frombytes(bytes(8 * (b1 + 1 - len(usage))))
        b0 = int(start // bin_s)
        if b0 == b1:
            usage[b0] += allocated
            return
        rate = allocated / (end - start)
        usage[b0] += rate * ((b0 + 1) * bin_s - start)
        full = rate * bin_s
        for b in range(b0 + 1, b1):
            usage[b] += full
        usage[b1] += rate * (end - b1 * bin_s)

    def _fold(self) -> None:
        """Halve the series: add adjacent bin pairs, double ``bin_s``."""
        usage = self.usage_ns
        if len(usage) % 2:
            usage.append(0.0)
        self.usage_ns = array("d", map(add, usage[::2], usage[1::2]))
        self.bin_s *= 2

    # ------------------------------------------------------------------
    # Totals (group subtotals added in JobType declaration order)
    # ------------------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return self.turnaround_all.count

    def _total(self, attr: str) -> float:
        total = 0.0
        for t in JobType:
            total += getattr(self.by_type[t], attr)
        return total

    @property
    def allocated_node_seconds(self) -> float:
        return self._total("allocated_ns")

    @property
    def lost_node_seconds(self) -> float:
        return self._total("lost_ns")

    @property
    def wasted_setup_node_seconds(self) -> float:
        return self._total("wasted_setup_ns")

    @property
    def checkpoint_node_seconds(self) -> float:
        return self._total("checkpoint_ns")
