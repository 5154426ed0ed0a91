"""Fine-grained metric breakdowns beyond the paper's headline numbers.

* per-notice-class on-demand outcomes (how do ACCURATE vs LATE arrivals
  fare under each mechanism — the machinery behind Observations 11/12);
* per-type waste decomposition;
* an hourly utilization series (text sparkline) for eyeballing drain
  behaviour around on-demand bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from typing import TYPE_CHECKING

from repro.jobs.job import NoticeClass
from repro.metrics.summary import checked_accumulator
from repro.util.timeconst import HOUR

if TYPE_CHECKING:  # runtime import would be circular: the simulator
    # imports the accumulator module, which lives in this package
    from repro.sim.simulator import SimulationResult

#: sparkline glyphs from empty to full
_SPARK = " .:-=+*#%@"


@dataclass(frozen=True)
class NoticeClassOutcome:
    """On-demand outcomes for one Fig. 1 arrival category."""

    notice_class: str
    count: int
    instant_rate: float
    avg_delay_s: float
    avg_turnaround_h: float


def ondemand_by_notice_class(
    result: SimulationResult, instant_threshold_s: Optional[float] = None
) -> List[NoticeClassOutcome]:
    """Split the on-demand metrics by notice class (arrived jobs only).

    Read from the run's accumulator, like
    :func:`~repro.metrics.summary.summarize` (same threshold rule).
    """
    acc = checked_accumulator(result, instant_threshold_s)
    out = []
    for cls in NoticeClass:
        g = acc.by_notice[cls]
        out.append(
            NoticeClassOutcome(
                notice_class=cls.value,
                count=g.count,
                instant_rate=(g.instant / g.count) if g.count else 0.0,
                avg_delay_s=(
                    g.delay.total / g.delay.count if g.delay.count else 0.0
                ),
                avg_turnaround_h=(
                    g.turnaround.total / g.count / HOUR if g.count else 0.0
                ),
            )
        )
    return out


def waste_by_type(result: SimulationResult) -> Dict[str, Dict[str, float]]:
    """Node-hour waste decomposition per job type."""
    return {
        t.value: {
            "lost_compute_node_h": g.lost_ns / HOUR,
            "wasted_setup_node_h": g.wasted_setup_ns / HOUR,
            "checkpoint_node_h": g.checkpoint_ns / HOUR,
            "preemptions": float(g.preemptions),
        }
        for t, g in result.accumulator.by_type.items()
    }


def utilization_series(
    result: SimulationResult, bin_s: float = HOUR
) -> List[float]:
    """Fraction of the machine allocated, per time bin.

    Rebuilt from the exact per-segment records the simulator keeps
    (preemption gaps contribute nothing); node counts within a segment
    are the segment's mean, so a resize mid-segment is averaged.
    Requires a materialized run: streamed results retire jobs (and
    their segment records) at completion.
    """
    acc = result.accumulator
    if not result.jobs and acc is not None and acc.n_jobs:
        raise ValueError(
            "utilization_series needs per-job segment records; run the "
            "simulation with a materialized job list"
        )
    horizon = result.last_end
    if horizon <= 0:
        return []
    n_bins = max(1, int(horizon // bin_s) + 1)
    used = [0.0] * n_bins
    for j in result.jobs:
        for start, end, nodes in j.stats.segment_records:
            b0 = int(start // bin_s)
            b1 = min(n_bins - 1, int(end // bin_s))
            for b in range(b0, b1 + 1):
                lo = max(start, b * bin_s)
                hi = min(end, (b + 1) * bin_s)
                used[b] += nodes * max(0.0, hi - lo)
    cap = result.system_size * bin_s
    return [min(1.0, u / cap) for u in used]


def utilization_sparkline(
    result: SimulationResult, bin_s: float = HOUR, width: Optional[int] = None
) -> str:
    """A text sparkline of machine usage over time.

    >>> # '@' = full machine, ' ' = idle
    """
    series = utilization_series(result, bin_s=bin_s)
    if width is not None and len(series) > width > 0:
        # downsample by averaging fixed-size chunks
        chunk = len(series) / width
        series = [
            sum(series[int(i * chunk) : max(int((i + 1) * chunk), int(i * chunk) + 1)])
            / max(1, len(series[int(i * chunk) : max(int((i + 1) * chunk), int(i * chunk) + 1)]))
            for i in range(width)
        ]
    glyphs = []
    for u in series:
        idx = min(len(_SPARK) - 1, int(u * (len(_SPARK) - 1) + 0.5))
        glyphs.append(_SPARK[idx])
    return "".join(glyphs)
