"""Fine-grained metric breakdowns beyond the paper's headline numbers.

* per-notice-class on-demand outcomes (how do ACCURATE vs LATE arrivals
  fare under each mechanism — the machinery behind Observations 11/12);
* per-type waste decomposition;
* a utilization series (text sparkline) for eyeballing drain
  behaviour around on-demand bursts, read from the accumulator's usage
  series, so it works on streamed runs too.
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


def utilization_series(result: SimulationResult) -> List[float]:
    """Fraction of the machine allocated, per bin of the run's usage
    series (``result.accumulator.bin_s``: one hour, doubled per fold).

    Node counts within a segment are the segment's mean, so a resize
    mid-segment is averaged; preemption gaps contribute nothing.
    Streamed and materialized runs of one trace give the same series.
    """
    horizon = result.last_end
    if horizon <= 0:
        return []
    acc = result.accumulator
    cap = result.system_size * acc.bin_s
    series = [min(1.0, u / cap) for u in acc.usage_ns]
    # a zero-length last segment adds no bin, but the horizon still
    # reaches the last end
    return series + [0.0] * (int(horizon // acc.bin_s) + 1 - len(series))


def utilization_sparkline(
    result: SimulationResult, width: Optional[int] = None
) -> str:
    """A text sparkline of machine usage over time.

    >>> # '@' = full machine, ' ' = idle
    """
    series = utilization_series(result)
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
