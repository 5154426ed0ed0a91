"""Evaluation metrics (§IV-D).

1. **Job turnaround time** — submission to completion (user-level).
2. **On-demand instant start rate** — fraction of on-demand jobs whose
   start delay is within the instant threshold.
3. **Preemption ratio** — fraction of rigid (resp. malleable) jobs that
   were preempted at least once.
4. **System utilization** — node-hours of useful execution over elapsed
   node-hours, *excluding* computation wasted by preemption (lost compute
   and re-setups).

:func:`summarize` turns a :class:`~repro.sim.simulator.SimulationResult`
into a flat :class:`SummaryMetrics` record; :mod:`repro.metrics.report`
renders aligned text tables for the benchmark harness.
"""

from repro.metrics.breakdown import (
    NoticeClassOutcome,
    ondemand_by_notice_class,
    utilization_series,
    utilization_sparkline,
    waste_by_type,
)
from repro.metrics.summary import (
    SummaryMetrics,
    average_summaries,
    deterministic_view,
    summarize,
)
from repro.metrics.report import format_table, format_summary_rows

__all__ = [
    "NoticeClassOutcome",
    "ondemand_by_notice_class",
    "utilization_series",
    "utilization_sparkline",
    "waste_by_type",
    "SummaryMetrics",
    "average_summaries",
    "deterministic_view",
    "summarize",
    "format_table",
    "format_summary_rows",
]
