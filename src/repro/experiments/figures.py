"""Drivers that regenerate every table and figure of the paper.

Each function returns a dict with structured results plus a ``text`` key
holding the rendered exhibit (the same rows/series the paper reports).
The benchmark harness (benchmarks/) calls these and prints the text; the
EXPERIMENTS.md paper-vs-measured record is produced the same way.

Every driver takes the :class:`~repro.campaign.spec.CampaignSpec` it
runs: the workload exhibits (Table I, Fig. 3/4) generate the traces of
its first cell and its seeds; the grid exhibits replace the axes their
figure sweeps (Fig. 6 the notice mix, Fig. 7 the checkpoint multiplier,
Table II and the headline comparison the mechanism) and run the rest
as given.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.mechanisms import ALL_MECHANISMS
from repro.experiments.runner import run_mechanism_grid, seed_means
from repro.metrics.report import format_summary_rows, format_table
from repro.metrics.summary import SummaryMetrics
from repro.workload.ondemand import burstiness_cv
from repro.workload.spec import NOTICE_MIXES
from repro.workload.theta import generate_trace
from repro.workload.trace import (
    characterize_sizes,
    table1_summary,
    type_shares,
)

#: the Table III mixes Fig. 6 sweeps
FIG6_MIXES: Sequence[str] = ("W1", "W2", "W3", "W4", "W5")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.executor import CampaignRunResult
    from repro.campaign.spec import CampaignSpec


def _run_grid(
    cspec: "CampaignSpec",
    workers: int,
    campaign_dir: Optional[str],
    what: str,
) -> "CampaignRunResult":
    """Run *cspec* (cached in *campaign_dir* if given); raise on any
    failed cell, since a partial seed average would silently skew the
    exhibit (retry via the campaign CLI ``--retry-failed``)."""
    from repro.campaign.executor import run_campaign
    from repro.campaign.store import ResultStore

    store = ResultStore(campaign_dir) if campaign_dir else None
    run = run_campaign(cspec, store=store, workers=workers)
    if run.n_failed:
        failed = [r for r in run.records if not r.ok]
        raise RuntimeError(
            f"{run.n_failed} {what} cells failed; first error:\n"
            f"{failed[0].error}"
        )
    return run


# ----------------------------------------------------------------------
# Table I — workload summary
# ----------------------------------------------------------------------
def table1_workload(cspec: "CampaignSpec") -> Dict[str, object]:
    """Table I: basic statistics of the first cell's trace."""
    cell = cspec.expand()[0]
    spec = cell.workload_spec()
    jobs = generate_trace(spec, seed=cell.seed)
    summary = table1_summary(jobs, spec.system_size)
    rows = [[k, v] for k, v in summary.items()]
    text = format_table(
        ["field", "value"], rows, title="Table I — synthetic Theta workload"
    )
    return {"summary": summary, "jobs": jobs, "text": text}


# ----------------------------------------------------------------------
# Fig. 3 — job count and core-hours by size range
# ----------------------------------------------------------------------
def fig3_size_mix(cspec: "CampaignSpec") -> Dict[str, object]:
    """Fig. 3: jobs (outer ring) and core-hours (inner ring) per size bucket."""
    cell = cspec.expand()[0]
    spec = cell.workload_spec()
    jobs = generate_trace(spec, seed=cell.seed)
    buckets = characterize_sizes(jobs, edges=spec.size_bucket_edges)
    total_jobs = sum(b[1] for b in buckets) or 1
    total_ch = sum(b[2] for b in buckets) or 1.0
    rows = [
        [label, count, count / total_jobs, ch, ch / total_ch]
        for label, count, ch in buckets
    ]
    text = format_table(
        ["size range", "jobs", "job share", "core-hours", "ch share"],
        rows,
        title="Fig. 3 — job size mix",
    )
    return {"buckets": buckets, "text": text}


# ----------------------------------------------------------------------
# Fig. 4 — job-type distribution across traces
# ----------------------------------------------------------------------
def fig4_type_mix(cspec: "CampaignSpec") -> Dict[str, object]:
    """Fig. 4: per-seed shares of rigid / on-demand / malleable jobs."""
    spec = cspec.expand()[0].workload_spec()
    shares = []
    for seed in cspec.seeds:
        jobs = generate_trace(spec, seed=seed)
        shares.append(type_shares(jobs))
    rows = [
        [f"trace-{i}", s["rigid"], s["ondemand"], s["malleable"]]
        for i, s in enumerate(shares)
    ]
    text = format_table(
        ["trace", "rigid", "ondemand", "malleable"],
        rows,
        title="Fig. 4 — job-type distribution per trace",
    )
    return {"shares": shares, "text": text}


# ----------------------------------------------------------------------
# Fig. 5 — weekly on-demand submissions (burstiness)
# ----------------------------------------------------------------------
def fig5_burstiness(
    cspec: "CampaignSpec",
    workers: int = 1,
    campaign_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Fig. 5: on-demand jobs per week for the first three seeds' traces.

    Runs as a ``kind="trace"`` campaign, so passing *campaign_dir*
    caches the per-seed workload characterizations across invocations.
    """
    cspec = replace(
        cspec, kind="trace", mechanism=(None,), seeds=cspec.seeds[:3]
    )
    run = _run_grid(cspec, workers, campaign_dir, "trace")
    series = {}
    for record in run.ok_records:
        payload = record.payload or {}
        series[int(record.config["seed"])] = list(payload["weekly_ondemand"])
    rows = []
    for seed, counts in series.items():
        rows.append(
            [
                f"seed-{seed}",
                len(counts),
                sum(counts),
                burstiness_cv(counts),
                " ".join(str(c) for c in counts[:12])
                + (" ..." if len(counts) > 12 else ""),
            ]
        )
    text = format_table(
        ["trace", "weeks", "total od", "cv", "weekly counts"],
        rows,
        title="Fig. 5 — weekly on-demand submissions",
    )
    from repro.campaign.svg import line_chart

    n_weeks = max((len(c) for c in series.values()), default=0)
    chart = line_chart(
        list(range(1, n_weeks + 1)),
        [
            (f"seed-{seed}", [float(c) for c in counts])
            for seed, counts in series.items()
        ],
        title="Fig. 5 — weekly on-demand submissions",
        x_label="week",
    )
    charts = [("weekly on-demand submissions", chart)] if series else []
    return {"series": series, "text": text, "charts": charts}


# ----------------------------------------------------------------------
# Table II — baseline performance
# ----------------------------------------------------------------------
def table2_baseline(
    cspec: "CampaignSpec", workers: int = 1
) -> Dict[str, object]:
    """Table II: FCFS/EASY with no special treatment of any class."""
    baseline = replace(
        cspec,
        mechanism=(None,),
        sim_overrides={**cspec.sim_overrides, "flexible_malleable": False},
    )
    s = run_mechanism_grid(baseline, workers=workers)[None]
    rows = [
        ["Avg. Turnaround", f"{s.avg_turnaround_h:.1f} hours"],
        ["System Util.", f"{100 * s.system_utilization:.2f}%"],
        ["On-demand Instant Start Rate", f"{100 * s.instant_start_rate:.2f}%"],
    ]
    text = format_table(
        ["metric", "value"], rows, title="Table II — baseline (FCFS/EASY)"
    )
    return {"summary": s, "text": text}


# ----------------------------------------------------------------------
# Table III — the notice-accuracy mixes (configuration table)
# ----------------------------------------------------------------------
def table3_mixes() -> Dict[str, object]:
    """Table III: W1–W5 on-demand notice distributions."""
    rows = [
        [m.name, m.none, m.accurate, m.early, m.late]
        for m in NOTICE_MIXES.values()
    ]
    text = format_table(
        ["workload", "no notice", "accurate", "early", "late"],
        rows,
        title="Table III — on-demand notice mixes",
    )
    return {"mixes": dict(NOTICE_MIXES), "text": text}


# ----------------------------------------------------------------------
# Fig. 6 — the headline grid: mechanisms x mixes
# ----------------------------------------------------------------------
def fig6_mechanisms(
    cspec: "CampaignSpec",
    mixes: Sequence[str] = FIG6_MIXES,
    workers: int = 1,
    campaign_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Fig. 6: the mechanisms of *cspec* under the Table III *mixes*.

    The grid runs as a campaign: with *campaign_dir* set, completed
    (mix x mechanism x seed) cells are cached on disk and reused by any
    later invocation — including partial overlaps such as a rerun with
    more seeds or extra mechanisms.
    """
    cspec = replace(cspec, notice_mix=tuple(mixes))
    run = _run_grid(cspec, workers, campaign_dir, "fig6")
    means = seed_means(run.records, ("notice_mix", "mechanism"))
    sweep: Dict[str, Dict[Optional[str], SummaryMetrics]] = {
        mix: {m: means[(mix, m or "baseline")] for m in cspec.mechanism}
        for mix in mixes
    }
    parts = [table3_mixes()["text"], ""]
    for mix in mixes:
        parts.append(
            format_summary_rows(
                list(sweep[mix].values()),
                title=f"Fig. 6 — workload {mix}",
            )
        )
        parts.append("")
    charts = _grid_charts(
        sweep,
        x_label="notice mix",
        title_prefix="Fig. 6",
    )
    return {"sweep": sweep, "text": "\n".join(parts), "charts": charts}


# ----------------------------------------------------------------------
# Fig. 7 — checkpoint-frequency sensitivity
# ----------------------------------------------------------------------
def fig7_checkpointing(
    cspec: "CampaignSpec",
    multipliers: Sequence[float] = (0.5, 1.0, 2.0),
    workers: int = 1,
    campaign_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Fig. 7: the Fig. 6 metrics as the checkpoint interval is scaled.

    ``0.5`` = twice as frequent as Daly's optimum (the paper's "50 %").

    The multipliers are a campaign axis, so with *campaign_dir* every
    (multiplier x mechanism x seed) cell is cached on disk — rerunning
    with an extra multiplier only computes the new column.
    """
    cspec = replace(
        cspec, checkpoint_multiplier=tuple(float(m) for m in multipliers)
    )
    run = _run_grid(cspec, workers, campaign_dir, "fig7")
    means = seed_means(run.records, ("checkpoint_multiplier", "mechanism"))
    results: Dict[float, Dict[Optional[str], SummaryMetrics]] = {}
    parts = []
    for mult in multipliers:
        grid = {
            m: means[(float(mult), m or "baseline")] for m in cspec.mechanism
        }
        results[mult] = grid
        parts.append(
            format_summary_rows(
                list(grid.values()),
                title=f"Fig. 7 — checkpoint interval x{mult:g} "
                f"({100 / mult:.0f}% frequency)",
            )
        )
        parts.append("")
    charts = _grid_charts(
        {f"x{m:g}": results[m] for m in multipliers},
        x_label="checkpoint interval multiplier",
        title_prefix="Fig. 7",
        numeric_x=[float(m) for m in multipliers],
    )
    return {"results": results, "text": "\n".join(parts), "charts": charts}


# ----------------------------------------------------------------------
# Shared chart emission (Fig. 6 / Fig. 7 grids)
# ----------------------------------------------------------------------

#: the metrics the paper's Fig. 6/7 panels chart, one chart per metric
CHART_METRICS: Sequence[str] = (
    "avg_turnaround_h",
    "system_utilization",
    "instant_start_rate",
    "preemption_ratio_rigid",
    "preemption_ratio_malleable",
)


def _grid_charts(
    grid: Dict[str, Dict[Optional[str], SummaryMetrics]],
    x_label: str,
    title_prefix: str,
    numeric_x: Optional[Sequence[float]] = None,
    metrics: Sequence[str] = CHART_METRICS,
) -> List[tuple]:
    """Per-metric charts for an (x-point -> mechanism -> summary) grid.

    The campaign HTML exporter and the paper-figure drivers both render
    through :mod:`repro.campaign.svg`, so a figure regenerated here and
    a campaign report over the same cells look identical.  A numeric x
    axis (Fig. 7's multipliers) draws lines; categorical x (Fig. 6's
    mixes) draws grouped bars — one chart per metric, mechanisms as the
    series, matching the paper's panel layout.
    """
    from repro.campaign.svg import bar_chart, line_chart

    x_points = list(grid)
    mechanisms: List[Optional[str]] = []
    for per_mech in grid.values():
        for name in per_mech:
            if name not in mechanisms:
                mechanisms.append(name)
    charts = []
    for metric in metrics:
        series = []
        for mech in mechanisms:
            values = []
            for x in x_points:
                summary = grid[x].get(mech)
                value = (
                    summary.as_dict().get(metric) if summary else None
                )
                values.append(
                    float(value)
                    if isinstance(value, (int, float))
                    else None
                )
            series.append((mech or "baseline", values))
        title = f"{title_prefix} — {metric}"
        if numeric_x is not None and len(numeric_x) >= 3:
            chart = line_chart(
                list(numeric_x), series, title=title, x_label=x_label
            )
        else:
            chart = bar_chart(
                x_points, series, title=title, x_label=x_label
            )
        charts.append((metric, chart))
    return charts


# ----------------------------------------------------------------------
# Convenience: the full headline comparison at the default mix
# ----------------------------------------------------------------------
def headline_comparison(
    cspec: "CampaignSpec", workers: int = 1
) -> Dict[str, object]:
    """Baseline + all six mechanisms on the rest of *cspec*'s grid."""
    mechanisms = (None, *(m.name for m in ALL_MECHANISMS))
    grid = run_mechanism_grid(
        replace(cspec, mechanism=mechanisms), workers=workers
    )
    text = format_summary_rows(
        list(grid.values()), title="Baseline vs. the six mechanisms"
    )
    return {"grid": grid, "text": text}
