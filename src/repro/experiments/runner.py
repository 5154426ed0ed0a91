"""Grid runner: one cell's simulation, and (mechanism x trace seed) grids.

:func:`run_one` generates its trace *inside* the call, so a (spec,
seed, mechanism) triple is a complete description of a cell — which
lets the campaign engine ship cells to worker processes as plain
configs and makes every cell reproducible from the command line.
:func:`run_mechanism_grid` runs a campaign grid through the campaign
executor and averages each mechanism's cells over the trace seeds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple

from repro.core.mechanisms import Mechanism
from repro.jobs.job import Job
from repro.metrics.summary import SummaryMetrics, average_summaries, summarize
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulation
from repro.workload.spec import WorkloadSpec
from repro.workload.theta import stream_jobs_from_rows
from repro.workload.trace_cache import get_trace_cache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import CellRecord


def run_one(
    spec: WorkloadSpec,
    seed: int,
    mechanism: Optional[Mechanism],
    sim: Optional[SimConfig] = None,
    jobs: Optional[Iterable[Job]] = None,
    log_path: Optional[str] = None,
) -> SummaryMetrics:
    """Generate (or accept) a trace and simulate it under one mechanism.

    *jobs* bypasses the synthetic generator — the campaign engine's SWF
    cells feed their retyped log in here.  Any submit-ordered workload
    :class:`~repro.sim.simulator.Simulation` accepts will do: a
    :class:`~repro.workload.stream.JobStream` with its declared notice
    horizon, a sequence, or a bare iterator (default horizon).

    When *jobs* is ``None``, the trace is served from the process-wide
    :class:`~repro.workload.trace_cache.TraceCache` — generation runs
    once per ``(spec, seed)`` per worker process, each call streams
    fresh jobs off the shared rows, and no job list is ever
    materialized.

    *log_path* turns on decision logging for this run and writes the
    log as JSONL there (``--log-decisions``); it is deliberately an
    out-of-band side channel so it never perturbs the summary or any
    content-addressed cell key derived from the config.
    """
    sim = sim or SimConfig(system_size=spec.system_size)
    if log_path is not None and not sim.log_decisions:
        sim = replace(sim, log_decisions=True)
    if jobs is None:
        rows = get_trace_cache().theta_rows(spec, seed)
        jobs = stream_jobs_from_rows(spec, rows)
    result = Simulation(jobs, sim, mechanism).run()
    if log_path is not None and result.log is not None:
        result.log.write_jsonl(log_path)
    return summarize(result, instant_threshold_s=sim.instant_threshold_s)


def seed_means(
    records: Sequence["CellRecord"], by: Sequence[str]
) -> Dict[Tuple[object, ...], SummaryMetrics]:
    """Average the ok *records* within each group of equal *by* fields.

    Groups are keyed as :func:`~repro.campaign.report.group_records`
    keys them (a ``None`` mechanism reads ``"baseline"``); each average
    folds its records in the order given, so a run's expansion-ordered
    records average their seeds in axis order.
    """
    from repro.campaign.report import group_records

    return {
        key: average_summaries([r.summary_metrics() for r in group])
        for key, group in group_records(records, by).items()
    }


def run_mechanism_grid(
    cspec: "CampaignSpec", workers: int = 1
) -> Dict[Optional[str], SummaryMetrics]:
    """Run *cspec* and average each mechanism over its cells.

    Returns ``{mechanism_name_or_None: averaged summary}`` in
    ``cspec.mechanism`` order (``None`` is the baseline); each average
    folds the seeds in axis order.  The cells run through
    :func:`~repro.campaign.executor.run_campaign` on an in-memory store.
    A failed cell drops out of its mechanism's average; a mechanism
    whose every cell failed raises ``RuntimeError``.
    """
    from repro.campaign.executor import run_campaign

    run = run_campaign(cspec, workers=workers)
    means = seed_means(run.records, ("mechanism",))
    out: Dict[Optional[str], SummaryMetrics] = {}
    for name in cspec.mechanism:
        mean = means.get((name or "baseline",))
        if mean is None:
            failed = [r for r in run.records if r.config["mechanism"] == name]
            raise RuntimeError(
                f"all {len(failed)} cells failed for mechanism={name}; "
                f"first error:\n{failed[0].error}"
            )
        out[name] = mean
    return out
