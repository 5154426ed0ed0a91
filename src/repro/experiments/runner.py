"""Grid runner: one cell's simulation, and (mechanism x trace seed) grids.

:func:`run_one` generates its trace *inside* the call, so a (spec,
seed, mechanism) triple is a complete description of a cell — which
lets the campaign engine ship cells to worker processes as plain
configs and makes every cell reproducible from the command line.
:func:`run_mechanism_grid` averages such cells over seeds; it runs them
through the campaign executor like every other grid.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional, Sequence

from repro.core.mechanisms import Mechanism
from repro.experiments.config import ExperimentConfig
from repro.jobs.job import Job
from repro.metrics.summary import SummaryMetrics, average_summaries, summarize
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulation
from repro.workload.spec import WorkloadSpec
from repro.workload.theta import stream_jobs_from_rows
from repro.workload.trace_cache import get_trace_cache


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


def run_mechanism_grid(
    spec: WorkloadSpec,
    mechanisms: Sequence[Optional[Mechanism]],
    seeds: Sequence[int],
    sim: Optional[SimConfig] = None,
    workers: int = 1,
) -> Dict[Optional[str], SummaryMetrics]:
    """Average each mechanism over the trace seeds.

    ``None`` in *mechanisms* runs the baseline.  Returns
    ``{mechanism_name_or_None: averaged summary}`` preserving input
    order; each average folds the seeds in the order given.  The cells
    run through :func:`~repro.campaign.executor.run_campaign` on an
    in-memory store.  A failed cell drops out of its mechanism's
    average; a mechanism whose every cell failed raises
    ``RuntimeError``.
    """
    from repro.campaign.executor import run_campaign

    sim = sim or SimConfig(system_size=spec.system_size)
    config = ExperimentConfig(
        spec=spec,
        sim=sim,
        mechanisms=[m for m in mechanisms if m is not None],
        workers=workers,
    )
    cspec = config.to_campaign_spec(
        name="mechanism-grid", include_baseline=None in mechanisms
    )
    cspec = replace(cspec, seeds=tuple(seeds))
    run = run_campaign(cspec, workers=workers)
    by_key = {r.key: r for r in run.records}
    cells: Dict[Optional[str], list] = {}
    for cell in cspec.expand():  # mechanism-major, seeds in order
        cells.setdefault(cell.mechanism, []).append(by_key[cell.key()])
    out: Dict[Optional[str], SummaryMetrics] = {}
    for m in mechanisms:
        name = m.name if m else None
        records = cells[name]
        ok = [r.summary_metrics() for r in records if r.ok]
        if not ok:
            raise RuntimeError(
                f"all {len(records)} cells failed for mechanism={name}; "
                f"first error:\n{records[0].error}"
            )
        out[name] = average_summaries(ok)
    return out
