"""Named, parameterized perf scenarios for ``perf run`` and the bench fleet.

A scenario is a *factory*: ``make(params) -> Callable[[], dict]``.  The
factory does all setup (job synthesis, record synthesis) outside the
timed region; the returned thunk is what the harness times, and its
returned mapping of numeric totals (events processed, passes, output
bytes) is merged into the perf record so rates like ``events_per_s``
can be derived.

Parameters are part of the record's content-addressed scenario hash
(:func:`repro.perf.record.scenario_hash`), so ``sim_core`` at 1k jobs
and ``sim_core`` at 100k jobs are separate trend lines that never get
compared against each other.

``synth_jobs`` lives here (moved from ``benchmarks/bench_sim_core.py``)
because both the benchmark fleet and the CLI need the same canonical
near-saturated workload — one definition, one hash.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

#: the canonical benchmark machine (Theta-like, §IV-B scale)
SYSTEM = 4096

Scenario = Callable[[], Dict[str, float]]


#: ``submit - notice`` never exceeds the drawn 900–1800 s lead
SYNTH_NOTICE_HORIZON_S = 1800.0


def iter_synth_jobs(n_jobs: int, seed: int = 2022, load: float = 0.95):
    """A near-saturated stream of small jobs (big running set), lazily.

    Sizes 1-3 on 4096 nodes with ~2.5 h runtimes keep thousands of jobs
    running at once: exactly the regime where the seed's per-pass
    rebuild (O(running log running) sort per event batch) dominated.
    5% of jobs are on-demand with accurate advance notice, 15%
    malleable — so reservations, loans, shrinks, and the resulting
    stale events all appear at scale.

    A true generator: draws are strictly sequential per job, so memory
    is O(1) — this is what lets the million-job ``bench_sim_core``
    scenarios assert an O(in-flight) simulator ceiling.
    ``synth_jobs`` materialises the identical stream.
    """
    from repro.jobs.job import Job, JobType, NoticeClass
    from repro.util.rng import RngStreams

    rng = RngStreams(seed).get("bench-sim-core")
    avg_size, avg_runtime = 2.0, 9000.0
    rate = load * SYSTEM / (avg_size * avg_runtime)
    t = 0.0
    for i in range(n_jobs):
        t += float(rng.exponential(1.0 / rate))
        u = float(rng.uniform())
        size = int(rng.integers(1, 4))
        runtime = float(rng.uniform(6_000.0, 12_000.0))
        estimate = runtime * float(rng.uniform(1.0, 1.5))
        if u < 0.05:
            lead = float(rng.uniform(900.0, 1_800.0))
            yield Job(
                job_id=i,
                job_type=JobType.ONDEMAND,
                submit_time=t,
                size=min(size * 4, 64),
                runtime=runtime / 10,
                estimate=estimate / 10,
                notice_class=NoticeClass.ACCURATE,
                notice_time=max(0.0, t - lead),
                estimated_arrival=t,
            )
        elif u < 0.20:
            yield Job(
                job_id=i,
                job_type=JobType.MALLEABLE,
                submit_time=t,
                size=size,
                min_size=1,
                runtime=runtime,
                estimate=estimate,
            )
        else:
            yield Job(
                job_id=i,
                job_type=JobType.RIGID,
                submit_time=t,
                size=size,
                runtime=runtime,
                estimate=estimate,
            )


def stream_synth_jobs(n_jobs: int, seed: int = 2022, load: float = 0.95):
    """:func:`iter_synth_jobs` wrapped with its notice horizon."""
    from repro.workload.stream import JobStream

    return JobStream(
        iter_synth_jobs(n_jobs, seed=seed, load=load),
        notice_horizon_s=SYNTH_NOTICE_HORIZON_S,
    )


def synth_jobs(n_jobs: int, seed: int = 2022, load: float = 0.95):
    """The materialised form of :func:`iter_synth_jobs` (same stream)."""
    return list(iter_synth_jobs(n_jobs, seed=seed, load=load))


def bench_sim_config(
    backfill_mode: str = "easy",
    policy: "str | None" = None,
):
    """The standard benchmark simulator config (checkpointing off)."""
    from repro.jobs.checkpoint import CheckpointModel
    from repro.sim.config import SimConfig

    return SimConfig(
        system_size=SYSTEM,
        checkpoint=CheckpointModel.disabled(),
        backfill_mode=backfill_mode,
        backfill_depth=16,
        policy=policy,
    )


def make_sim_core(params: Mapping[str, Any]) -> Scenario:
    """One simulator run of the near-saturated synthetic stream.

    Params: ``n_jobs`` (default 1000), ``backfill`` (easy/conservative),
    ``policy`` (any registered queue-ordering name, e.g. ``prb_ewt``;
    empty = FCFS), ``mechanism`` (e.g. ``CUA&SPAA``; empty =
    baseline), ``stream`` (0/1: generator-backed workload +
    O(in-flight) simulator memory), ``seed``, ``load``.
    """
    from repro.core.mechanisms import Mechanism
    from repro.sim.simulator import Simulation
    from repro.workload.trace import clone_jobs

    n_jobs = int(params.get("n_jobs", 1000))
    seed = int(params.get("seed", 2022))
    load = float(params.get("load", 0.95))
    stream = bool(int(params.get("stream", 0)))
    # streamed runs synthesise jobs lazily *inside* the timed thunk —
    # holding a materialised copy outside it would defeat the memory
    # measurement the scenario exists for
    jobs = None if stream else synth_jobs(n_jobs, seed=seed, load=load)
    config = bench_sim_config(
        backfill_mode=str(params.get("backfill", "easy")),
        policy=str(params.get("policy", "") or "") or None,
    )
    mech_name = str(params.get("mechanism", "") or "")
    mech = Mechanism.parse(mech_name) if mech_name else None

    def run() -> Dict[str, float]:
        workload = (
            stream_synth_jobs(n_jobs, seed=seed, load=load)
            if stream
            else clone_jobs(jobs)
        )
        result = Simulation(workload, config, mech).run()
        return {
            "events_processed": float(result.events_processed),
            "schedule_passes": float(result.schedule_passes),
            "passes_skipped": float(result.passes_skipped),
        }

    return run


def make_html_report(params: Mapping[str, Any]) -> Scenario:
    """Render a synthetic n-record campaign report (pivot + charts).

    Params: ``n_records`` (default 2000).
    """
    from repro.campaign.html import render_campaign_html

    n_records = int(params.get("n_records", 2000))
    records = synth_campaign_records(n_records)

    def run() -> Dict[str, float]:
        document = render_campaign_html(
            records, by=("notice_mix", "mechanism")
        )
        return {
            "records": float(n_records),
            "html_bytes": float(len(document)),
        }

    return run


def synth_campaign_records(n: int, backfill: str = "easy"):
    """Deterministic synthetic cell records for report-path scenarios."""
    from repro.campaign.store import CellRecord
    from repro.metrics.summary import SummaryMetrics

    base = dict(
        mechanism=None, n_jobs=10, n_rigid=5, n_malleable=3, n_ondemand=2,
        n_noshow=0, avg_turnaround_h=4.0, avg_turnaround_rigid_h=5.0,
        avg_turnaround_malleable_h=3.0, avg_turnaround_ondemand_h=1.0,
        instant_start_rate=0.5, avg_ondemand_delay_s=30.0,
        preemption_ratio_rigid=0.1, preemption_ratio_malleable=0.2,
        shrink_ratio_malleable=0.0, system_utilization=0.8,
        allocated_frac=0.8, lost_compute_frac=0.0, wasted_setup_frac=0.0,
        checkpoint_frac=0.0, reserved_idle_frac=0.0,
        decision_latency_p50_s=0.001, decision_latency_max_s=0.01,
        makespan_h=48.0, lease_resumes=0, lease_expands=0,
    )
    mechanisms = (None, "N&PAA", "N&SPAA", "CUA&PAA", "CUA&SPAA")
    mixes = ("W1", "W2", "W3", "W4", "W5")
    records = []
    for i in range(n):
        mechanism = mechanisms[i % len(mechanisms)]
        summary = SummaryMetrics(
            **{
                **base,
                "mechanism": mechanism,
                "avg_turnaround_h": 4.0 + (i % 97) * 0.01,
                "system_utilization": 0.7 + (i % 29) * 0.01,
            }
        ).to_dict()
        records.append(
            CellRecord(
                key=f"{backfill}-{i:06d}",
                config={
                    "days": float(7 * (1 + i % 3)),
                    "target_load": 0.6,
                    "system_size": 512,
                    "notice_mix": mixes[(i // 5) % len(mixes)],
                    "mechanism": mechanism,
                    "backfill_mode": backfill,
                    "checkpoint_multiplier": 1.0,
                    "failure_mtbf_days": 0.0,
                    "seed": i // 25,
                    "kind": "sim",
                    "spec_overrides": {},
                    "sim_overrides": {},
                },
                status="ok" if i % 200 else "error",
                summary=summary if i % 200 else None,
                error=None if i % 200 else "Traceback\nValueError: boom",
                elapsed_s=1.0,
            )
        )
    return records


#: the mechanism axis every campaign-throughput cell grid sweeps —
#: baseline plus all six paper mechanisms, so each (spec, seed) trace
#: is shared by 7 cells exactly as the fig6/fig7 grids share theirs
CAMPAIGN_MECHANISMS = (
    None,
    "N&PAA",
    "N&SPAA",
    "CUA&PAA",
    "CUA&SPAA",
    "CUP&PAA",
    "CUP&SPAA",
)

#: the fig7-style checkpoint-interval axis; cells varying only this
#: knob still share one (spec, seed) trace, so the grid exercises the
#: trace cache at the reuse factor real sweeps hit (7 mechanisms x 3
#: multipliers = 21 cells per generated trace)
CAMPAIGN_CHECKPOINTS = (0.5, 1.0, 2.0)


def make_campaign_throughput(params: Mapping[str, Any]) -> Scenario:
    """An end-to-end campaign over many tiny cells; cells/min is the
    gated metric.

    The grid sweeps :data:`CAMPAIGN_MECHANISMS` (baseline + all six
    mechanisms) crossed with the :data:`CAMPAIGN_CHECKPOINTS`
    multipliers across enough seeds to reach ``n_cells``, on a small
    machine with sub-day traces — the cell-throughput regime where the
    dispatch layer, repeated trace generation, and per-cell allocation
    dominate, per the task-runtime characterization literature.  Params:
    ``n_cells`` (default 63), ``days`` (default 0.25), ``system_size``
    (default 256), ``load`` (default 0.6), ``workers`` (default 1:
    serial, so the measured rate is cache + streaming, not
    parallelism).

    The trace cache is cleared at the start of every rep, so each rep
    pays its own parses — the measurement models a cold worker process.
    """
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import ResultStore
    from repro.workload.trace_cache import get_trace_cache

    n_cells = int(params.get("n_cells", 63))
    days = float(params.get("days", 0.25))
    system_size = int(params.get("system_size", 256))
    load = float(params.get("load", 0.6))
    workers = int(params.get("workers", 1))
    per_trace = len(CAMPAIGN_MECHANISMS) * len(CAMPAIGN_CHECKPOINTS)
    n_seeds = max(1, -(-n_cells // per_trace))
    spec = CampaignSpec.from_dict(
        {
            "name": "campaign-throughput",
            "days": days,
            "target_load": load,
            "system_size": system_size,
            "mechanism": list(CAMPAIGN_MECHANISMS),
            "checkpoint_multiplier": list(CAMPAIGN_CHECKPOINTS),
            "seeds": list(range(n_seeds)),
        }
    )

    def run() -> Dict[str, float]:
        get_trace_cache().clear()
        store = ResultStore()
        result = run_campaign(spec, store=store, workers=workers)
        if result.n_failed:
            raise RuntimeError(
                f"campaign_throughput: {result.n_failed} cells failed"
            )
        events = sum(
            float(r.summary.get("events_processed", 0.0))
            for r in result.ok_records
            if r.summary
        )
        return {
            "cells_processed": float(result.n_ran),
            "events_processed": events,
        }

    return run


SCENARIOS: Dict[str, Callable[[Mapping[str, Any]], Scenario]] = {
    "sim_core": make_sim_core,
    "html_report": make_html_report,
    "campaign_throughput": make_campaign_throughput,
}
