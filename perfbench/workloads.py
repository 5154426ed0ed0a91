"""The benchmark's four workloads and the checks on their outputs.

Every workload simulates paper-shaped input.  The three Theta-shaped
workloads start from one Theta-like trace drawn with the fixed
generator seed :data:`BASE_SEED`, so every run measures the same load
regime; the run's ``--seed`` then shifts every job's submission (with
its advance notice) by its own draw from ``[0, JITTER_S)``.  Traces
drawn from different generator seeds differ too much in queue depth
for a steady benchmark: a 60-day trace took from 1.1 s to 2.5 s of CPU
depending on the seed, and a 14-day grid from 5.7 s to 16 s.

Even so, a jittered trace shifts the conservative planner's cost by up
to 8% and a turnaround mean by up to 5%, so the Theta-shaped single
runs cycle through ``variants`` jitter draws per seed and each run
measures all of them.

Constructing a workload is its set-up: it builds everything an
operation needs outside the timed region.  ``run(variant)`` is one
timed operation and returns one :class:`Cell` per simulation it ran;
the untimed warm-up calls it once per variant.  Program functions are
called through their modules at call time, so the layer tracer's
wrappers are seen.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.campaign import executor
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.metrics import summary as summary_mod
from repro.perf import scenarios
from repro.sim import simulator
from repro.sim.config import SimConfig
from repro.workload import theta, trace_cache
from repro.workload.spec import NOTICE_MIXES, theta_spec
from repro.workload.stream import JobStream

#: generator seed of the base Theta-like trace (the repo's default base seed)
BASE_SEED = 2022
#: upper bound of the per-job submit-time shift drawn from ``--seed``
JITTER_S = 60.0
#: simulated outcomes reported per run: name -> (unit, summary field)
OUTCOMES = {
    "od_instant_rate": ("fraction", "instant_start_rate"),
    "rigid_turnaround_h": ("h", "avg_turnaround_rigid_h"),
    "malleable_turnaround_h": ("h", "avg_turnaround_malleable_h"),
    "utilization": ("fraction", "system_utilization"),
}
#: printed but not in BENCHMARK.json: the mean on-demand delay is exactly
#: 0 on workloads whose on-demand jobs all start on arrival, and a
#: relative bound cannot apply to 0
INFO_OUTCOMES = {"od_delay_s": ("s", "avg_ondemand_delay_s")}


@dataclass
class Cell:
    """One simulation's output: its summary and how many jobs it was fed."""

    label: str
    summary: Optional[Dict[str, object]]
    jobs_fed: int
    error: Optional[str] = None


def digest(summary: Dict[str, object]) -> str:
    """sha256 of a summary's wall-clock-free fields."""
    view = summary_mod.deterministic_view(summary)
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def outcomes(cells: List[Cell], names=OUTCOMES) -> Dict[str, tuple]:
    """``{name: (mean over the cells, unit)}`` of each simulated outcome."""
    return {
        name: (statistics.fmean(c.summary[field] for c in cells), unit)
        for name, (unit, field) in names.items()
    }


def check_cell(cell: Cell) -> List[str]:
    """Everything wrong with one cell's output; empty when it is correct."""
    if cell.error is not None or cell.summary is None:
        return [f"{cell.label}: raised: {(cell.error or '').strip()[-300:]}"]
    s = cell.summary
    problems = []
    if s["n_jobs"] + s["n_noshow"] != cell.jobs_fed:
        problems.append(
            f"{cell.label}: n_jobs + n_noshow = {s['n_jobs'] + s['n_noshow']}, "
            f"fed {cell.jobs_fed}"
        )
    for key, value in s.items():
        if isinstance(value, str) and key != "mechanism":
            problems.append(f"{cell.label}: {key} = {value}")
        elif isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{cell.label}: {key} = {value}")
    util = s["system_utilization"]
    if not (isinstance(util, float) and 0.0 <= util <= 1.0):
        problems.append(f"{cell.label}: utilization {util} outside [0, 1]")
    return problems


class Checker:
    """Counts operations and failed checks; holds the reference digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}
        self.problems: List[str] = []

    def check(self, cells: List[Cell]) -> None:
        for cell in cells:
            self.attempted += 1
            problems = check_cell(cell)
            if not problems:
                d = digest(cell.summary)
                ref = self.digests.setdefault(cell.label, d)
                if ref != d:
                    problems.append(
                        f"{cell.label}: digest {d[:12]} differs from an "
                        f"earlier run of the same input ({ref[:12]})"
                    )
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    def fail(self, problem: str) -> None:
        """Count an operation that produced no output at all."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)

    def combined_digest(self) -> str:
        blob = "".join(f"{k}={v};" for k, v in sorted(self.digests.items()))
        return hashlib.sha256(blob.encode()).hexdigest()


def jittered_rows(rows: List[dict], seed: int, variant: int) -> List[dict]:
    """Copies of *rows* with each job's times shifted, in submit order.

    The notice time and estimated arrival move with the submission, so
    every notice keeps its lead and the trace's notice horizon holds.
    """
    rng = random.Random(f"{seed}/{variant}")
    out = []
    for row in rows:
        shift = rng.uniform(0.0, JITTER_S)
        new = dict(row)
        new["submit"] += shift
        for key in ("notice_time", "estimated_arrival"):
            if new.get(key) is not None:
                new[key] += shift
        out.append(new)
    out.sort(key=lambda r: (r["submit"], r["size"]))
    return out


class ThetaRun:
    """One streamed simulation of a jittered Theta-like trace per operation.

    Constructing it is the set-up: generate the base trace, draw the
    jitter variants, build the simulator config.
    """

    variants = 4

    def __init__(
        self,
        seed: int,
        out_dir: str,
        days: float,
        mechanism: str,
        config: Dict[str, object],
    ) -> None:
        self.spec = theta_spec(days=days)
        rows = trace_cache.TraceCache().theta_rows(self.spec, BASE_SEED)
        self.variant_rows = [
            jittered_rows(rows, seed, v) for v in range(self.variants)
        ]
        self.config = SimConfig(system_size=self.spec.system_size, **config)
        self.mechanism = Mechanism.parse(mechanism)

    def run(self, variant: int) -> List[Cell]:
        rows = self.variant_rows[variant]
        jobs = theta.stream_jobs_from_rows(self.spec, rows)
        result = simulator.Simulation(jobs, self.config, self.mechanism).run()
        summary = summary_mod.summarize(
            result, instant_threshold_s=self.config.instant_threshold_s
        )
        return [Cell(f"variant{variant}", summary.to_dict(), len(rows))]


class StreamFlood:
    """A lazily generated near-saturated stream of small jobs, baseline EASY.

    Jobs are drawn inside each operation, as a streamed run draws them,
    so set-up only builds the config.
    """

    variants = 1

    def __init__(self, seed: int, out_dir: str, n_jobs: int) -> None:
        self.seed, self.n_jobs = seed, n_jobs
        self.config = scenarios.bench_sim_config()

    def run(self, variant: int) -> List[Cell]:
        fed = 0

        def counted(jobs):
            nonlocal fed
            for job in jobs:
                fed += 1
                yield job

        jobs = JobStream(
            counted(scenarios.iter_synth_jobs(self.n_jobs, seed=self.seed)),
            notice_horizon_s=scenarios.SYNTH_NOTICE_HORIZON_S,
        )
        result = simulator.Simulation(jobs, self.config, None).run()
        summary = summary_mod.summarize(
            result, instant_threshold_s=self.config.instant_threshold_s
        )
        return [Cell("stream", summary.to_dict(), fed)]


def write_swf(rows: List[dict], path: str) -> None:
    """The rows' rigid shape (submit, size, runtime, estimate, project) as SWF."""
    with open(path, "w") as fh:
        fh.write("; Theta-like trace with jittered submissions\n")
        for i, r in enumerate(rows, start=1):
            fh.write(
                f"{i} {r['submit']!r} -1 {r['runtime']!r} {r['size']} -1 -1 "
                f"{r['size']} {r['estimate']!r} -1 1 {r['project']} -1 "
                f"{r['project']} -1 -1 -1 -1\n"
            )


class PaperGrid:
    """A reduced Fig. 6 grid run through the campaign engine.

    Baseline plus the six mechanisms, times the Table III mixes W1-W5,
    on one jittered Theta-like log.  As in the paper, the log supplies
    submissions, sizes and runtimes and each cell layers the §IV-A type
    and notice assignment on it (campaign SWF cells); the cell seed is
    fixed so only the log varies with ``--seed``.  Set-up writes the log
    and parses it into the process-wide trace cache.
    """

    variants = 1

    def __init__(self, seed: int, out_dir: str, days: float) -> None:
        rows = trace_cache.TraceCache().theta_rows(
            theta_spec(days=days), BASE_SEED
        )
        rows = jittered_rows(rows, seed, 0)
        path = os.path.join(out_dir, f"paper_grid-{seed}.swf")
        write_swf(rows, path)
        self.n_jobs = len(rows)
        self.spec = CampaignSpec.from_dict(
            {
                "name": "paper-grid",
                "days": days,
                "notice_mix": sorted(NOTICE_MIXES),
                "mechanism": [None] + [m.name for m in ALL_MECHANISMS],
                "seeds": [BASE_SEED],
                "trace_file": [path],
            }
        )
        cache = trace_cache.get_trace_cache()
        cache.clear()
        cache.swf_jobs(path)

    def run(self, variant: int) -> List[Cell]:
        result = executor.run_campaign(self.spec, store=ResultStore(), workers=1)
        return [self._cell(r) for r in result.records]

    def _cell(self, record) -> Cell:
        return Cell(record.key, record.summary, self.n_jobs, record.error)


#: workload name -> set-up: ``(seed, out_dir) -> prepared workload``
WORKLOADS: Dict[str, Callable] = {
    "theta_run": functools.partial(
        ThetaRun, days=60.0, mechanism="CUP&SPAA", config={}
    ),
    "theta_conservative": functools.partial(
        ThetaRun,
        days=30.0,
        mechanism="N&PAA",
        config={"backfill_mode": "conservative", "policy": "prb_ewt"},
    ),
    "stream_flood": functools.partial(StreamFlood, n_jobs=20_000),
    "paper_grid": functools.partial(PaperGrid, days=14.0),
}
