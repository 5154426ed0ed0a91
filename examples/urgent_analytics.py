#!/usr/bin/env python
"""Scenario: an experimental facility bursts urgent analysis onto an HPC
machine that is busy with simulation campaigns.

This is the motivating workload of the paper's introduction: beamline /
detector experiments produce data that must be analysed *now* (the
on-demand class), while the machine's bread-and-butter tenants are rigid
simulation jobs and malleable high-throughput campaigns.

The script builds that day explicitly — a packed machine, then a burst of
eight on-demand requests announced ~20 minutes ahead — and replays it
under all six mechanisms, reporting:

* how long each urgent job waited,
* what the burst did to the simulations (preempted? how much compute was
  rolled back?),
* what it did to the throughput campaign (shrunk? by how much?).

Run:
    python examples/urgent_analytics.py
"""

from repro import ALL_MECHANISMS, Job, JobType, NoticeClass, SimConfig, Simulation
from repro.jobs.checkpoint import CheckpointModel
from repro.metrics.breakdown import utilization_sparkline
from repro.metrics.report import format_table
from repro.util.timeconst import HOUR, MINUTE
from repro.workload.trace import clone_jobs

SYSTEM = 1024


def build_day() -> list:
    """A packed machine plus one burst of urgent analysis jobs."""
    jobs = []
    # Two large rigid simulation campaigns (the machine's main tenants).
    jobs.append(
        Job(job_id=0, job_type=JobType.RIGID, submit_time=0.0, size=512,
            runtime=20 * HOUR, estimate=24 * HOUR, setup_time=20 * MINUTE)
    )
    jobs.append(
        Job(job_id=1, job_type=JobType.RIGID, submit_time=0.0, size=256,
            runtime=16 * HOUR, estimate=20 * HOUR, setup_time=15 * MINUTE)
    )
    # A malleable high-throughput campaign soaking up the rest.
    jobs.append(
        Job(job_id=2, job_type=JobType.MALLEABLE, submit_time=0.0, size=256,
            min_size=52, runtime=12 * HOUR, estimate=15 * HOUR,
            setup_time=5 * MINUTE)
    )
    # The experiment finishes a run at ~10:00 and fires 8 urgent analysis
    # jobs over twenty minutes, each announced ~20 minutes in advance.
    base = 10 * HOUR
    for i in range(8):
        estimated = base + i * 150.0
        jobs.append(
            Job(
                job_id=3 + i,
                job_type=JobType.ONDEMAND,
                submit_time=estimated,
                size=96,
                runtime=40 * MINUTE,
                estimate=1 * HOUR,
                notice_class=NoticeClass.ACCURATE,
                notice_time=estimated - 20 * MINUTE,
                estimated_arrival=estimated,
            )
        )
    return jobs


def main() -> None:
    trace = build_day()
    config = SimConfig(
        system_size=SYSTEM,
        checkpoint=CheckpointModel(node_mtbf_s=5 * 365 * 24 * 3600.0),
    )
    rows = []
    sparklines = []
    for mech in ALL_MECHANISMS:
        result = Simulation(clone_jobs(trace), config, mech).run()
        sparklines.append((mech.name, utilization_sparkline(result, width=60)))
        jobs = {j.job_id: j for j in result.jobs}
        urgent = [jobs[i] for i in range(3, 11)]
        sims = [jobs[0], jobs[1]]
        campaign = jobs[2]
        rows.append(
            [
                mech.name,
                max(j.start_delay for j in urgent),
                sum(j.stats.preemptions for j in sims),
                sum(j.stats.lost_node_seconds for j in sims) / HOUR,
                campaign.stats.shrinks,
                campaign.stats.preemptions,
                campaign.turnaround / HOUR,
            ]
        )
    print(
        format_table(
            [
                "mechanism",
                "worst urgent delay[s]",
                "sim preempts",
                "sim lost[node-h]",
                "htc shrinks",
                "htc preempts",
                "htc turnaround[h]",
            ],
            rows,
            title="Urgent analysis burst on a busy 1024-node machine",
        )
    )
    # the ~27 h run fills fewer than 60 hourly bins of the usage series,
    # so the sparkline is not downsampled: each glyph is one bin
    print("\nMachine usage over the day (one glyph per hour, '@' = full):")
    for name, line in sparklines:
        print(f"  {name:<9} |{line}|")
    print(
        "\nReading: SPAA variants shield the rigid simulations by shrinking\n"
        "the throughput campaign instead; CUA/CUP variants prepare nodes\n"
        "during the 20-minute notice so the burst preempts less in the\n"
        "first place."
    )


if __name__ == "__main__":
    main()
