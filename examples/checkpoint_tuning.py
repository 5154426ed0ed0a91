#!/usr/bin/env python
"""Site-operator view of Fig. 7: how often should rigid jobs checkpoint
when preemption — not failure — is the dominant interruption?

Daly's optimal interval assumes checkpoints only guard against hardware
failures.  On a hybrid machine, rigid jobs are also drained for urgent
on-demand work, so interruptions are far more frequent than the failure
rate — and checkpointing *more* often than Daly pays off (Observation 13).

The script sweeps the checkpoint-interval multiplier (0.25x..4x Daly)
under one mechanism and prints rigid turnaround, lost compute, checkpoint
overhead, and utilization per point.

Run:
    python examples/checkpoint_tuning.py [--mechanism CUP&PAA]
"""

import argparse
from dataclasses import replace

from repro import Mechanism
from repro.campaign import CampaignSpec
from repro.experiments.runner import run_mechanism_grid
from repro.metrics.report import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mechanism", default="CUP&PAA")
    parser.add_argument("--days", type=float, default=10.0)
    parser.add_argument("--traces", type=int, default=2)
    parser.add_argument(
        "--multipliers",
        type=float,
        nargs="*",
        default=[0.25, 0.5, 1.0, 2.0, 4.0],
    )
    args = parser.parse_args()

    mech = Mechanism.parse(args.mechanism)
    cspec = CampaignSpec(
        name="checkpoint-tuning",
        days=(args.days,),
        mechanism=(mech.name,),
        seeds=tuple(range(args.traces)),
    )
    rows = []
    for mult in args.multipliers:
        grid = run_mechanism_grid(
            replace(cspec, checkpoint_multiplier=(mult,))
        )
        s = grid[mech.name]
        rows.append(
            [
                f"{1 / mult:.0%} of Daly",
                s.avg_turnaround_rigid_h,
                s.lost_compute_frac,
                s.checkpoint_frac,
                s.system_utilization,
            ]
        )
    print(
        format_table(
            [
                "ckpt frequency",
                "rigid turnaround[h]",
                "lost compute",
                "ckpt overhead",
                "utilization",
            ],
            rows,
            title=f"Checkpoint frequency sweep under {mech.name} "
            f"({args.days:g}-day traces, {args.traces} seeds)",
        )
    )
    print(
        "\nReading: moving left to right the interval grows; lost compute\n"
        "(rolled back at preemptions) rises while checkpoint overhead\n"
        "falls — the paper's Observation 13 says the sweet spot sits at\n"
        "checkpointing MORE often than Daly's failure-only optimum."
    )


if __name__ == "__main__":
    main()
