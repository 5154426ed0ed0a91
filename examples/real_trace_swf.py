#!/usr/bin/env python
"""Feed a real Standard Workload Format (SWF) log through the hybrid
scheduler instead of the synthetic Theta generator.

The Parallel Workloads Archive publishes many production logs in SWF.
This script:

1. parses an SWF file (or fabricates a small demo one if none given),
2. applies the paper's §IV-A type assignment — all jobs of a project get
   one type, 10%/60%/30% of projects are on-demand/rigid/malleable, and
   oversized on-demand jobs are reassigned,
3. runs baseline vs a chosen mechanism and prints the comparison.

Run:
    python examples/real_trace_swf.py [path/to/log.swf] \
        [--cores-per-node 64] [--system-size 4392]
"""

import argparse
import os
import sys
import tempfile

import numpy as np

from repro import Mechanism, SimConfig, Simulation, summarize
from repro.metrics.report import format_summary_rows
from repro.workload.spec import W5
from repro.workload.swf import load_swf, retype_jobs
from repro.workload.trace import clone_jobs

DEMO_HEADER = "; synthetic demo SWF (generated by real_trace_swf.py)\n"


def make_demo_swf(path: str, n_jobs: int = 400, seed: int = 0) -> None:
    """Write a small plausible SWF file so the example runs standalone."""
    rng = np.random.default_rng(seed)
    t = 0.0
    with open(path, "w") as fh:
        fh.write(DEMO_HEADER)
        for i in range(1, n_jobs + 1):
            t += float(rng.exponential(180.0))
            runtime = float(rng.lognormal(np.log(1800.0), 1.0))
            runtime = min(max(runtime, 60.0), 86400.0)
            estimate = runtime * float(rng.uniform(1.0, 2.0))
            procs = int(rng.choice([64, 128, 256, 512, 1024]))
            group = int(rng.integers(0, 25))
            fh.write(
                f"{i} {t:.0f} 1 {runtime:.0f} {procs} -1 -1 {procs} "
                f"{estimate:.0f} -1 1 {group + 100} -1 {group} -1 -1 -1 -1\n"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("swf", nargs="?", default=None, help="SWF log path")
    parser.add_argument("--cores-per-node", type=int, default=64)
    parser.add_argument("--system-size", type=int, default=None)
    parser.add_argument("--mechanism", default="CUA&SPAA")
    parser.add_argument("--max-jobs", type=int, default=2000)
    args = parser.parse_args()

    if args.swf is not None:
        compare(args.swf, args)
        return
    # size the demo machine so the log actually contends for nodes
    if args.system_size is None:
        args.system_size = 64
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "demo.swf")
        make_demo_swf(path)
        print("(no SWF given; using a generated demo log)\n", file=sys.stderr)
        compare(path, args)


def compare(path: str, args: argparse.Namespace) -> None:
    """Run baseline vs the chosen mechanism on the SWF log at *path*."""
    if args.system_size is None:
        args.system_size = 4392
    rigid_jobs = load_swf(
        path, cores_per_node=args.cores_per_node, max_jobs=args.max_jobs
    )
    print(f"parsed {len(rigid_jobs)} usable jobs from {path}")

    rng = np.random.default_rng(42)
    trace = retype_jobs(
        rigid_jobs,
        frac_projects_ondemand=0.10,
        frac_projects_rigid=0.60,
        notice_mix=W5,
        rng=rng,
        system_size=args.system_size,
    )
    config = SimConfig(system_size=args.system_size)
    mech = Mechanism.parse(args.mechanism)
    baseline = Simulation(clone_jobs(trace), config, None).run()
    hybrid = Simulation(clone_jobs(trace), config, mech).run()
    print(
        format_summary_rows(
            [summarize(baseline), summarize(hybrid)],
            title=f"SWF trace: baseline vs {mech.name}",
        )
    )


if __name__ == "__main__":
    main()
