"""Observation 10 — scheduler decision latency.

"Current HPC systems typically require a scheduler to respond in 10-30
seconds.  In our experiments, the proposed methods take less than 10
milliseconds to make a decision."

Two measurements:

* the recorded wall-clock latency of every on-demand arrival decision in
  a full campaign (p50 / max printed);
* a microbenchmark of the simulator's full scheduling pass machinery:
  events per second across a complete run.
"""

import statistics

from repro.core.mechanisms import Mechanism
from repro.metrics.report import format_table
from repro.sim.simulator import Simulation
from repro.workload.theta import generate_trace


def test_arrival_decision_latency(benchmark, campaign, emit):
    cell = campaign.expand()[0]
    jobs = generate_trace(cell.workload_spec(), seed=2022)

    def run():
        return Simulation(
            jobs, cell.sim_config(), Mechanism.parse("CUP&SPAA")
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    lat = result.decision_latency
    assert lat.count, "no on-demand arrivals in the trace"
    emit(
        "decision_latency",
        format_table(
            ["metric", "seconds"],
            [
                ["arrivals", lat.count],
                ["p50", lat.p50_s],
                ["p99", lat.p99_s],
                ["max", lat.max_s],
            ],
            title="Observation 10 — on-demand decision latency (CUP&SPAA)",
        ),
    )
    # the paper's bound, with 10x headroom on the median
    assert lat.p50_s < 0.001
    assert lat.max_s < 0.1


def test_simulator_event_throughput(benchmark, campaign):
    """End-to-end events/second of the full simulator (perf canary)."""
    from repro.workload.trace import clone_jobs

    cell = campaign.expand()[0]
    jobs = generate_trace(cell.workload_spec(), seed=7)

    def run():
        # the simulator mutates jobs in place: fresh clones every round
        return Simulation(
            clone_jobs(jobs), cell.sim_config(), Mechanism.parse("CUA&SPAA")
        ).run()

    result = benchmark(run)
    assert result.events_processed > len(jobs)
