"""Table I — synthetic Theta workload summary.

Regenerates the Table I statistics (system size, job count, project
count, size/length bounds) from one generated trace and benchmarks the
trace generator itself.

Paper values (real Theta log, one year): 4,392 KNL nodes, 37,298 jobs,
211 projects, max job length 1 day, min job size 128 nodes.
"""

from repro.experiments.figures import table1_workload
from repro.workload.theta import generate_trace


def test_table1(benchmark, campaign, emit):
    out = benchmark.pedantic(
        lambda: table1_workload(campaign), rounds=1, iterations=1
    )
    emit("table1_workload", out["text"])
    s = out["summary"]
    assert s["compute_nodes"] == 4392
    assert s["min_job_size"] >= 128
    assert s["max_job_length_h"] <= 24.0
    # yearly-equivalent job count in the same decade as Theta's 37.3k
    yearly = s["number_of_jobs"] * 365.0 / campaign.days[0]
    assert 15_000 < yearly < 70_000


def test_trace_generation_throughput(benchmark, campaign):
    """Generator speed: one multi-week Theta-scale trace per call."""
    spec = campaign.expand()[0].workload_spec()
    jobs = benchmark(lambda: generate_trace(spec, seed=1))
    assert len(jobs) > 100
