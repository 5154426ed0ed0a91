"""Table II — baseline FCFS/EASY performance.

Paper values (one-year Theta trace): 15.6 h average turnaround, 83.93 %
system utilization, 22.69 % on-demand instant start rate.

Our shorter synthetic traces are calibrated to land in the same band for
utilization and instant start; turnaround is lower because multi-week
traces accumulate less queue depth than a full year.
"""

from repro.experiments.figures import table2_baseline


def test_table2(benchmark, campaign, workers, emit):
    out = benchmark.pedantic(
        lambda: table2_baseline(campaign, workers=workers), rounds=1, iterations=1
    )
    emit("table2_baseline", out["text"])
    s = out["summary"]
    # paper: 83.93% — accept the surrounding band at reduced scale
    assert 0.70 < s.system_utilization < 0.95
    # paper: 22.69% — without mechanisms most on-demand jobs must queue
    assert s.instant_start_rate < 0.6
    # no special treatment: nothing is ever preempted or shrunk
    assert s.preemption_ratio_rigid == 0.0
    assert s.preemption_ratio_malleable == 0.0
