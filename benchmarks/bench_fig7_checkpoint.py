"""Fig. 7 — impact of rigid jobs' checkpointing frequency.

"50% means rigid jobs make checkpoints twice as frequent as the optimal
checkpointing frequency."  Observation 13: checkpointing *more* often
than Daly's optimum reduces rigid turnaround and improves utilization,
because preemptions (for on-demand jobs) are far more frequent than the
failures Daly's formula assumes.
"""

import statistics

from repro.experiments.figures import fig7_checkpointing

MULTIPLIERS = (0.5, 1.0, 2.0)  # 200%, 100%, 50% of the optimal frequency


def test_fig7(benchmark, campaign, workers, emit):
    out = benchmark.pedantic(
        lambda: fig7_checkpointing(
            campaign, multipliers=MULTIPLIERS, workers=workers
        ),
        rounds=1,
        iterations=1,
    )
    emit("fig7_checkpoint", out["text"])
    results = out["results"]

    def mean(mult, field):
        return statistics.mean(
            getattr(s, field) for s in results[mult].values()
        )

    # O13 (direction): more frequent checkpoints lose less compute to
    # preemption than less frequent ones.
    lost_frequent = mean(0.5, "lost_compute_frac")
    lost_sparse = mean(2.0, "lost_compute_frac")
    assert lost_frequent <= lost_sparse + 1e-4, (lost_frequent, lost_sparse)

    # instant start is insensitive to the checkpoint interval
    for mult in MULTIPLIERS:
        assert mean(mult, "instant_start_rate") > 0.9
